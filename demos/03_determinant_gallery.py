"""The Hessenberg determinant behind the hyper-sum factorization.

For every m >= 1 and r >= 0 there is a lower Hessenberg matrix of order
m - 1, linear in the centered variable N = n + r/2, whose determinant gives
S(m, r, n) = C(n+r, r+1) * (-1)^(m-1) / (r+2)...(r+m) * det.
"""

from fractions import Fraction

from hypersums import build_matrix, det, faulhaber_det, hyper_sum_bruteforce
from hypersums.exactnum import rising_factorial
from hypersums.hessenberg import matrix_to_text
from hypersums.polyring import to_text

# The showcase instance: m = 5, r = 7.  Note the two zero entries; they are
# vanishing odd-index Bernoulli numbers, not structural zeros.
h = build_matrix(5, 7)
print("matrix for (m, r) = (5, 7), order 4:\n")
print(matrix_to_text(h))
d = det(h)
print(f"\ndet = {to_text(d)}")

g = faulhaber_det(5, 7)
print(f"scaled by (-1)^4 / 9*10*11*12 = 1/{rising_factorial(9, 4)}:")
print(f"  G = {to_text(g)}")

# Sanity: multiply back by the binomial prefactor and compare with the
# recursion at a concrete point.
n = 5
value = Fraction(hyper_sum_bruteforce(1, 7, n)) * g.eval(Fraction(n) + Fraction(7, 2))
assert value == hyper_sum_bruteforce(5, 7, n)
print(f"  C(n+7, 8) * G(N) at n = {n}: {value}  == S(5, 7, {n})  OK")

# At r = 0 the centered variable is n itself and the determinant collapses
# to a signed monomial: (-1)^(m-1) * 2*3*...*m * n^(m-1).
print("\ndeterminants at r = 0 (pure monomials):")
for m in range(2, 7):
    print(f"  m = {m}: {to_text(det(build_matrix(m, 0)))}")

# The empty matrix (m = 1) has determinant 1 by convention.
assert det(build_matrix(1, 4)).coeffs == (Fraction(1),)
print("\ndet of the order-0 matrix = 1  OK")

# Order-2 instance with symbolic-looking small entries: the lower-left entry
# is r * C(3,1) * B_2 = r/2.
for r in (1, 2, 3):
    h3 = build_matrix(3, r)
    print(f"\n(m, r) = (3, {r}):")
    print(matrix_to_text(h3))
    print(f"det = {to_text(det(h3))}")
