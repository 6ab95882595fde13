"""Structure of the centered factor polynomials.

Writing S(m, r, n) = C(n+r, r+1) * G(N) with N = n + r/2 exposes a rigid
pattern in G: for r >= 1 it is even or odd in N according as m is odd or
even, only every other coefficient is present, none of them vanish, and
their signs strictly alternate starting from a positive leading term.
"""

from fractions import Fraction
from math import comb

from hypersums import (
    RatPoly,
    faulhaber_det,
    faulhaber_r1,
    faulhaber_u_form,
    hyper_sum_bruteforce,
    hyper_sum_poly,
    monomial,
    to_text,
)

print("centered factors G(N) for r = 3:")
for m in range(1, 9):
    g = faulhaber_det(m, 3)
    print(f"  m = {m} ({g.parity():>5}): {to_text(g)}")

print("\nsign pattern of the structural coefficients (highest degree first):")
for m in range(1, 9):
    p = faulhaber_det(m, 3)
    g = p.coeffs[p.degree % 2 :: 2]  # the powers of N with the parity of the degree
    pattern = "".join("+" if c > 0 else "-" for c in reversed(g))
    print(f"  m = {m}: {pattern}")

# The same factor in the product variable u = n(n+r): for odd m the
# prefactor is C(n+r, r+1) itself, for even m it is the quadratic-order sum.
f, tag = faulhaber_u_form(5, 7)
print(f"\n(5, 7) factor over u = n(n+7), prefactor '{tag}': {to_text(f)}")
for n in range(1, 6):
    assert comb(n + 7, 8) * f.eval(n * (n + 7)) == hyper_sum_bruteforce(5, 7, n)
print("u-form reproduces the recursion at n = 1..5  OK")

# Ordinary power sums (r = 1) in the half-shifted variable N = n + 1/2.
print("\nordinary power sums written in N = n + 1/2:")
for m in (5, 6, 7, 8):
    print(f"  m = {m}: {to_text(faulhaber_r1(m))}")

# A worked identity: the difference of the order-4 and half the order-3
# quintic hyper-sums factors completely.
lhs = hyper_sum_poly(5, 4) - hyper_sum_poly(5, 3).scale(Fraction(1, 2))
prefactor = RatPoly([0, 1]) * RatPoly([1, 1]) * RatPoly([2, 1]) * RatPoly([3, 1]) * RatPoly([3, 2])
bracket = (
    monomial(4).shift(Fraction(3, 2)).scale(Fraction(5, 126))
    + monomial(2).shift(Fraction(3, 2)).scale(Fraction(-5, 252))
    + RatPoly([Fraction(-859, 2016)])
)
assert lhs == (prefactor * bracket).scale(Fraction(1, 240))
print(
    "\nS(5,4,n) - S(5,3,n)/2 = (1/240) n(n+1)(n+2)(n+3)(2n+3) "
    "[ (5/126)(n+3/2)^4 - (5/252)(n+3/2)^2 - 859/2016 ]  OK"
)
