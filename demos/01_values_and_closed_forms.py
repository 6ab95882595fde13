"""Iterated power sums from scratch: values, tables, and the first closed forms.

S(m, 0, n) = n^m, and each additional summation order r sums the previous
column: S(m, r, n) = S(m, r-1, 1) + ... + S(m, r-1, n).  Everything below is
exact integer/rational arithmetic.
"""

from fractions import Fraction
from math import comb

from hypersums import hyper_sum_bruteforce

# The classic staircase: r = 1 gives ordinary power sums, r = 2 sums those
# again, and so on.  Cubes first.
print("S(3, r, n) for small n:")
print("n:           ", list(range(1, 9)))
for r in range(0, 4):
    print(f"r = {r}:      ", [hyper_sum_bruteforce(3, r, n) for n in range(1, 9)])

# For m = 1 the column is a single binomial coefficient; for m = 2 it is a
# binomial times a linear factor.  Compare the closed forms with the
# recursion.
print("\nclosed forms vs. the recursion (m = 1 and m = 2):")
for r in range(0, 6):
    lhs = [comb(n + r, r + 1) for n in range(0, 8)]
    rhs = [hyper_sum_bruteforce(1, r, n) for n in range(0, 8)]
    assert lhs == rhs
    lhs2 = [Fraction(2 * n + r, r + 2) * comb(n + r, r + 1) for n in range(0, 8)]
    rhs2 = [hyper_sum_bruteforce(2, r, n) for n in range(0, 8)]
    assert lhs2 == rhs2
    print(f"  r = {r}: C(n+{r}, {r + 1}) and (2n+{r})/{r + 2} * C(n+{r}, {r + 1})  OK")

# Iterating the triangular numbers three times gives tetrahedral-style
# figurate numbers: S(1, 2, n) = C(n+2, 3).
print("\ntwice-summed units are triangular, thrice-summed are tetrahedral:")
print("  S(0, 2, n):", [hyper_sum_bruteforce(0, 2, n) for n in range(1, 8)])
print("  S(1, 2, n):", [hyper_sum_bruteforce(1, 2, n) for n in range(1, 8)])

# At n = 1 every hyper-sum collapses to a single term, 1^m.
assert all(
    hyper_sum_bruteforce(m, r, 1) == 1 for m in range(0, 8) for r in range(0, 8)
)
print("\nS(m, r, 1) = 1 for every m, r  OK")
