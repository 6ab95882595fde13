"""Five independent ways to the same polynomial.

S(m, r, n) is a polynomial in n of degree m + r.  The library computes it
by five unrelated methods; this script builds S(4, 3, n) with each of them
and shows the results are identical, coefficient by coefficient, and match
the defining recursion at every point.
"""

from hypersums import (
    hyper_sum_bruteforce,
    hyper_sum_det,
    hyper_sum_poly_c,
    hyper_sum_poly_chain,
    hyper_sum_poly_q,
    lemma_recurrence_family,
    to_text,
)

m, r = 4, 3

routes = {
    "power-sum expansion  ": hyper_sum_poly_q(m, r),
    "explicit coefficients": hyper_sum_poly_c(m, r),
    "coefficient chaining ": hyper_sum_poly_chain(m, r),
    "centered recurrence  ": lemma_recurrence_family(m, r)[m - 1],
    "determinant          ": hyper_sum_det(m, r),
}

print(f"S({m}, {r}, n) by five routes:\n")
for label, result in routes.items():
    print(f"  {label}: {to_text(result.poly)}")

polys = [h.poly for h in routes.values()]
assert all(p == polys[0] for p in polys), "routes disagree!"
print("\nall five coefficient vectors identical  OK")

# The polynomial reproduces the recursion exactly, including n = 0.
for n in range(0, 16):
    assert polys[0].eval(n) == hyper_sum_bruteforce(m, r, n)
print("evaluations match the defining recursion for n = 0..15  OK")
