"""Structural identities checked over their stated grids, exact equality."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from hypersums.exactnum import bernoulli, r_stirling1
from hypersums.hypersum import (
    faulhaber_det,
    hyper_sum_bruteforce,
    hyper_sum_poly,
    q_poly,
)
from hypersums.polyring import RatPoly


def test_order_lift_recurrence():
    # S(m, r+1) = ((n+r)/r) S(m, r) - (1/r) S(m+1, r), m <= 8, r = 1..5
    for m in range(0, 9):
        for r in range(1, 6):
            lhs = hyper_sum_poly(m, r + 1)
            rhs = (RatPoly([r, 1]) * hyper_sum_poly(m, r)).scale(Fraction(1, r)) - (
                hyper_sum_poly(m + 1, r).scale(Fraction(1, r))
            )
            assert lhs == rhs, (m, r)


def test_centered_recurrence():
    # (m+r) S(m, r) = m (n+r/2) S(m-1, r) - r sum C(m,k) B_{m-k} S(k, r)
    for m in range(2, 9):
        for r in range(0, 5):
            lhs = hyper_sum_poly(m, r).scale(m + r)
            rhs = (RatPoly([Fraction(r, 2), 1]) * hyper_sum_poly(m - 1, r)).scale(m)
            for k in range(1, m - 1):
                rhs = rhs - hyper_sum_poly(k, r).scale(
                    Fraction(r) * comb(m, k) * bernoulli(m - k)
                )
            assert lhs == rhs, (m, r)


def test_half_step_recurrence():
    # m S(m-1, r+1) = S(m, r) + (m/2) S(m-1, r) + sum C(m,k) B_{m-k} S(k, r)
    for m in range(2, 9):
        for r in range(0, 5):
            lhs = hyper_sum_poly(m - 1, r + 1).scale(m)
            rhs = hyper_sum_poly(m, r) + hyper_sum_poly(m - 1, r).scale(Fraction(m, 2))
            for k in range(1, m - 1):
                rhs = rhs + hyper_sum_poly(k, r).scale(Fraction(comb(m, k)) * bernoulli(m - k))
            assert lhs == rhs, (m, r)


def test_weighted_sum_identity_numeric():
    # sum_{j=1}^{n} j S(m, r-1, j) = (n+1) S(m, r, n) - S(m, r+1, n)
    for m in range(0, 6):
        for r in range(1, 5):
            for n in range(0, 13):
                left = sum(j * hyper_sum_bruteforce(m, r - 1, j) for j in range(1, n + 1))
                right = (n + 1) * hyper_sum_bruteforce(m, r, n) - hyper_sum_bruteforce(
                    m, r + 1, n
                )
                assert left == right, (m, r, n)


def test_centered_factor_structure_full_grid():
    # r = 1..6, m = 1..12: parity, coefficient count, alternation, positivity
    for r in range(1, 7):
        for m in range(1, 13):
            form = faulhaber_det(m, r)
            assert form.parity() == ("even" if m % 2 == 1 else "odd"), (m, r)
            g = form.coeffs[form.degree % 2 :: 2]
            assert len(g) == (m + 1) // 2
            assert all(c != 0 for c in g), (m, r)
            assert g[-1] > 0
            assert all(a * b < 0 for a, b in zip(g, g[1:])), (m, r)


def test_weights_equal_shifted_stirling():
    # q_{r,i}(n) = [r+n+1, i+n+1] with the n+1 smallest elements marked
    for r in range(0, 7):
        for i in range(0, r + 1):
            for n in range(0, 9):
                assert q_poly(r, i).eval(n) == r_stirling1(r + n + 1, i + n + 1, n + 1)


def test_leading_coefficient_all_orders():
    for m in range(0, 9):
        for r in range(1, 6):
            assert hyper_sum_poly(m, r).coefficient(m + r) == Fraction(
                factorial(m), factorial(m + r)
            )
