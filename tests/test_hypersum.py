"""Route-level tests; the defining recursion is the value oracle throughout."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest

from hypersums import hessenberg
from hypersums.hypersum import (
    ROUTE_DOMAIN,
    ROUTES,
    coeff_c,
    coeff_c_reduced_k1,
    coeff_recurrence_step,
    coffey_residual,
    faulhaber_det,
    faulhaber_r1,
    faulhaber_rec,
    faulhaber_u_form,
    hyper_sum_bruteforce,
    hyper_sum_det,
    hyper_sum_poly,
    hyper_sum_poly_c,
    hyper_sum_poly_chain,
    hyper_sum_poly_q,
    lemma_recurrence_family,
    power_sum_poly,
    q_poly,
    s1_closed,
    s1_poly,
    s2_closed,
    stirling_product_form,
)
from hypersums.polyring import monomial, poly, to_n_frame

# -- defining recursion -------------------------------------------------------


def test_bruteforce_examples():
    assert hyper_sum_bruteforce(1, 2, 3) == 1 + 3 + 6 == comb(5, 3) == 10
    assert hyper_sum_bruteforce(3, 1, 3) == 1 + 8 + 27 == 36
    for m in range(4):
        for n in range(5):
            assert hyper_sum_bruteforce(m, 0, n) == n**m
    assert hyper_sum_bruteforce(0, 0, 0) == 1  # 0^0 convention
    for r in range(1, 4):
        assert hyper_sum_bruteforce(5, r, 0) == 0
    with pytest.raises(ValueError):
        hyper_sum_bruteforce(1, -1, 2)


def test_value_one_at_n_1():
    for m in range(6):
        for r in range(6):
            assert hyper_sum_bruteforce(m, r, 1) == 1


# -- closed forms ----------------------------------------------------------------


def test_s1_closed():
    assert s1_closed(2, 3) == hyper_sum_bruteforce(1, 2, 3) == 10
    assert s1_closed(5, 0) == 0
    assert s1_closed(1, 4) == 10


def test_s2_closed():
    assert s2_closed(1, 3) == 14
    assert s2_closed(2, 3) == hyper_sum_bruteforce(2, 2, 3) == 20
    assert s2_closed(4, 0) == 0


def test_s1_poly_matches_binomial():
    for r in range(6):
        for n in range(10):
            assert s1_poly(r).eval(n) == comb(n + r, r + 1)


# -- power sums -------------------------------------------------------------------


def test_power_sum_poly_small():
    assert power_sum_poly(0) == poly([0, 1])
    assert power_sum_poly(1) == poly([0, Fraction(1, 2), Fraction(1, 2)])
    assert power_sum_poly(3) == poly([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])


def test_power_sum_poly_matches_recursion():
    for m in range(9):
        p = power_sum_poly(m)
        for n in range(12):
            assert p.eval(n) == hyper_sum_bruteforce(m, 1, n)


# -- weight polynomials -------------------------------------------------------------


def test_q_poly_base_cases():
    assert q_poly(0, 0) == poly([1])
    for r in range(1, 6):
        assert q_poly(r, r) == poly([1])


def test_q_poly_row_oracle():
    # row [3, .] of the first-kind triangle is (0, 2, 3, 1)
    assert q_poly(2, 0) == poly([2, 3, 1])
    assert q_poly(2, 1) == poly([3, 2])


def test_q_poly_rejects_bad_index():
    with pytest.raises(ValueError):
        q_poly(2, 3)
    with pytest.raises(ValueError):
        q_poly(2, -1)


# -- the five polynomial routes ------------------------------------------------------


def test_q_route_r1_is_power_sum():
    for m in range(6):
        assert hyper_sum_poly_q(m, 1).poly == power_sum_poly(m)


def test_q_route_values():
    assert hyper_sum_poly_q(1, 2).poly.eval(3) == 10
    assert hyper_sum_poly_q(2, 2).poly.eval(3) == 20


def test_q_route_rejects_r0():
    with pytest.raises(ValueError):
        hyper_sum_poly_q(2, 0)


def test_coeff_c_leading_values():
    for m in range(0, 7):
        for r in range(1, 5):
            assert coeff_c(m, r, m + r) == Fraction(factorial(m), factorial(m + r))
        assert coeff_c(m, 1, m + 1) == Fraction(1, m + 1)


def test_coeff_c_linear_reduction():
    for m in range(0, 7):
        for r in range(1, 5):
            assert coeff_c(m, r, 1) == coeff_c_reduced_k1(m, r)


def test_coeff_c_rejects_out_of_range():
    with pytest.raises(ValueError):
        coeff_c(2, 3, 0)
    with pytest.raises(ValueError):
        coeff_c(2, 3, 6)


def test_chain_step_shape_and_value():
    c11 = tuple(power_sum_poly(1).coeffs[1:])
    c21 = tuple(power_sum_poly(2).coeffs[1:])
    lifted = coeff_recurrence_step(c11, c21, 1)
    assert len(lifted) == len(c11) + 1
    assert poly((Fraction(0),) + lifted).eval(3) == 10  # S(1, 2, 3)


def test_chain_step_rejects_length_mismatch():
    with pytest.raises(ValueError):
        coeff_recurrence_step((Fraction(1),), (Fraction(1),), 1)


def test_chain_reproduces_explicit_coefficients():
    lifted = hyper_sum_poly_chain(2, 4).poly
    for k in range(1, 7):
        assert lifted.coefficient(k) == coeff_c(2, 4, k)


def test_lemma_family_members():
    for r in range(0, 5):
        family = lemma_recurrence_family(8, r)
        assert [h.m for h in family] == list(range(1, 9))
        for n in range(1, 11):
            assert family[1].poly.eval(n) == s2_closed(r, n)
    assert lemma_recurrence_family(3, 2)[2].poly.eval(2) == 1 + 9 == 10
    for m in range(1, 9):
        assert lemma_recurrence_family(8, 0)[m - 1].poly == monomial(m)


def test_five_routes_agree_spot():
    routes = [
        hyper_sum_poly_q(4, 3).poly,
        hyper_sum_poly_c(4, 3).poly,
        hyper_sum_poly_chain(4, 3).poly,
        lemma_recurrence_family(4, 3)[3].poly,
        hyper_sum_det(4, 3).poly,
    ]
    assert all(p == routes[0] for p in routes)


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_domain_matches_route(name):
    assert set(ROUTE_DOMAIN) == set(ROUTES)
    m_min, r_min = ROUTE_DOMAIN[name]
    for m in range(4):
        for r in range(4):
            if m >= m_min and r >= r_min:
                p = ROUTES[name](m, r).poly
                for n in range(8):
                    assert p.eval(n) == hyper_sum_bruteforce(m, r, n), (name, m, r, n)
            else:
                with pytest.raises(ValueError):
                    ROUTES[name](m, r)


def stirling2_row(m: int) -> list[int]:
    """({m 0}, ..., {m m}) by the triangle {i, k} = k {i-1, k} + {i-1, k-1}."""
    row = [1]
    for i in range(1, m + 1):
        row = [(k * row[k] if k < i else 0) + (row[k - 1] if k else 0) for k in range(i + 1)]
    return row


def newton_oracle(m: int, r: int, n: int) -> int:
    """S(m, r, n) = sum_{k=1}^{m} k! {m k} C(n+r, k+r) for m >= 1, in integers only.

    n^m = sum_k {m k} k! C(n, k) summed r times by the hockey-stick identity.
    """
    row = stirling2_row(m)
    return sum(factorial(k) * row[k] * comb(n + r, k + r) for k in range(1, m + 1))


def test_newton_oracle_matches_recursion():
    for m in range(1, 7):
        for r in range(5):
            for n in range(9):
                assert newton_oracle(m, r, n) == hyper_sum_bruteforce(m, r, n), (m, r, n)


@pytest.mark.parametrize("m, r", [(58, 29), (60, 30)])
def test_five_routes_agree_at_high_degree(m, r):
    routes = [
        hyper_sum_poly_q(m, r).poly,
        hyper_sum_poly_c(m, r).poly,
        hyper_sum_poly_chain(m, r).poly,
        lemma_recurrence_family(m, r)[m - 1].poly,
        hyper_sum_det(m, r).poly,
    ]
    assert routes[0].degree == m + r
    assert all(p == routes[0] for p in routes)
    n = 10**12 + 39
    assert routes[0].eval(n) == newton_oracle(m, r, n)


# -- determinant route ----------------------------------------------------------------


def test_hyper_sum_det_cubic_display():
    for r in range(1, 6):
        expected = (s1_poly(r) * poly([r * (r - 1), 6 * r, 6])).scale(
            Fraction(1, (r + 2) * (r + 3))
        )
        assert hyper_sum_det(3, r).poly == expected


def test_hyper_sum_det_factored_displays():
    bracket5 = poly([693, 0, -280, 0, 16], "N", 7)
    assert hyper_sum_det(5, 7).poly == (s1_poly(7) * to_n_frame(bracket5)).scale(
        Fraction(1, 1584)
    )
    bracket6 = poly([0, 6419, 0, -1176, 0, 48], "N", 7)
    assert hyper_sum_det(6, 7).poly == (s1_poly(7) * to_n_frame(bracket6)).scale(
        Fraction(1, 10296)
    )


def test_faulhaber_det_displays():
    assert faulhaber_det(5, 7).poly == poly(
        [Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7
    )
    assert faulhaber_det(6, 7).poly == poly(
        [0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7
    )
    for r in range(5):
        assert faulhaber_det(1, r).poly == poly([1], "N", r)


def test_faulhaber_det_r0_is_pure_power():
    for m in range(1, 9):
        assert faulhaber_det(m, 0).poly == monomial(m - 1, 1, "N", 0)


# -- coefficientwise recurrences -------------------------------------------------------


def test_faulhaber_rec_seed():
    for r in range(0, 6):
        assert faulhaber_rec(2, r).poly == poly([0, Fraction(2, r + 2)], "N", r)


def test_faulhaber_rec_matches_det():
    for r in range(0, 7):
        for m in range(1, 13):
            assert faulhaber_rec(m, r).poly == faulhaber_det(m, r).poly, (m, r)


def test_top_coefficient_relation_at_r10():
    g8 = faulhaber_rec(8, 10).g_coeffs
    g9 = faulhaber_rec(9, 10).g_coeffs
    assert g9[4] == Fraction(9, 19) * g8[3]


def test_g_coeffs_layout():
    g = faulhaber_det(5, 7)
    assert g.g_coeffs == (Fraction(7, 16), Fraction(-35, 198), Fraction(1, 99))
    h = faulhaber_det(6, 7)
    assert h.g_coeffs == (Fraction(6419, 10296), Fraction(-49, 429), Fraction(2, 429))


# -- u-form ------------------------------------------------------------------------------


def test_u_form_cubic():
    f, tag = faulhaber_u_form(3, 1)
    assert tag == "s1"
    assert f == poly([0, Fraction(1, 2)], "u", 1)


def test_u_form_base_even():
    for r in range(1, 5):
        f, tag = faulhaber_u_form(2, r)
        assert tag == "s2"
        assert f == poly([1], "u", r)


def test_u_form_5_7_matches_recursion():
    f, tag = faulhaber_u_form(5, 7)
    assert tag == "s1" and f.degree == 2
    for n in range(0, 7):
        assert comb(n + 7, 8) * f.eval(n * (n + 7)) == hyper_sum_bruteforce(5, 7, n)


def test_u_form_even_uses_s2_prefactor():
    f, tag = faulhaber_u_form(6, 5)
    assert tag == "s2"
    for n in range(0, 7):
        assert s2_closed(5, n) * f.eval(n * (n + 5)) == hyper_sum_bruteforce(6, 5, n)


def test_u_form_rejects_r0():
    with pytest.raises(ValueError):
        faulhaber_u_form(3, 0)


# -- half-shifted power sums ---------------------------------------------------------------


def test_faulhaber_r1_displays():
    assert faulhaber_r1(7).poly == poly(
        [
            Fraction(17, 2048), 0, Fraction(-31, 384), 0,
            Fraction(49, 192), 0, Fraction(-7, 24), 0, Fraction(1, 8),
        ],
        "N",
        1,
    )
    assert faulhaber_r1(8).poly == poly(
        [
            0, Fraction(127, 3840), 0, Fraction(-31, 144), 0,
            Fraction(49, 120), 0, Fraction(-1, 3), 0, Fraction(1, 9),
        ],
        "N",
        1,
    )
    assert faulhaber_r1(1).poly == poly([Fraction(-1, 8), 0, Fraction(1, 2)], "N", 1)


def test_faulhaber_r1_equals_shifted_bernoulli_form():
    for m in range(1, 11):
        shifted = power_sum_poly(m).shift(Fraction(-1, 2))
        assert faulhaber_r1(m).poly.coeffs == shifted.coeffs


def test_faulhaber_r1_f_coeffs_alternate():
    for m in range(1, 11):
        f = faulhaber_r1(m).g_coeffs
        assert len(f) == (m + 1) // 2 + 1
        assert all(c != 0 for c in f)
        assert all(a * b < 0 for a, b in zip(f, f[1:]))


def test_faulhaber_r1_reuses_the_cached_determinant(monkeypatch):
    faulhaber_det(9, 1)
    calls = []
    real_det = hessenberg.det
    monkeypatch.setattr(hessenberg, "det", lambda matrix: calls.append(matrix) or real_det(matrix))
    assert faulhaber_r1(9).poly.coeffs == power_sum_poly(9).shift(Fraction(-1, 2)).coeffs
    assert calls == []


# -- parity-split lifts -----------------------------------------------------------------


def test_coffey_residual_vanishes():
    for m in range(1, 6):
        for r in range(0, 5):
            assert coffey_residual(m, r, "odd").is_zero(), (m, r, "odd")
            assert coffey_residual(m, r, "even").is_zero(), (m, r, "even")


def test_coffey_residual_rejects_bad_parity():
    with pytest.raises(ValueError):
        coffey_residual(2, 1, "both")


def test_quintic_difference_worked_example():
    # S(5, 4, n) - (1/2) S(5, 3, n) in fully factored form
    lhs = hyper_sum_poly(5, 4) - hyper_sum_poly(5, 3).scale(Fraction(1, 2))
    prefactor = poly([0, 1]) * poly([1, 1]) * poly([2, 1]) * poly([3, 1]) * poly([3, 2])
    bracket = (
        monomial(4).shift(Fraction(3, 2)).scale(Fraction(5, 126))
        + monomial(2).shift(Fraction(3, 2)).scale(Fraction(-5, 252))
        + poly([Fraction(-859, 2016)])
    )
    assert lhs == (prefactor * bracket).scale(Fraction(1, 240))
    assert lhs.eval(1) == Fraction(1, 2)  # both summands are 1 at n = 1


def test_quintic_difference_alternative_factoring():
    # same difference, bracket written in powers of n(n+3)
    lhs = hyper_sum_poly(5, 4) - hyper_sum_poly(5, 3).scale(Fraction(1, 2))
    prefactor = poly([0, 1]) * poly([1, 1]) * poly([2, 1]) * poly([3, 1]) * poly([3, 2])
    u = poly([0, 3, 1])  # n(n+3)
    bracket = (u * u).scale(Fraction(5, 126)) + u.scale(Fraction(10, 63)) + poly(
        [Fraction(-17, 63)]
    )
    assert lhs == (prefactor * bracket).scale(Fraction(1, 240))


# -- weighted product form ------------------------------------------------------------------


def test_stirling_product_form_r1():
    left, right = stirling_product_form(4, 1)
    assert left == power_sum_poly(1)
    assert right == faulhaber_det(4, 1).poly


def test_stirling_product_form_value():
    left, right = stirling_product_form(2, 2)
    assert left == power_sum_poly(1) + power_sum_poly(2)
    value = left.eval(3) * right.eval(Fraction(3) + 1)  # N = n + r/2 = 4
    assert value == factorial(2) * hyper_sum_bruteforce(2, 2, 3) == 40


def test_stirling_product_form_symbolic():
    for m in range(1, 5):
        for r in range(1, 5):
            left, right = stirling_product_form(m, r)
            product = left * to_n_frame(right)
            assert product == hyper_sum_poly(m, r).scale(factorial(r)), (m, r)


# -- provider and structural invariants ------------------------------------------------------


def test_provider_covers_r0():
    assert hyper_sum_poly(3, 0) == monomial(3)
    assert hyper_sum_poly(0, 0) == poly([1])


def test_hyper_sum_poly_structure():
    for m in range(0, 7):
        for r in range(1, 5):
            p = hyper_sum_poly(m, r)
            assert p.coefficient(0) == 0
            assert p.degree == m + r
            assert p.leading_coefficient == Fraction(factorial(m), factorial(m + r))
