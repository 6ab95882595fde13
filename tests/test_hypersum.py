"""Route-level tests; the defining recursion is the value oracle throughout."""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersums import exactnum, hessenberg, hypersum
from hypersums.exactnum import CrossCheckError, DomainError, bernoulli
from hypersums.hypersum import (
    ROUTES,
    coffey_residual,
    faulhaber_det,
    faulhaber_r1,
    hyper_sum_bruteforce,
    hyper_sum_det,
    hyper_sum_poly,
    hyper_sum_poly_c,
    hyper_sum_poly_chain,
    hyper_sum_poly_q,
    lemma_recurrence_family,
    power_sum_poly,
    q_poly,
    value_table,
)
from hypersums.newton import (
    faulhaber_u_form,
    hyper_sum_newton,
    newton_factor,
    newton_weights,
    s1_poly,
)
from hypersums.polyring import RatPoly, monomial
from hypersums.verify import run_all


def g_coeffs(p):
    """Coefficients of the powers of N with the parity of the degree, ascending."""
    return p.coeffs[p.degree % 2 :: 2]


def s2_display(r: int, n: int) -> Fraction:
    """S(2, r, n) = (2n+r)/(r+2) * C(n+r, r+1), the paper's m = 2 display."""
    return Fraction(2 * n + r, r + 2) * comb(n + r, r + 1)


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


def test_bruteforce_reads_the_value_table_rows():
    for m in range(7):
        rows = list(value_table(m, 5, 12))
        assert len(rows) == 6
        for r, row in enumerate(rows):
            assert row == [hyper_sum_bruteforce(m, r, n) for n in range(13)], (m, r)
            assert row == [hyper_sum_newton(m, r, n) for n in range(13)], (m, r)


# -- closed forms ----------------------------------------------------------------


@pytest.mark.parametrize("r", range(6))
def test_s1_poly_matches_binomial(r):
    # S(1, r, n) = C(n+r, r+1), the paper's m = 1 display
    for n in range(10):
        assert s1_poly(r).eval(n) == comb(n + r, r + 1) == hyper_sum_bruteforce(1, r, n)


# -- power sums -------------------------------------------------------------------


def test_power_sum_poly_small():
    assert power_sum_poly(0) == RatPoly([0, 1])
    assert power_sum_poly(1) == RatPoly([0, Fraction(1, 2), Fraction(1, 2)])
    assert power_sum_poly(3) == RatPoly([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])


def test_power_sum_poly_matches_recursion():
    for m in range(9):
        p = power_sum_poly(m)
        for n in range(12):
            assert p.eval(n) == hyper_sum_bruteforce(m, 1, n)


# -- weight polynomials -------------------------------------------------------------


def test_q_poly_base_cases():
    assert q_poly(0, 0) == RatPoly([1])
    for r in range(1, 6):
        assert q_poly(r, r) == RatPoly([1])


def test_q_poly_row_oracle():
    # row [3, .] of the first-kind triangle is (0, 2, 3, 1)
    assert q_poly(2, 0) == RatPoly([2, 3, 1])
    assert q_poly(2, 1) == RatPoly([3, 2])


# -- the five polynomial routes ------------------------------------------------------


def test_linear_coefficient_reduction():
    # criterion 6 of the acceptance gate checks m <= 6, r <= 4; here the determinant route,
    # the fastest full build, at (200, 200)
    assert coeff_c_reduced_k1(200, 200) == hyper_sum_det(200, 200).poly.coefficient(1)


def coeff_c_reduced_k1(m: int, r: int) -> Fraction:
    """The collapsed single-sum form of the linear coefficient.

    c^1 = ((-1)^m / (r-1)!) sum_{i=0}^{r-1} [r, i+1] B_{m+i}, summed over the
    Bernoulli numbers themselves, not the Bernoulli polynomial rows that
    :func:`hyper_sum_poly_c` reads.
    """
    row = exactnum.stirling1_row(r)
    total = sum(row[i + 1] * bernoulli(m + i) for i in range(r))
    return total * Fraction((-1) ** m, factorial(r - 1))


def explicit_coefficient(m: int, r: int, k: int) -> Fraction:
    """c^k of S(m, r) by the paper's double sum, term by term in Fractions:
    ((-1)^(m+1-k) / (r-1)!) sum_{i<r} sum_{j<r-i} (-1)^j C(i+j, i) [r, i+j+1]
    C(m+i+1, k-j) B_{m+i+1-k+j} / (m+i+1), over 1 <= k-j <= m+i+1."""
    total = Fraction(0)
    for i in range(r):
        for j in range(max(0, k - m - i - 1), min(r - i, k)):
            weight = (-1) ** j * comb(i + j, i) * exactnum.stirling1_unsigned(r, i + j + 1)
            total += weight * comb(m + i + 1, k - j) * bernoulli(m + i + 1 - k + j) / (m + i + 1)
    return total * (-1) ** (m + 1 + k) / factorial(r - 1)  # the sign of (-1)^(m+1-k)


def test_the_c_route_is_the_explicit_coefficient_formula_at_every_k():
    # the formula sums the products for x^k alone; the route multiplies the polynomials out
    cells = [(m, r) for m in range(0, 13) for r in range(1, 7)] + [(60, 30)]
    for m, r in cells:
        route = hyper_sum_poly_c(m, r).poly
        for k in range(1, m + r + 1):
            assert explicit_coefficient(m, r, k) == route.coefficient(k), (m, r, k)


def test_chain_reproduces_explicit_coefficients():
    lifted = hyper_sum_poly_chain(2, 4).poly
    explicit = hyper_sum_poly_c(2, 4).poly
    for k in range(1, 7):
        assert lifted.coefficient(k) == explicit.coefficient(k)


def test_lemma_family_members():
    for r in range(0, 5):
        family = lemma_recurrence_family(8, r)
        assert [h.m for h in family] == list(range(1, 9))
        for n in range(1, 11):
            assert family[1].poly.eval(n) == s2_display(r, n) == hyper_sum_bruteforce(2, r, n)
    assert lemma_recurrence_family(3, 2)[2].poly.eval(2) == 1 + 9 == 10
    for m in range(1, 9):
        assert lemma_recurrence_family(8, 0)[m - 1].poly == monomial(m)


def test_lemma_family_is_a_sequence_of_its_members():
    expected = [hyper_sum_det(m, 3) for m in range(1, 6)]
    family = lemma_recurrence_family(5, 3)
    assert len(family) == 5
    assert list(family) == expected
    assert [h.m for h in family] == [1, 2, 3, 4, 5]
    assert family[-1] == family[4] == expected[4]
    assert family[-5] == expected[0]
    for k in (5, -6):
        with pytest.raises(IndexError):
            family[k]


# the smallest (m, r) each route accepts, as documented; the route itself refuses below it
ROUTE_DOMAIN = {
    "q": (0, 1),
    "c": (0, 1),
    "chain": (0, 1),
    "lemma": (1, 0),
    "det": (1, 0),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_domain_matches_route(name):
    assert set(ROUTE_DOMAIN) == set(ROUTES)
    m_min, r_min = ROUTE_DOMAIN[name]
    for m in range(-2, 4):
        for r in range(-2, 4):
            if m >= m_min and r >= r_min:
                p = ROUTES[name](m, r).poly
                for n in range(8):
                    assert p.eval(n) == hyper_sum_bruteforce(m, r, n), (name, m, r, n)
            else:
                with pytest.raises(DomainError):
                    ROUTES[name](m, r)


# the library's guards below each domain, called directly, with the words each refuses
# with: the CLI admits only m, r, n >= 0 and never reaches them, and it maps a DomainError
# alone to exit 2; any other error, or a polynomial, here is a leak
BELOW_THE_DOMAIN = {
    "table at m=-1": (lambda: list(value_table(-1, 0, 0)), "need m, r, n >= 0, got (-1, 0, 0)"),
    "table at r=-1": (lambda: list(value_table(0, -1, 0)), "need m, r, n >= 0, got (0, -1, 0)"),
    "table at n=-1": (lambda: list(value_table(0, 0, -1)), "need m, r, n >= 0, got (0, 0, -1)"),
    "newton at m=-1": (lambda: hyper_sum_newton(-1, 0, 0), "need m, r, n >= 0, got (-1, 0, 0)"),
    "newton at r=-1": (lambda: hyper_sum_newton(0, -1, 0), "need m, r, n >= 0, got (0, -1, 0)"),
    "newton at n=-1": (lambda: hyper_sum_newton(0, 0, -1), "need m, r, n >= 0, got (0, 0, -1)"),
    "q weight at i=r+1": (lambda: q_poly(2, 3), "need 0 <= i <= r, got (r=2, i=3)"),
    "q weight at i=-1": (lambda: q_poly(2, -1), "need 0 <= i <= r, got (r=2, i=-1)"),
    "c at m=-1": (lambda: hyper_sum_poly_c(-1, 1), "need m >= 0 and r >= 1, got (-1, 1)"),
    "lemma route at r=-1": (lambda: ROUTES["lemma"](2, -1), "need m >= 1 and r >= 0, got (2, -1)"),
    "lemma family at r=-1": (
        lambda: lemma_recurrence_family(3, -1),
        "need m >= 1 and r >= 0, got (3, -1)",
    ),
    "q at r=0": (lambda: hyper_sum_poly_q(2, 0), "the power-sum expansion needs r >= 1, got 0"),
    "chain at r=0": (lambda: hyper_sum_poly_chain(2, 0), "need r >= 1, got 0"),
    "det at m=0": (lambda: hyper_sum_det(0, 2), "need m >= 1, got 0"),
    "newton factor at m=0": (lambda: newton_factor(0, 3), "need m >= 1 and r >= 0, got (0, 3)"),
    "newton factor at r=-1": (lambda: newton_factor(3, -1), "need m >= 1 and r >= 0, got (3, -1)"),
    "u-form at r=0": (lambda: faulhaber_u_form(3, 0), "need m >= 1 and r >= 1, got (3, 0)"),
    # the determinant's guard: the power sum in N = n + 1/2 has none of its own
    "half-shifted sum at m=0": (lambda: faulhaber_r1(0), "need m >= 1, got 0"),
    "half-shifted sum at m=-1": (lambda: faulhaber_r1(-1), "need m >= 1, got -1"),
    "parity-split lift at e=0": (lambda: coffey_residual(0, 1), "need e >= 1, got 0"),
    "parity-split lift at e=-1": (lambda: coffey_residual(-1, 1), "need e >= 1, got -1"),
}


@pytest.mark.parametrize("call, words", BELOW_THE_DOMAIN.values(), ids=BELOW_THE_DOMAIN)
def test_below_the_domain_is_a_domain_error(call, words):
    with pytest.raises(DomainError, match=f"^{re.escape(words)}$"):
        call()


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


def test_hyper_sum_newton_matches_the_reference_oracle():
    for m in range(1, 13):
        for r in range(9):
            for n in (*range(12), 97, 10**6 + 3, 10**15 + 1):
                got = hyper_sum_newton(m, r, n)
                assert type(got) is int
                assert got == newton_oracle(m, r, n), (m, r, n)
    m, r, n = 60, 30, 10**12 + 39
    assert hyper_sum_newton(m, r, n) == newton_oracle(m, r, n)


def test_hyper_sum_newton_at_m_0_and_small_n():
    for m in range(7):
        for r in range(6):
            for n in range(10):
                assert hyper_sum_newton(m, r, n) == hyper_sum_bruteforce(m, r, n), (m, r, n)
    assert hyper_sum_newton(0, 0, 10**20) == 1
    assert hyper_sum_newton(0, 3, 10**6) == comb(10**6 + 2, 3)


@pytest.mark.parametrize("m, r", [(58, 29), (60, 30), (120, 100)])
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


# m, r >= 1 with m + r <= 60
cells = st.integers(1, 59).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 60 - m)))


@settings(deadline=None, max_examples=100)
@given(cells)
def test_every_route_is_the_newton_sum_as_a_polynomial(cell):
    # degree <= m + r and agreement at the m + r + 1 points n = 0..m+r fix the polynomial
    m, r = cell
    values = [hyper_sum_newton(m, r, n) for n in range(m + r + 1)]
    for name, route in ROUTES.items():
        p = route(m, r).poly
        assert len(p.numerators) <= m + r + 1, name
        assert p.first_mismatch(values) is None, name


# sha256 per route of repr((m, r, numerators, denominator)) for each cell of DIGEST_CELLS in
# the route's domain, in order: a change to any one coefficient of any route fails
DIGEST_CELLS = [(m, r) for m in range(25) for r in range(13)] + [(58, 29), (60, 30)]
ROUTE_DIGESTS = {
    "q": "bcb49f52ec3e8e10fe7e1da61a55f8ae402eeef292f4396ed43a1d1b120e916b",
    "c": "bcb49f52ec3e8e10fe7e1da61a55f8ae402eeef292f4396ed43a1d1b120e916b",
    "chain": "bcb49f52ec3e8e10fe7e1da61a55f8ae402eeef292f4396ed43a1d1b120e916b",
    "lemma": "cf70693795e22b4dc5d404ebb73fe62a98335b0399b5ff06b1401751b2582a91",
    "det": "cf70693795e22b4dc5d404ebb73fe62a98335b0399b5ff06b1401751b2582a91",
}


@pytest.mark.parametrize("name", ROUTES)
def test_the_route_polynomials_are_unchanged(name):
    m_min, r_min = ROUTE_DOMAIN[name]
    digest = hashlib.sha256()
    for m, r in DIGEST_CELLS:
        if m >= m_min and r >= r_min:
            p = ROUTES[name](m, r).poly
            digest.update(repr((m, r, p.numerators, p.denominator)).encode())
    assert digest.hexdigest() == ROUTE_DIGESTS[name]


# B_3 enters S(m, r) through the power sums from m = 4 on (q, c, chain) and through the
# recurrences and the matrix (lemma, det), B_5 from m = 6 on; a route that skips the odd
# indices instead of the zero values misses the change
@pytest.mark.parametrize("j, value, m_min", [(3, Fraction(1, 7), 4), (5, Fraction(1, 11), 6)])
def test_a_corrupted_odd_index_bernoulli_number_reaches_every_route(
    corrupt_bernoulli, j, value, m_min
):
    cells = [(m, r) for m in range(m_min, 13) for r in (1, 3, 6)]
    good = {(name, m, r): route(m, r).poly for name, route in ROUTES.items() for m, r in cells}
    with corrupt_bernoulli(j, value):
        changed = [key for key, p in good.items() if ROUTES[key[0]](*key[1:]).poly != p]
        assert not run_all(8, 4, 10).passed
    assert changed == list(good)


def test_a_wrong_bernoulli_row_entry_fails_the_recursion_check_of_every_route(monkeypatch):
    # Bernoulli row 6 is read by the power sum S_5 (q, chain), by P_i at m + i + 1 = 6 (c),
    # by the centered recurrence at m = 6 (lemma) and by Hessenberg row 5 (det).  q, c and
    # chain read the wrong C(6, 2) B_4 alike and still agree with one another, so route
    # agreement cannot guard the shared row; the recursion table does, for every route
    original = exactnum.bernoulli_row

    def wrong(n: int) -> tuple[tuple[int, ...], int]:
        row, den = original(n)
        return ((*row[:2], row[2] + den, *row[3:]) if n == 6 else row), den

    for module in (exactnum, hypersum, hessenberg):
        assert module.bernoulli_row is original
        monkeypatch.setattr(module, "bernoulli_row", wrong)
    exactnum.clear_derived_caches()
    try:
        failed = {c.name for c in run_all(8, 4, 10).failures}
    finally:
        monkeypatch.undo()
        exactnum.clear_derived_caches()
    assert {f"eval-vs-recursion[{name}]" for name in ROUTES} <= failed


# -- determinant route ----------------------------------------------------------------


def test_hyper_sum_det_cubic_display():
    for r in range(1, 6):
        expected = (s1_poly(r) * RatPoly([r * (r - 1), 6 * r, 6])).scale(
            Fraction(1, (r + 2) * (r + 3))
        )
        assert hyper_sum_det(3, r).poly == expected


def test_faulhaber_det_r0_is_pure_power():
    for m in range(1, 9):
        assert faulhaber_det(m, 0) == monomial(m - 1, 1, "N", 0)


# -- the Newton factor ---------------------------------------------------------------


def test_newton_factor_seed():
    for r in range(0, 6):
        assert newton_factor(1, r) == RatPoly([1], "N", r)
        assert newton_factor(2, r) == RatPoly([0, Fraction(2, r + 2)], "N", r)


def test_the_paper_s_theorem_at_every_r_by_the_newton_factor():
    # S(m, r, n) = S(1, r, n) G(n + r/2) with G of the parity of m - 1: the Newton G
    # reads no Bernoulli number and equals the determinant's at every r, not only r >= 1
    for m, r in [(m, r) for m in range(1, 31) for r in range(m)] + [(200, 200)]:
        g = newton_factor(m, r)
        assert g == faulhaber_det(m, r), (m, r)
        assert g.degree == m - 1 and g.parity() == ("odd" if m % 2 == 0 else "even"), (m, r)


def test_newton_weights_are_proved_before_they_are_returned(wrong_newton_weight):
    assert [newton_weights(m) for m in range(4)] == [(1,), (0, 1), (0, 1, 2), (0, 1, 6, 6)]
    with pytest.raises(CrossCheckError):
        newton_weights(4)
    # the factor reads the proved weights, so the wrong row raises there too
    with pytest.raises(CrossCheckError):
        newton_factor(4, 2)


def test_every_reader_of_a_wrong_newton_weight_raises(request):
    cells = [(m, r) for m in (1, 2, 3, 5) for r in range(3)]

    def reads() -> tuple:
        values = [[hyper_sum_newton(m, r, n) for n in range(8)] for m, r in cells]
        factors = [newton_factor(m, r) for m, r in cells]
        return values, factors, [faulhaber_u_form(m, 1) for m in (3, 5)]

    clean = reads()
    request.getfixturevalue("wrong_newton_weight")
    for r in range(3):
        for n in range(8):  # n = 0 and n = 1 read no weight past k = 1, and still raise
            with pytest.raises(CrossCheckError):
                hyper_sum_newton(4, r, n)
        with pytest.raises(CrossCheckError):
            newton_factor(4, r)
    with pytest.raises(CrossCheckError):
        faulhaber_u_form(4, 1)
    assert reads() == clean


def test_top_coefficient_relation_at_r10():
    g8 = g_coeffs(newton_factor(8, 10))
    g9 = g_coeffs(newton_factor(9, 10))
    assert g9[4] == Fraction(9, 19) * g8[3]


def test_the_lower_coefficient_relations_at_r10():
    # the paper's relations tying G(9, 10) to G(1..8, 10) below the top one, read from the
    # determinant as verify's golden_fixtures reads them
    g = {m: g_coeffs(faulhaber_det(m, 10)) for m in (1, 3, 5, 7, 8, 9)}
    w = {k: Fraction(k, 19) for k in (3, 9, 20, 42, 60)}
    assert g[9][0] == w[3] * g[1][0] - w[20] * g[3][0] + w[42] * g[5][0] - w[60] * g[7][0]
    assert g[9][1] == w[9] * g[8][0] - w[20] * g[3][1] + w[42] * g[5][1] - w[60] * g[7][1]
    assert g[9][2] == w[9] * g[8][1] + w[42] * g[5][2] - w[60] * g[7][2]
    assert g[9][3] == w[9] * g[8][2] - w[60] * g[7][3]


def test_g_coeffs_layout():
    assert g_coeffs(RatPoly([7, 0, -35, 0, 1], "N", 7)) == (7, -35, 1)
    assert g_coeffs(RatPoly([0, 6419, 0, -49, 0, 2], "N", 7)) == (6419, -49, 2)


# -- u-form ------------------------------------------------------------------------------


def test_u_form_cubic():
    f, tag = faulhaber_u_form(3, 1)
    assert tag == "s1"
    assert f == RatPoly([0, Fraction(1, 2)], "u", 1)


def test_u_form_base_even():
    for r in range(1, 5):
        f, tag = faulhaber_u_form(2, r)
        assert tag == "s2"
        assert f == RatPoly([1], "u", r)


def test_u_form_5_7_matches_recursion():
    f, tag = faulhaber_u_form(5, 7)
    assert tag == "s1" and f.degree == 2
    for n in range(0, 7):
        assert comb(n + 7, 8) * f.eval(n * (n + 7)) == hyper_sum_bruteforce(5, 7, n)


def test_u_form_even_uses_s2_prefactor():
    f, tag = faulhaber_u_form(6, 5)
    assert tag == "s2"
    for n in range(0, 7):
        assert s2_display(5, n) * f.eval(n * (n + 5)) == hyper_sum_bruteforce(6, 5, n)


def test_u_form_refuses_a_centered_factor_that_is_not_odd(newton_factor_without_parity):
    # the even-m factor G(4, 1) gains a constant term, and the odd-m factor G(5, 1) an odd
    # power of N
    newton_factor_without_parity()
    for m in (4, 5):
        with pytest.raises(CrossCheckError):
            faulhaber_u_form(m, 1)


# -- half-shifted power sums ---------------------------------------------------------------


def test_faulhaber_r1_equals_shifted_bernoulli_form():
    for m in range(1, 11):
        shifted = power_sum_poly(m).shift(Fraction(-1, 2))
        assert faulhaber_r1(m).coeffs == shifted.coeffs


def test_faulhaber_r1_f_coeffs_alternate():
    for m in range(1, 11):
        f = g_coeffs(faulhaber_r1(m))
        assert len(f) == (m + 1) // 2 + 1
        assert all(c != 0 for c in f)
        assert all(a * b < 0 for a, b in zip(f, f[1:]))


def test_faulhaber_r1_reuses_the_cached_determinant(monkeypatch):
    faulhaber_det(9, 1)
    calls = []
    real_row = hessenberg.bernoulli_row
    monkeypatch.setattr(hessenberg, "bernoulli_row", lambda n: calls.append(n) or real_row(n))
    assert faulhaber_r1(9).coeffs == power_sum_poly(9).shift(Fraction(-1, 2)).coeffs
    # the minor of order 8 at r = 1 is read from the table: no minor step runs again
    assert calls == []


# -- parity-split lifts -----------------------------------------------------------------


def test_quintic_difference_alternative_factoring():
    # criterion 3's difference S(5, 4, n) - (1/2) S(5, 3, n), bracket in powers of n(n+3)
    lhs = hyper_sum_poly(5, 4) - hyper_sum_poly(5, 3).scale(Fraction(1, 2))
    prefactor = (
        RatPoly([0, 1]) * RatPoly([1, 1]) * RatPoly([2, 1]) * RatPoly([3, 1]) * RatPoly([3, 2])
    )
    u = RatPoly([0, 3, 1])  # n(n+3)
    bracket = (u * u).scale(Fraction(5, 126)) + u.scale(Fraction(10, 63)) + RatPoly(
        [Fraction(-17, 63)]
    )
    assert lhs == (prefactor * bracket).scale(Fraction(1, 240))


# -- provider and structural invariants ------------------------------------------------------


def test_provider_covers_r0():
    assert hyper_sum_poly(3, 0) == monomial(3)
    assert hyper_sum_poly(0, 0) == RatPoly([1])


def test_hyper_sum_poly_structure():
    for m in range(0, 7):
        for r in range(1, 5):
            p = hyper_sum_poly(m, r)
            assert p.coefficient(0) == 0
            assert p.degree == m + r
