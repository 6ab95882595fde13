"""Polynomial ring: exactness, frame discipline, and conversions."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from hypersums.hypersum import hyper_sum_bruteforce
from hypersums.polyring import (
    RatPoly,
    monomial,
    poly_to_json,
    to_latex,
    to_n_frame,
    to_N_frame,
    to_text,
    to_u_form,
)

G57 = RatPoly([Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7)
G67 = RatPoly([0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7)


def random_poly(rng: random.Random, var: str = "n", r: int = 0, deg: int = 4) -> RatPoly:
    return RatPoly(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, deg + 1))],
        var,
        r,
    )


# -- arithmetic ------------------------------------------------------------------


def test_mul_hand_expansion():
    assert RatPoly([1, 2], "N", 1) * RatPoly([0, 3], "N", 1) == RatPoly([0, 3, 6], "N", 1)


def test_additive_identity():
    p = RatPoly([1, 0, 7])
    assert p + RatPoly(()) == p


def test_difference_of_squares():
    assert RatPoly([-1, 0, 1]) * RatPoly([1, 0, 1]) == RatPoly([-1, 0, 0, 0, 1])


def test_frame_mixing_rejected():
    with pytest.raises(ValueError, match=r"frame mismatch: n\[r=0\] vs N\[r=2\]"):
        RatPoly([1], "n") + RatPoly([1], "N", 2)
    with pytest.raises(ValueError, match=r"frame mismatch: N\[r=2\] vs N\[r=3\]"):
        RatPoly([1], "N", 2) * RatPoly([1], "N", 3)
    with pytest.raises(ValueError, match=r"frame mismatch: u\[r=1\] vs N\[r=1\]"):
        RatPoly([1], "u", 1) - RatPoly([1], "N", 1)


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "1/2", Decimal("0.5")])
def test_coefficients_and_scale_factors_are_int_or_fraction(bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for build in (
        lambda: RatPoly([1, bad]),
        lambda: RatPoly((bad,)),
        lambda: monomial(2, bad, "N", 3),
        lambda: RatPoly((bad,), "u", 1),
        lambda: RatPoly([1, 2]).scale(bad),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "1/2", "3"])
def test_shifts_and_evaluation_points_are_int_or_fraction(bad):
    # Fraction(0.1) would shift by 3602879701896397/36028797018963968, not 1/10
    p = RatPoly([0, 1])
    with pytest.raises(TypeError, match="a shift must be int or Fraction"):
        p.shift(bad)
    for q in (p, RatPoly([])):
        with pytest.raises(TypeError, match="an evaluation point must be int or Fraction"):
            q.eval(bad)
    assert p.shift(Fraction(1, 10)) == RatPoly([Fraction(1, 10), 1])
    assert p.eval(Fraction(1, 2)) == Fraction(1, 2)


def test_trailing_zeros_trimmed_and_degree():
    p = RatPoly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert RatPoly(()).degree is None
    assert RatPoly(()).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero() and not b.is_zero():
            assert (a * b).degree == a.degree + b.degree


# -- evaluation ------------------------------------------------------------------


def test_eval_simple():
    assert RatPoly([0, 1, 1]).eval(3) == 12
    assert RatPoly(()).eval(Fraction(7, 3)) == 0


def test_eval_centered_factor_matches_recursion():
    # value of the (5, 7) centered factor at n = 5, i.e. N = 17/2
    expected = Fraction(hyper_sum_bruteforce(5, 7, 5), comb(12, 8))
    assert G57.eval(Fraction(17, 2)) == expected


# -- shift ------------------------------------------------------------------------


def test_shift_binomial_expansion():
    assert monomial(2).shift(1) == RatPoly([1, 2, 1])
    p = RatPoly([3, -2, 1])
    assert p.shift(0) == p


def test_shift_half_integer():
    # (n + 1/2)^2 - 1/4 = n^2 + n
    p = RatPoly([Fraction(-1, 4), 0, 1])
    assert p.shift(Fraction(1, 2)) == RatPoly([0, 1, 1])


def test_shift_round_trip_and_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert p.shift(c).shift(-c) == p
        assert (p * q).shift(c) == p.shift(c) * q.shift(c)


def test_frame_conversions_round_trip():
    rng = random.Random(13)
    for r in (0, 1, 4, 7):
        for _ in range(10):
            p = random_poly(rng)
            assert to_n_frame(to_N_frame(p, r)) == p


# -- parity ------------------------------------------------------------------------


def test_parity_examples():
    assert G57.parity() == "even"
    assert G67.parity() == "odd"
    assert RatPoly([0, 1, 1], "N", 1).parity() == "neither"
    assert RatPoly(()).parity() == "even"


# -- u-form -----------------------------------------------------------------------


def test_to_u_form_identity():
    # N^2 - 1/4 with r = 1 is exactly u = n(n+1)
    p = RatPoly([Fraction(-1, 4), 0, 1], "N", 1)
    assert to_u_form(p) == RatPoly([0, 1], "u", 1)
    assert to_u_form(RatPoly((5,), "N", 3)) == RatPoly((5,), "u", 3)


def test_to_u_form_centered_factor():
    f = to_u_form(G57)
    assert f.degree == 2
    # S(1, 7, n) * f(n(n+7)) == S(5, 7, n)
    for n in range(1, 6):
        assert comb(n + 7, 8) * f.eval(n * (n + 7)) == hyper_sum_bruteforce(5, 7, n)


def test_u_form_round_trip():
    """F(u) at u = N^2 - r^2/4 equals the even polynomial at N."""
    rng = random.Random(17)
    for r in (0, 2, 5):
        for _ in range(20):
            even = RatPoly(
                [Fraction(rng.randint(-4, 4)) for _ in range(4)], "N", r
            )
            even = RatPoly(
                [c if i % 2 == 0 else 0 for i, c in enumerate(even.coeffs)], "N", r
            )
            u_form = to_u_form(even)
            for big_n in (Fraction(0), Fraction(3), Fraction(-5, 2), Fraction(7, 3)):
                assert u_form.eval(big_n * big_n - Fraction(r * r, 4)) == even.eval(big_n)


def test_to_u_form_rejects_non_even():
    with pytest.raises(ValueError):
        to_u_form(RatPoly([0, 1], "N", 2))
    with pytest.raises(ValueError):
        to_u_form(RatPoly([1, 0, 1]))  # n-frame


# -- rendering ---------------------------------------------------------------------


def test_text_rendering():
    assert to_text(G57) == "1/99*N^4 - 35/198*N^2 + 7/16"
    assert to_text(RatPoly(())) == "0"
    assert to_text(RatPoly([0, -2], "N", 7)) == "-2*N"


def test_latex_rendering():
    assert to_latex(G57) == (
        "\\frac{N_{7}^{4}}{99} - \\frac{35 N_{7}^{2}}{198} + \\frac{7}{16}"
    )
    assert to_latex(RatPoly(())) == "0"
    assert to_latex(RatPoly([Fraction(1, 2), 1])) == "n + \\frac{1}{2}"


@pytest.mark.parametrize("field", ["numerators", "denominator", "var", "r"])
def test_a_polynomial_is_immutable(field):
    # a cached polynomial is shared by every reader, so no field can be assigned or deleted
    with pytest.raises(AttributeError, match="immutable"):
        setattr(G57, field, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(G57, field)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "2", Fraction(2), None])
def test_frame_r_must_be_an_int(bad):
    with pytest.raises(TypeError):
        RatPoly((1, 2), "N", bad)
    with pytest.raises(TypeError):
        RatPoly.from_integers((1, 2), 1, "u", bad)
    with pytest.raises(TypeError):
        to_N_frame(RatPoly([1, 2]), bad)


@pytest.mark.parametrize("var", ["N", "u"])
def test_frame_r_must_be_non_negative(var):
    with pytest.raises(ValueError):
        RatPoly((1, 2), var, -3)
    with pytest.raises(ValueError):
        to_N_frame(RatPoly([1, 2]), -3)


@pytest.mark.parametrize(
    "p",
    [G57, G67, RatPoly([Fraction(-1, 2), 3], "u", 1), RatPoly(())],
    ids=["G57", "G67", "u-frame", "zero"],
)
def test_json_holds_the_frame_and_every_coefficient(p):
    blob = poly_to_json(p)
    assert set(blob) == {"var", "r", "coeffs"}
    assert (blob["var"], blob["r"]) == (p.var, p.r)
    coeffs = [Fraction(int(num), int(den)) for num, den in blob["coeffs"]]
    assert coeffs == list(p.coeffs)
    assert RatPoly(coeffs, blob["var"], blob["r"]) == p


def test_json_round_trip():
    assert poly_to_json(G57) == {
        "var": "N",
        "r": 7,
        "coeffs": [["7", "16"], ["0", "1"], ["-35", "198"], ["0", "1"], ["1", "99"]],
    }
