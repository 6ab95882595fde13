"""Polynomial ring: exactness, frame discipline, and conversions.

The arithmetic and the normal form are held against a naive reference below, which
works coefficient by coefficient on lists of Fractions; ``sum_of_products`` is also
held against the same sum built term by term with ``*`` and ``+``.  What the reference
does not state is tested by example: the refusals of floats and of frames, parity, the
u-form, rendering, immutability, the frame conversions and the JSON form.
"""

from __future__ import annotations

import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersums import polyring
from hypersums.hypersum import hyper_sum_bruteforce
from hypersums.polyring import (
    RatPoly,
    monomial,
    poly_to_json,
    sum_of_products,
    to_latex,
    to_n_frame,
    to_N_frame,
    to_text,
    to_u_form,
)
from conftest import check_poly_blob, spy

G57 = RatPoly([Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7)
G67 = RatPoly([0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7)

FRAMES = (("n", 0), ("N", 0), ("N", 1), ("N", 6), ("u", 2), ("u", 5))

frames = st.sampled_from(FRAMES)
rationals = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
# degree 0..12, the zero polynomial (empty list) and trailing zeros included
coeff_lists = st.lists(st.one_of(rationals, st.just(Fraction(0))), max_size=13)
points = st.one_of(st.integers(-(10**6), 10**6), rationals)

relaxed = settings(deadline=None, max_examples=150)


# -- naive reference ---------------------------------------------------------------


def trimmed(a: list[Fraction]) -> tuple[Fraction, ...]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]


def ref_neg(a: list[Fraction]) -> list[Fraction]:
    return [-x for x in a]


def ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_shift(a: list[Fraction], c: Fraction) -> list[Fraction]:
    """sum_k a_k (x + c)^k expanded by the binomial theorem."""
    out = [Fraction(0)] * len(a)
    for k, x in enumerate(a):
        for j in range(k + 1):
            out[j] += x * comb(k, j) * Fraction(c) ** (k - j)
    return out


def ref_eval(a: list[Fraction], x: Fraction) -> Fraction:
    return sum((c * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))


# -- checks --------------------------------------------------------------------------


def assert_primitive(p: RatPoly) -> None:
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den >= 1
    assert all(type(x) is int for x in nums)
    if nums:
        assert nums[-1] != 0
        assert gcd(den, *nums) == 1
    else:
        assert den == 1
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(x, den) for x in nums)


def assert_matches(got: RatPoly, want: list[Fraction], frame: tuple[str, int]) -> None:
    assert (got.var, got.r) == frame
    assert got.coeffs == trimmed(want)
    assert_primitive(got)


# -- properties ----------------------------------------------------------------------


@relaxed
@given(frames, coeff_lists)
def test_constructor_gives_the_primitive_normal_form(frame, a):
    assert_matches(RatPoly(a, *frame), a, frame)


@relaxed
@given(frames, coeff_lists, coeff_lists)
def test_add_sub_neg_mul_match_reference(frame, a, b):
    p, q = RatPoly(a, *frame), RatPoly(b, *frame)
    assert_matches(p + q, ref_add(a, b), frame)
    assert_matches(p - q, ref_add(a, ref_neg(b)), frame)
    assert_matches(-p, ref_neg(a), frame)
    assert_matches(p * q, ref_mul(a, b), frame)
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree == p.degree + q.degree


@relaxed
@given(frames, coeff_lists, points)
def test_scale_shift_eval_match_reference(frame, a, c):
    p = RatPoly(a, *frame)
    assert_matches(p.scale(c), [c * x for x in a], frame)
    assert_matches(p.shift(c), ref_shift(a, c), frame)
    value = p.eval(c)
    assert type(value) is Fraction
    assert value == ref_eval(a, c)


@relaxed
@given(frames, coeff_lists, coeff_lists, st.integers(1, 10**6))
def test_equality_and_hash_follow_the_coefficients(frame, a, b, k):
    p, q = RatPoly(a, *frame), RatPoly(b, *frame)
    assert (p == q) == (trimmed(a) == trimmed(b))
    if p == q:
        assert hash(p) == hash(q)
    # the same polynomial from unreduced and negated-denominator integer forms
    for sign in (1, -1):
        same = RatPoly.from_integers(
            [sign * k * x for x in p.numerators] + [0], sign * k * p.denominator, *frame
        )
        assert same == p and hash(same) == hash(p)
    assert pickle.loads(pickle.dumps(p)) == p


@pytest.mark.parametrize(
    "p, other",
    [
        (RatPoly([1]), 1),
        (RatPoly([1]), Fraction(1)),
        (RatPoly([1]), (Fraction(1),)),
        (RatPoly([]), 0),
        (RatPoly([]), ()),
    ],
    ids=["one-int", "one-fraction", "one-coeffs", "zero-int", "zero-coeffs"],
)
def test_no_number_or_tuple_equals_a_polynomial(p, other):
    # not its constant term nor its coefficients
    assert p != other and other != p


@relaxed
@given(coeff_lists)
def test_frames_distinguish_equal_coefficients(a):
    polys = [RatPoly(a, var, r) for var, r in FRAMES]
    for i, p in enumerate(polys):
        for j, q in enumerate(polys):
            assert (p == q) == (i == j)


# -- sum of products -------------------------------------------------------------------

# a factor is often zero or a constant, as the Bernoulli weights of the routes are
factor_lists = st.one_of(
    coeff_lists,
    st.just([]),
    st.lists(rationals, min_size=1, max_size=1),
)


@relaxed
@given(frames, st.lists(st.tuples(factor_lists, factor_lists), max_size=6))
def test_sum_of_products_matches_naive_sum(frame, pairs):
    polys = [(RatPoly(a, *frame), RatPoly(b, *frame)) for a, b in pairs]
    naive = RatPoly((), *frame)
    for p, q in polys:
        naive = naive + p * q
    got = sum_of_products(polys, *frame)
    assert got == naive
    want: list[Fraction] = []
    for a, b in pairs:
        want = ref_add(want, ref_mul(a, b))
    assert_matches(got, want, frame)


@relaxed
@given(frames, st.integers(0, 4))
def test_sum_of_products_of_nothing_is_zero_in_the_frame(frame, count):
    zero = RatPoly((), *frame)
    got = sum_of_products([(zero, zero)] * count, *frame)
    assert got == zero and got.is_zero()
    assert_matches(got, [], frame)
    assert_matches(sum_of_products(iter(()), *frame), [], frame)


@relaxed
@given(frames, frames, coeff_lists, coeff_lists, st.booleans())
def test_sum_of_products_rejects_a_factor_in_another_frame(frame, other, a, b, first):
    assume(frame != other)
    good, bad = RatPoly(a, *frame), RatPoly(b, *other)
    pair = (bad, good) if first else (good, bad)
    with pytest.raises(ValueError, match="frame mismatch"):
        sum_of_products([(good, good), pair], *frame)
    with pytest.raises(ValueError, match="frame mismatch"):
        sum_of_products([(3, good), (bad, Fraction(1, 2))], *frame)


# a number factor is an int or a Fraction, and it has no frame
numbers = st.one_of(st.integers(-(10**9), 10**9), rationals, st.just(0))


@relaxed
@given(frames, st.lists(st.tuples(numbers, coeff_lists, st.booleans()), max_size=6))
def test_a_number_factor_acts_as_its_constant_polynomial(frame, pairs):
    mixed = [(c, RatPoly(a, *frame)) if first else (RatPoly(a, *frame), c) for c, a, first in pairs]
    wrapped = [(RatPoly((c,), *frame), RatPoly(a, *frame)) for c, a, _ in pairs]
    assert_matches(
        sum_of_products(mixed, *frame), sum_of_products(wrapped, *frame).coeffs, frame
    )


@st.composite
def int_rows(draw) -> tuple[tuple[int, ...], int]:
    """An integer row (numerators, denominator) as the kernel reads it: negative entries,
    a common factor (so not primitive), trailing zeros and the empty row included."""
    nums = draw(st.lists(st.integers(-(10**6), 10**6), max_size=8))
    k = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 2))
    return tuple(k * a for a in nums) + (0,) * zeros, k * draw(st.integers(1, 10**4))


@relaxed
@given(
    frames,
    st.lists(st.tuples(int_rows(), st.one_of(coeff_lists, int_rows()), st.booleans()), max_size=6),
)
def test_a_row_factor_acts_as_the_polynomial_it_spells(frame, pairs):
    def poly(f) -> RatPoly:
        return RatPoly.from_integers(*f, *frame) if isinstance(f, tuple) else RatPoly(f, *frame)

    def other(f):
        return f if isinstance(f, tuple) else RatPoly(f, *frame)

    rowed = [(row, other(b)) if first else (other(b), row) for row, b, first in pairs]
    wrapped = [(poly(row), poly(b)) for row, b, _ in pairs]
    got = sum_of_products(rowed, *frame)
    assert got == sum_of_products(wrapped, *frame)
    want: list[Fraction] = []
    for row, b, _ in pairs:
        want = ref_add(want, ref_mul(list(poly(row).coeffs), list(poly(b).coeffs)))
    assert_matches(got, want, frame)


@relaxed
@given(frames, coeff_lists, coeff_lists)
def test_mixed_sum_equals_the_sum_of_scaled_polynomials(frame, a, b):
    p, q = RatPoly(a, *frame), RatPoly(b, *frame)
    got = sum_of_products([(Fraction(1, 2), p), (3, q)], *frame)
    assert got == p.scale(Fraction(1, 2)) + q.scale(3)


def test_a_number_factor_passes_with_a_centered_polynomial():
    g = RatPoly((1, 0, Fraction(2, 7)), "N", 3)
    got = sum_of_products([(2, g), (g, Fraction(-1, 3)), (5, 7)], "N", 3)
    assert got == RatPoly((Fraction(5, 3) + 35, 0, Fraction(10, 21)), "N", 3)


MALFORMED_ROWS = [((1.5,), 2), ((1,), 0), ((1,), -2), ([1], 1), ((1,), 2, 3)]


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None, 1j, [1], *MALFORMED_ROWS])
def test_a_factor_that_is_neither_a_polynomial_nor_a_number_is_refused(bad):
    g = RatPoly((1, 2), "N", 3)
    for pairs in ([(bad, g)], [(g, bad)], [(1, g), (2, bad)]):
        with pytest.raises(TypeError, match="RatPoly, int or Fraction"):
            sum_of_products(pairs, "N", 3)
    with pytest.raises(TypeError):
        g.scale(bad)


def test_add_sub_and_scale_build_one_polynomial(monkeypatch):
    p = RatPoly((1, 2, Fraction(3, 4), 5), "N", 2)
    q = RatPoly((Fraction(1, 2), 0, 7), "N", 2)
    built = spy(monkeypatch, polyring, "_raw")
    for op in (lambda: p + q, lambda: p - q, lambda: p.scale(Fraction(2, 3))):
        built.clear()
        op()
        assert len(built) == 1


# -- the integer comparison with a list of values ----------------------------------


def fraction_first_mismatch(p: RatPoly, values: list[int]) -> int | None:
    return next((n for n, v in enumerate(values) if p.eval(n) != v), None)


@relaxed
@given(frames, coeff_lists, st.lists(st.sampled_from((0, 0, 0, 1, -1)), max_size=10))
def test_first_mismatch_matches_the_fraction_comparison(frame, a, offsets):
    p = RatPoly(a, *frame)
    # values at or next to the true ones, so a mismatch can come at any n or not at all
    values = [int(p.eval(n)) + d for n, d in enumerate(offsets)]
    assert p.first_mismatch(values) == fraction_first_mismatch(p, values)


def test_first_mismatch_cases():
    pairs = RatPoly.from_integers((0, -1, 1), 2)  # C(n, 2): integer values, denominator 2
    right = [n * (n - 1) // 2 for n in range(9)]
    assert pairs.first_mismatch(right) is None
    assert pairs.first_mismatch([]) is None
    assert pairs.first_mismatch([1, *right[1:]]) == 0
    assert pairs.first_mismatch(right[:5] + [right[5] + 1] + right[6:]) == 5
    half = RatPoly.from_integers((0, 1), 2)  # n/2 is not an integer at odd n
    for values in ([0, 0, 1], [0, 1, 1], [1, 0]):
        assert half.first_mismatch(values) == fraction_first_mismatch(half, values)
    assert half.first_mismatch([0, 0, 1]) == 1
    assert RatPoly(()).first_mismatch([0, 0, 0]) is None
    assert RatPoly(()).first_mismatch([0, 2]) == 1


# -- what the reference does not state -----------------------------------------------


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


def test_frame_conversions_round_trip():
    rng = random.Random(13)
    for r in (0, 1, 4, 7):
        for _ in range(10):
            length = rng.randint(0, 5)
            p = RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(length)])
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


# what the constructors and the frame conversions refuse, with the error each raises
REFUSED = {
    "N-frame-r-below-0": (ValueError, lambda: RatPoly((1, 2), "N", -3)),
    "u-frame-r-below-0": (ValueError, lambda: RatPoly((1, 2), "u", -3)),
    "n-frame-with-r": (ValueError, lambda: RatPoly([1], "n", 2)),
    "unknown-variable": (ValueError, lambda: RatPoly([1], "x")),
    "zero-denominator": (ZeroDivisionError, lambda: RatPoly.from_integers((1,), 0)),
    "to_N_frame-r-below-0": (ValueError, lambda: to_N_frame(RatPoly([1, 2]), -3)),
    "to_N_frame-of-N": (ValueError, lambda: to_N_frame(RatPoly([1, 2], "N", 1), 1)),
    "to_n_frame-of-n": (ValueError, lambda: to_n_frame(RatPoly([1, 2]))),
}


@pytest.mark.parametrize("error, build", REFUSED.values(), ids=REFUSED)
def test_what_the_constructors_and_conversions_refuse_raises(error, build):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "p",
    [G57, G67, RatPoly([Fraction(-1, 2), 3], "u", 1), RatPoly(())],
    ids=["G57", "G67", "u-frame", "zero"],
)
def test_json_holds_the_frame_and_every_coefficient(p):
    assert check_poly_blob(poly_to_json(p)) == p
