"""Property tests of the integer core of RatPoly against a naive Fraction reference.

The reference below works coefficient by coefficient on lists of Fractions,
the way the ring was computed before polynomials were stored as integer
numerators over one denominator.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from math import comb, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hypersums.polyring import RatPoly

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


@relaxed
@given(coeff_lists)
def test_frames_distinguish_equal_coefficients(a):
    polys = [RatPoly(a, var, r) for var, r in FRAMES]
    for i, p in enumerate(polys):
        for j, q in enumerate(polys):
            assert (p == q) == (i == j)
