"""Matrix construction and the determinant against a naive cofactor oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from hypersums.exactnum import rising_factorial, sign_pow
from hypersums.hessenberg import (
    HessenbergMatrix,
    build_matrix,
    det,
    matrix_to_json,
    matrix_to_text,
)
from hypersums.polyring import RatPoly, monomial


def cofactor_det(rows: list[list[RatPoly]], frame_r: int = 0) -> RatPoly:
    """Laplace expansion along the first row; exponential, but an oracle."""
    n = len(rows)
    if n == 0:
        return RatPoly([1], "N", frame_r)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = (rows[0][j] * cofactor_det(sub)).scale(sign_pow(j))
        acc = term if acc is None else acc + term
    return acc


def random_hessenberg(rng: random.Random, order: int) -> HessenbergMatrix:
    rows = []
    for i in range(order):
        row = []
        for j in range(order):
            if j > i + 1:
                row.append(RatPoly([], "N", 0))
            else:
                deg = rng.randint(0, 1)
                row.append(RatPoly([rng.randint(-4, 4) for _ in range(deg + 1)], "N", 0))
        rows.append(tuple(row))
    return HessenbergMatrix(order + 1, 0, tuple(rows))


# -- construction -----------------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1, 4, 7])
def test_build_order_two(r):
    h = build_matrix(3, r)
    assert h.order == 2
    assert h.entries[0][0] == RatPoly([0, -2], "N", r)
    assert h.entries[0][1] == RatPoly([r + 2], "N", r)
    assert h.entries[1][0] == RatPoly([Fraction(r, 2)], "N", r)
    assert h.entries[1][1] == RatPoly([0, -3], "N", r)


def test_build_empty_for_m_1():
    h = build_matrix(1, 5)
    assert h.order == 0
    assert det(h) == RatPoly([1], "N", 5)


def test_build_5_7_matches_display():
    h = build_matrix(5, 7)
    expected = [
        [RatPoly([0, -2], "N", 7), RatPoly([9], "N", 7), RatPoly([], "N", 7), RatPoly([], "N", 7)],
        [
            RatPoly([Fraction(7, 2)], "N", 7),
            RatPoly([0, -3], "N", 7),
            RatPoly([10], "N", 7),
            RatPoly([], "N", 7),
        ],
        [
            RatPoly([], "N", 7),
            RatPoly([7], "N", 7),
            RatPoly([0, -4], "N", 7),
            RatPoly([11], "N", 7),
        ],
        [
            RatPoly([Fraction(-7, 6)], "N", 7),
            RatPoly([], "N", 7),
            RatPoly([Fraction(35, 3)], "N", 7),
            RatPoly([0, -5], "N", 7),
        ],
    ]
    for i in range(4):
        for j in range(4):
            assert h.entries[i][j] == expected[i][j], (i, j)
    # the zero at (3, 1) is a vanishing odd-index Bernoulli number
    assert h.entries[2][0].is_zero()


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_matrix(0, 1)
    with pytest.raises(ValueError):
        build_matrix(3, -1)


def test_shape_validation():
    bad = (
        (RatPoly([1], "N", 0), RatPoly([1], "N", 0), RatPoly([1], "N", 0)),
        (RatPoly([1], "N", 0), RatPoly([1], "N", 0), RatPoly([1], "N", 0)),
        (RatPoly([1], "N", 0), RatPoly([1], "N", 0), RatPoly([1], "N", 0)),
    )
    with pytest.raises(ValueError):
        HessenbergMatrix(4, 0, bad)


# -- determinant -------------------------------------------------------------------


def test_det_against_cofactor_randomized():
    rng = random.Random(20240202)
    for _ in range(100):
        order = rng.randint(1, 6)
        h = random_hessenberg(rng, order)
        assert det(h) == cofactor_det([list(row) for row in h.entries])


def test_det_against_cofactor_on_built_matrices():
    for m in range(1, 8):
        for r in range(0, 5):
            h = build_matrix(m, r)
            assert det(h) == cofactor_det([list(row) for row in h.entries], r), (m, r)


def test_det_r0_closed_form():
    # (-1)^(m-1) * 2 * 3 * ... * m * n^(m-1)
    for m in range(2, 9):
        expected = monomial(m - 1, sign_pow(m - 1) * rising_factorial(2, m - 1), "N", 0)
        assert det(build_matrix(m, 0)) == expected


def test_det_degree_and_leading_coefficient():
    for m in range(2, 9):
        for r in (0, 1, 3, 6):
            d = det(build_matrix(m, r))
            assert d.degree == m - 1
            assert d.coefficient(d.degree) == sign_pow(m - 1) * factorial(m)


def test_det_row_scaling_multilinearity():
    rng = random.Random(5)
    for _ in range(25):
        order = rng.randint(1, 5)
        h = random_hessenberg(rng, order)
        i = rng.randrange(order)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled_rows = tuple(
            tuple(e.scale(c) for e in row) if k == i else row
            for k, row in enumerate(h.entries)
        )
        scaled = HessenbergMatrix(h.m, h.r, scaled_rows)
        assert det(scaled) == det(h).scale(c)


# -- rendering ----------------------------------------------------------------------


def test_text_and_json_export():
    h = build_matrix(3, 7)
    text = matrix_to_text(h)
    assert "-2*N" in text and "9" in text and "7/2" in text
    blob = matrix_to_json(h)
    assert blob["order"] == 2 and blob["m"] == 3 and blob["r"] == 7
    assert blob["entries"][1][0]["coeffs"] == [["7", "2"]]
