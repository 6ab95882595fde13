"""Matrix construction and the determinant's closed forms.

The determinant against a naive cofactor expansion is criterion 7 of the acceptance gate,
the matrix's guard is two cases of ``tests/test_hypersum.py::BELOW_THE_DOMAIN``, and its
text and JSON renderings are ``DET_TEXT`` and ``DET_DIGESTS`` in ``tests/test_cli.py``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hypersums.exactnum import rising_factorial, sign_pow
from hypersums.hessenberg import build_matrix, det
from hypersums.polyring import RatPoly, monomial


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


# -- determinant -------------------------------------------------------------------


def test_det_r0_closed_form():
    # (-1)^(m-1) * 2 * 3 * ... * m * n^(m-1)
    for m in range(2, 9):
        expected = monomial(m - 1, sign_pow(m - 1) * rising_factorial(2, m - 1), "N", 0)
        assert det(build_matrix(m, 0)) == expected
