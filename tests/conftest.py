"""Shared test fixtures."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest

from hypersums import exactnum, hypersum


@pytest.fixture
def corrupt_bernoulli():
    """Context manager that swaps a wrong value for B_j in the shared table.

    The table entry itself is replaced (and the derived caches flushed), so
    every route reads the bad value; the original value is put back and the
    caches flushed again on exit, also when the body raises.
    """

    @contextmanager
    def corrupt(j: int, value: Fraction):
        exactnum.bernoulli(j)
        table = exactnum._BERNOULLI._entries
        original = table[j]
        table[j] = Fraction(value)
        exactnum.clear_derived_caches()
        try:
            yield
        finally:
            table[j] = original
            exactnum.clear_derived_caches()

    return corrupt


@pytest.fixture
def wrong_newton_weight(monkeypatch):
    """Make the Newton weight a(4, 2) = 2! {4 2} = 14 one too large, for every reader.

    Values at m = 4 then read 2422 for 7^4 = 2401; the proof of :func:`newton_weights`
    fails at n = 2, where the row gives 17 for 2^4.
    """
    real = hypersum._surjection_counts

    def wrong(m: int) -> tuple[int, ...]:
        row = real(m)
        return row[:2] + (row[2] + 1,) + row[3:] if m == 4 else row

    monkeypatch.setattr(hypersum, "_surjection_counts", wrong)
