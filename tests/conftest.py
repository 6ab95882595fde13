"""Shared test fixtures."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest

from hypersums import exactnum


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
