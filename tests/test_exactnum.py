"""Scalar and table layer: oracles are independent algorithms computed here."""

from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm

import pytest

from hypersums import exactnum
from hypersums.exactnum import (
    GrownTable,
    bernoulli,
    bernoulli_row,
    r_stirling1,
    rational_to_json,
    rising_factorial,
    stirling1_row,
    stirling1_unsigned,
)
from conftest import check_rational_blob, read_in_threads, table_fault

# -- independent oracles -------------------------------------------------------


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle, adjusted to B_1 = -1/2.

    The triangle natively produces B_1 = +1/2; all other indices agree, so
    flipping B_1 yields the convention used by the package.  A completely
    different algorithm from the package's tangent-number recurrence.
    """
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def cycle_count(perm: tuple[int, ...]) -> list[set[int]]:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if not seen[i]:
            cyc = set()
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.add(j)
                j = perm[j]
            cycles.append(cyc)
    return cycles


def stirling1_by_enumeration(m: int, n: int) -> int:
    """Count permutations of m elements with exactly n cycles."""
    return sum(1 for p in itertools.permutations(range(m)) if len(cycle_count(p)) == n)


def r_stirling1_by_enumeration(m: int, n: int, r: int) -> int:
    """Count permutations with n cycles where elements 0..r-1 lie in distinct cycles."""
    count = 0
    marked = set(range(r))
    for p in itertools.permutations(range(m)):
        cycles = cycle_count(p)
        if len(cycles) != n:
            continue
        if all(len(c & marked) <= 1 for c in cycles):
            count += 1
    return count


# -- rising factorial -------------------------------------------------------------


def test_rising_factorial():
    assert rising_factorial(9, 4) == 11880
    assert rising_factorial(7, 0) == 1
    assert rising_factorial(2, 3) == 2 * 3 * 4 == 24
    assert [rising_factorial(0, m) for m in range(4)] == [1, 0, 0, 0]


# -- bernoulli -------------------------------------------------------------------


# B_0..B_120, one case per block of 20 indices
@pytest.mark.parametrize("first", range(0, 121, 20))
def test_bernoulli_against_akiyama_tanigawa(first):
    last = min(first + 19, 120)
    oracle = bernoulli_akiyama_tanigawa(last)
    for j in range(first, last + 1):
        assert bernoulli(j) == oracle[j], j


def test_the_bernoulli_polynomial_rows_match_their_definition():
    expected = {}
    for n in range(401):
        den = lcm(*(bernoulli(j).denominator for j in range(n)))
        row = [Fraction(0)] + [comb(n, k) * bernoulli(n - k) * den for k in range(1, n + 1)]
        expected[n] = tuple(int(a) for a in row), den
    orders = [random.Random(seed).sample(range(401), 401) for seed in range(9)]
    exactnum.clear_derived_caches()
    assert {n: bernoulli_row(n) for n in orders[8]} == expected
    # cold in increasing order, where each read grows exactly one row
    exactnum.clear_derived_caches()
    assert {n: bernoulli_row(n) for n in range(401)} == expected
    # cold again, grown and read from 8 threads at once, each in its own order
    exactnum.clear_derived_caches()
    assert all(result == expected for result in read_in_threads(bernoulli_row, orders[:8]))


def _depth(frame) -> int:
    depth = 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_cold_bernoulli_polynomial_row_is_grown_without_recursion(monkeypatch):
    # a fresh table, so that the Bernoulli numbers are grown cold as well
    monkeypatch.setattr(exactnum, "_BERNOULLI", exactnum.bernoulli_table())
    exactnum.clear_derived_caches()
    deepest = base = _depth(sys._getframe())

    def probe(frame, event, arg):
        nonlocal deepest
        if event == "call":
            deepest = max(deepest, _depth(frame))

    sys.setprofile(probe)
    try:
        row, den = bernoulli_row(400)
    finally:
        sys.setprofile(None)
        exactnum.clear_derived_caches()
    # row 400 reads B_0..B_399, and the prime p enters the lcm at B_{p-1}: 397 has, 401 not yet
    assert len(row) == 401 and den % 397 == 0 and den % 401 != 0
    assert deepest - base <= 5


# a table, like a list, would answer index -1 with its last entry; a product, with 0 or 1
@pytest.mark.parametrize(
    "read",
    [bernoulli, bernoulli_row, stirling1_row, partial(rising_factorial, m=2),
     partial(rising_factorial, 2)],
)
def test_a_negative_index_is_refused(read):
    exactnum.clear_derived_caches()  # the rows cold, where nothing else would fail
    with pytest.raises(ValueError):
        read(-1)


def test_a_table_fault_is_scoped():
    with table_fault(4, Fraction(1, 31)):
        assert bernoulli(4) == Fraction(1, 31)
    assert bernoulli(4) == Fraction(-1, 30)


# -- stirling --------------------------------------------------------------------


@pytest.mark.parametrize("m", range(7))
def test_stirling_full_triangle_by_enumeration(m):
    for n in range(m + 1):
        assert stirling1_unsigned(m, n) == stirling1_by_enumeration(m, n), n


def test_stirling_diagonal_and_bounds():
    for m in range(10):
        assert stirling1_unsigned(m, m) == 1
        assert stirling1_unsigned(m, m + 1) == 0
    assert stirling1_unsigned(5, 0) == 0


@pytest.mark.parametrize("m, k", [(-1, 0), (0, -1)])
def test_stirling_refuses_a_negative_index(m, k):
    with pytest.raises(ValueError):
        stirling1_unsigned(m, k)


def test_stirling_row_sums_are_factorials():
    for m in range(11):
        assert sum(stirling1_row(m)) == factorial(m)


# the r = 0 rows are the plain triangle: no element is marked
@pytest.mark.parametrize("m", range(6))
def test_r_stirling_by_enumeration(m):
    for r in range(m + 1):
        for n in range(m + 1):
            assert r_stirling1(m, n, r) == r_stirling1_by_enumeration(m, n, r), (n, r)


@pytest.mark.parametrize("r", range(9))
def test_r_stirling_generating_function(r):
    """sum_k [n+r, k+r]_r x^k = (x+r)(x+r+1)...(x+r+n-1), multiplied out here."""
    product = [1]  # coefficients of the product, lowest degree first
    for n in range(31):
        for k in range(n + 2):
            expected = product[k] if k <= n else 0
            assert r_stirling1(n + r, k + r, r) == expected, (n, k)
        # times (x + r + n): x raises each degree by one, r + n scales in place
        product = [(r + n) * a + b for a, b in zip(product + [0], [0] + product)]


def test_r_stirling_rejects_m_below_r():
    with pytest.raises(ValueError):
        r_stirling1(2, 2, 3)


# -- exact arithmetic and serialization -------------------------------------------


def test_rational_arithmetic_exact_on_big_operands():
    rng = random.Random(20240217)
    for _ in range(200):
        a = rng.randrange(-(10**40), 10**40)
        b = rng.randrange(1, 10**40)
        c = rng.randrange(-(10**40), 10**40)
        d = rng.randrange(1, 10**40)
        x, y = Fraction(a, b), Fraction(c, d)
        assert (x + y) - y == x


@pytest.mark.parametrize(
    "x",
    [Fraction(0), Fraction(5), Fraction(-1, 7), Fraction(-6, 4), Fraction(10**40 + 1, 3 * 10**20)],
    ids=str,
)
def test_rational_json_is_two_canonical_decimal_strings(x):
    # the package reads none of its JSON, so this pins the form a reader elsewhere parses
    assert check_rational_blob(rational_to_json(x)) == x


# cold tables, each read in 8 orders from 8 threads at once: the Bernoulli numbers
# B_0..B_400, and the rows m <= 120 of the r-Stirling triangles for r <= 8
TABLES = [(exactnum.bernoulli_table, 401)] + [
    (partial(GrownTable, (0,) * r + (1,), exactnum._next_stirling_row), 121 - r) for r in range(9)
]


@pytest.mark.parametrize("make, size", TABLES)
def test_table_threads_match_one_thread(make, size):
    one_thread = make()
    expected = {k: one_thread[k] for k in range(size)}
    orders = [list(range(size)), list(range(size))[::-1]]
    orders += [random.Random(i).sample(range(size), size) for i in range(6)]
    assert all(result == expected for result in read_in_threads(make().__getitem__, orders))


def test_each_step_of_a_grown_table_runs_once_and_in_order():
    steps: list[int] = []  # the index of each entry as its step runs

    def step(entries: list[int]) -> int:
        steps.append(len(entries))
        time.sleep(0)  # yields the GIL, so that an unlocked table steps in two threads at once
        return 3 * entries[-1] + len(entries)

    one_thread = GrownTable(1, step)
    expected = {k: one_thread[k] for k in range(300)}
    steps.clear()
    table = GrownTable(1, step)
    orders = [random.Random(i).sample(range(300), 300) for i in range(8)]
    assert all(result == expected for result in read_in_threads(table.__getitem__, orders))
    assert steps == list(range(1, 300))
