"""Scalar and table layer: oracles are independent algorithms computed here."""

from __future__ import annotations

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from hypersums import exactnum
from hypersums.exactnum import (
    StirlingTable,
    bernoulli,
    bernoulli_row,
    binomial,
    r_stirling1,
    rational_from_json,
    rational_to_json,
    rising_factorial,
    stirling1_row,
    stirling1_unsigned,
)

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


# -- binomial / rising factorial -------------------------------------------------


def test_binomial_pascal():
    assert binomial(5, 3) == 10


def test_binomial_factorial_ratio_oracle():
    assert binomial(10, 8) == factorial(10) // (factorial(8) * factorial(2)) == 45


def test_binomial_out_of_range_is_zero():
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_rising_factorial():
    assert rising_factorial(9, 4) == 11880
    assert rising_factorial(7, 0) == 1
    assert rising_factorial(2, 3) == 2 * 3 * 4 == 24


# -- bernoulli -------------------------------------------------------------------


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0


def test_bernoulli_against_akiyama_tanigawa():
    oracle = bernoulli_akiyama_tanigawa(120)
    assert bernoulli(8) == oracle[8] == Fraction(-1, 30)
    for j in range(121):
        assert bernoulli(j) == oracle[j], j


def test_bernoulli_odd_vanish_and_even_signs():
    for j in range(3, 41, 2):
        assert bernoulli(j) == 0
    for t in range(1, 21):
        value = bernoulli(2 * t)
        assert value != 0
        assert (value > 0) == (t % 2 == 1), f"sign of B_{2 * t}"


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
    results: list = [None] * 8
    start = threading.Barrier(8)

    def work(i: int) -> None:
        start.wait()
        results[i] = {n: bernoulli_row(n) for n in orders[i]}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(result == expected for result in results)


def _depth(frame) -> int:
    depth = 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_cold_bernoulli_polynomial_row_is_grown_without_recursion(monkeypatch):
    # a fresh table, so that the Bernoulli numbers are grown cold as well
    monkeypatch.setattr(exactnum, "_BERNOULLI", exactnum.BernoulliTable())
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


def test_a_negative_bernoulli_row_index_is_refused():
    exactnum.clear_derived_caches()  # cold, where nothing else would fail
    with pytest.raises(ValueError):
        bernoulli_row(-1)


def test_corrupt_bernoulli_is_scoped(corrupt_bernoulli):
    with corrupt_bernoulli(4, Fraction(1, 31)):
        assert bernoulli(4) == Fraction(1, 31)
    assert bernoulli(4) == Fraction(-1, 30)


# -- stirling --------------------------------------------------------------------


def test_stirling_small_values_by_enumeration():
    assert stirling1_unsigned(3, 1) == stirling1_by_enumeration(3, 1) == 2
    assert stirling1_unsigned(4, 2) == stirling1_by_enumeration(4, 2) == 11


def test_stirling_full_triangle_by_enumeration():
    for m in range(7):
        for n in range(m + 1):
            assert stirling1_unsigned(m, n) == stirling1_by_enumeration(m, n)


def test_stirling_diagonal_and_bounds():
    for m in range(10):
        assert stirling1_unsigned(m, m) == 1
        assert stirling1_unsigned(m, m + 1) == 0
    assert stirling1_unsigned(5, 0) == 0


def test_stirling_row_sums_are_factorials():
    for m in range(11):
        assert sum(stirling1_row(m)) == factorial(m)


def test_r_stirling_boundary():
    for r in range(6):
        assert r_stirling1(r, r, r) == 1
        if r >= 1:
            assert r_stirling1(r, r - 1, r) == 0


def test_r_stirling_r0_reduces_to_plain():
    for m in range(11):
        for n in range(m + 1):
            assert r_stirling1(m, n, 0) == stirling1_unsigned(m, n)


def test_r_stirling_by_enumeration():
    # note (5, 4, 2) is 9 = C(5,2) - 1: only the transposition of the two
    # marked elements is excluded; 7 corresponds to three marked elements
    assert r_stirling1(5, 4, 2) == r_stirling1_by_enumeration(5, 4, 2) == 9
    assert r_stirling1(5, 4, 3) == r_stirling1_by_enumeration(5, 4, 3) == 7
    for m in range(6):
        for r in range(m + 1):
            for n in range(m + 1):
                assert r_stirling1(m, n, r) == r_stirling1_by_enumeration(m, n, r)


def test_r_stirling_generating_function():
    """sum_k [n+r, k+r]_r x^k = (x+r)(x+r+1)...(x+r+n-1), multiplied out here."""
    for r in range(9):
        product = [1]  # coefficients of the product, lowest degree first
        for n in range(31):
            for k in range(n + 2):
                expected = product[k] if k <= n else 0
                assert r_stirling1(n + r, k + r, r) == expected, (n, k, r)
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


def test_rational_json_round_trip_and_canonical_form():
    x = Fraction(-6, 4)
    blob = rational_to_json(x)
    assert blob == ["-3", "2"]
    assert rational_from_json(blob) == x
    assert rational_to_json(Fraction(0)) == ["0", "1"]


@pytest.mark.parametrize("bad", [["1"], ["1", "0"], ["1", "-2"], [1, 2], "1/2", None])
def test_rational_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        rational_from_json(bad)


def test_concurrent_growth_is_consistent():
    results: list[Fraction] = [Fraction(0)] * 8

    def worker(slot: int) -> None:
        results[slot] = bernoulli(40 + slot % 2)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == bernoulli(40)
    for i, v in enumerate(results):
        assert v == bernoulli(40 + i % 2)


def test_stirling_table_threads_match_one_thread():
    cells = [(m, r) for r in range(9) for m in range(r, 121)]
    one_thread = StirlingTable()
    expected = {cell: one_thread.row(*cell) for cell in cells}
    table = StirlingTable()
    orders = [cells, cells[::-1]] + [random.Random(i).sample(cells, len(cells)) for i in range(6)]
    results: list = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def work(i: int) -> None:
        start.wait()
        results[i] = {cell: table.row(*cell) for cell in orders[i]}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(result == expected for result in results)
