"""Exact scalars, the combinatorial number tables and the defining recursion.

Every quantity in this package is an exact rational; the scalar type is
``fractions.Fraction`` (re-exported as :data:`Rational`), which is always
canonical: gcd(|num|, den) = 1, den >= 1, zero is 0/1.

Bernoulli numbers use the B_1 = -1/2 convention throughout.  This matters:
with B_1 = +1/2 the power-sum formula used by the polynomial routes would be
silently wrong.  Every table grows on demand as a :class:`GrownTable`; the
number tables are never flushed, the memos (the rows below among them) are.

Every product C(n, k) B_{n-k} of the package, a coefficient of the Bernoulli
polynomial B_n(x), is read from one table, :func:`bernoulli_row`, whose rows
are grown in order, each from the one before it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import lcm

Rational = Fraction


class DomainError(ValueError):
    """An argument outside the domain of the function it was passed to."""


class CrossCheckError(ArithmeticError):
    """A computed result that fails an independent check."""


def sign_pow(exponent: int) -> int:
    """(-1)**exponent as an int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def rising_factorial(r: int, m: int) -> int:
    """r(r+1)...(r+m-1), empty product 1 when m = 0."""
    if r < 0 or m < 0:
        raise DomainError(f"rising_factorial: need r, m >= 0, got ({r}, {m})")
    out = 1
    for t in range(m):
        out *= r + t
    return out


class GrownTable:
    """Entries 0, 1, 2, ... of a table grown on demand, in index order.

    Entry 0 is ``first``; entry k is ``step(entries)`` of the list of entries
    0..k-1, computed under the table's one lock, so each step runs once and in
    order.  An entry already grown is read without the lock.  Like a list, the
    table answers a negative index with its last entry: readers refuse one.
    """

    def __init__(self, first, step: Callable[[list], object]) -> None:
        self._entries = [first]
        self._step = step
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, k: int):
        entries = self._entries
        if k >= len(entries):
            with self._lock:
                while len(entries) <= k:
                    entries.append(self._step(entries))
        return entries[k]


def bernoulli_table() -> GrownTable:
    """A cold table of the Bernoulli numbers, B_1 = -1/2 convention.

    Even indices come from the tangent numbers T_1, T_2, ... (Brent and
    Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
    2011): B_2t = (-1)^(t-1) 2t T_t / (4^t (4^t - 1)).  The tangent numbers
    are the last entries of the columns of an integer triangle,

        col_1 = (1),  col_j[0] = (j-1) col_{j-1}[0],
        col_j[s] = (j-s-1) col_{j-1}[s] + (j-s+1) col_j[s-1]   (1 <= s < j),

    and T_j = col_j[j-1]; only the latest column is kept, so growth by one
    index costs O(j) integer operations.  Odd indices above 1 are zero.
    """
    column: list[int] = []  # col_t of the last tangent number T_t computed

    def step(values: list[Fraction]) -> Fraction:
        nonlocal column
        k = len(values)
        if k % 2:
            return Fraction(-1, 2) if k == 1 else Fraction(0)
        prev, t = column, k // 2  # B_k is the first to need T_t
        col = [(t - 1) * prev[0]] if prev else [1]
        for s in range(1, t - 1):
            col.append((t - s - 1) * prev[s] + (t - s + 1) * col[-1])
        if t > 1:
            col.append(2 * col[-1])
        column, four = col, 4**t
        return Fraction(sign_pow(t - 1) * k * col[-1], four * (four - 1))

    return GrownTable(Fraction(1), step)


def _next_stirling_row(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The r-Stirling row m + 1 after row m = ``rows[-1]``, ([m, 0]_r, ..., [m, m]_r).

    [m, n]_r counts the permutations of m elements with n cycles in which the
    r smallest elements lie in distinct cycles (Broder, "The r-Stirling
    numbers", 1984).  The boundary is [r, n]_r = 1 iff n = r, and

        [m+1, n]_r = m [m, n]_r + [m, n-1]_r   (m >= r).

    At r = 0 this is the plain unsigned triangle [m, n].
    """
    prev = rows[-1]
    m = len(prev) - 1
    return tuple(m * a + b for a, b in zip((*prev, 0), (0, *prev)))


_BERNOULLI = bernoulli_table()
_STIRLING: dict[int, GrownTable] = {}  # r -> the r-Stirling triangle, row m at index m - r

_DERIVED_CACHES: list[Callable[[], None]] = []


def memo(fn: Callable) -> Callable:
    """``lru_cache(maxsize=None)`` whose cache :func:`clear_derived_caches` flushes.

    Every memo of the package is made with it, so a value derived from the
    tables can never outlive a change of them.
    """
    cached = lru_cache(maxsize=None)(fn)
    _DERIVED_CACHES.append(cached.cache_clear)
    return cached


def clear_derived_caches() -> None:
    for fn in _DERIVED_CACHES:
        fn()


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with B_0 = 1, B_1 = -1/2 (memoized)."""
    if j < 0:
        raise DomainError(f"bernoulli index must be >= 0, got {j}")
    return _BERNOULLI[j]


@memo
def _bernoulli_rows() -> GrownTable:
    """The table of :func:`bernoulli_row`.  A memo, so that the flush starts it over."""

    def appell_step(rows: list[tuple[tuple[int, ...], int]]) -> tuple[tuple[int, ...], int]:
        p = len(rows)
        prev, den = rows[-1]
        b = bernoulli(p - 1)
        d = lcm(den, b.denominator)
        scale = p * (d // den)
        low = [scale * a // k for k, a in enumerate(prev[1:], 2)]
        return (0, p * b.numerator * (d // b.denominator), *low), d

    return GrownTable(((0,), 1), appell_step)


def bernoulli_row(n: int) -> tuple[tuple[int, ...], int]:
    """(row, D): row[k] = D C(n, k) B_{n-k} for 1 <= k <= n and row[0] = 0, the
    coefficients of B_n(x) - B_n over D, the lcm of the denominators of B_0..B_{n-1}.

    Row n reads B_0..B_{n-1} only.  It is grown from row n-1 by the Appell
    step B_n'(x) = n B_{n-1}(x): with D_n = lcm(D_{n-1}, den B_{n-1}),
    row_n[1] = n D_n B_{n-1} and row_n[k] = (n/k) (D_n/D_{n-1}) row_{n-1}[k-1]
    for k >= 2, an exact division, so a zero Bernoulli number gives a zero entry.
    """
    if n < 0:
        raise DomainError(f"Bernoulli row index must be >= 0, got {n}")
    if n > len(_BERNOULLI):
        bernoulli(n - 1)  # grown first, so that no table grows inside the other's step
    return _bernoulli_rows()[n]


def _stirling_row(m: int, r: int) -> tuple[int, ...]:
    if r < 0 or m < r:
        raise DomainError(f"Stirling row needs 0 <= r <= m, got m={m}, r={r}")
    if r not in _STIRLING:
        _STIRLING.setdefault(r, GrownTable((0,) * r + (1,), _next_stirling_row))
    return _STIRLING[r][m - r]


def stirling1_unsigned(m: int, n: int) -> int:
    """Unsigned Stirling number of the first kind [m, n]; 0 when n > m."""
    if m < 0 or n < 0:
        raise DomainError(f"stirling1_unsigned: need m, n >= 0, got ({m}, {n})")
    return _stirling_row(m, 0)[n] if n <= m else 0


def stirling1_row(m: int) -> tuple[int, ...]:
    """Row ([m, 0], ..., [m, m]) of the unsigned first-kind triangle."""
    return _stirling_row(m, 0)


def r_stirling1(m: int, n: int, r: int) -> int:
    """r-Stirling number of the first kind [m, n]_r (requires m >= r)."""
    row = _stirling_row(m, r)
    return row[n] if 0 <= n <= m else 0


def value_table(m: int, r_max: int, n_max: int) -> Iterator[list[int]]:
    """The rows [S(m, r, 0), ..., S(m, r, n_max)] for r = 0, ..., r_max, in order.

    Straight from the defining recursion: row 0 is [i^m] with 0^0 = 1, and
    row r is the prefix sums of row r-1 from i = 1, so the empty sum makes
    S(m, r, 0) = 0 for r >= 1.  The rows are yielded one at a time and only
    the latest is kept.
    """
    if m < 0 or r_max < 0 or n_max < 0:
        raise DomainError(f"need m, r, n >= 0, got ({m}, {r_max}, {n_max})")
    row = [i**m for i in range(n_max + 1)]
    yield row
    for _ in range(r_max):
        row = [0, *accumulate(islice(row, 1, None))]
        yield row


def hyper_sum_bruteforce(m: int, r: int, n: int) -> int:
    """S(m, r, n) straight from the defining recursion: the last row of
    :func:`value_table`.

    Conventions: 0^0 = 1, so (m, r, n) = (0, 0, 0) gives 1; for r >= 1 the
    empty sum at n = 0 gives 0.
    """
    for row in value_table(m, r, n):
        pass
    return row[n]


# --- JSON serialization -----------------------------------------------------
#
# A rational serializes as a two-element array of decimal strings
# ["num", "den"], denominator positive, canonical form.


def rational_to_json(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]
