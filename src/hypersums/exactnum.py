"""Exact scalars and the combinatorial number tables.

Every quantity in this package is an exact rational; the scalar type is
``fractions.Fraction`` (re-exported as :data:`Rational`), which is always
canonical: gcd(|num|, den) = 1, den >= 1, zero is 0/1.

Bernoulli numbers use the B_1 = -1/2 convention throughout.  This matters:
with B_1 = +1/2 the power-sum formula used by the polynomial routes would be
silently wrong.  Tables grow on demand and are cached; growth is serialized
behind a lock so concurrent readers always see consistent values.

Every product C(n, k) B_{n-k} of the package, a coefficient of the Bernoulli
polynomial B_n(x), is read from one table, :func:`bernoulli_row`, whose rows
are grown in order, each from the one before it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

Rational = Fraction


def sign_pow(exponent: int) -> int:
    """(-1)**exponent as an int, valid for negative exponents too."""
    return -1 if exponent % 2 else 1


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k is out of [0, n].

    Out-of-range k returns 0 rather than raising because the summation
    formulas here rely on vanishing terms at the index boundaries.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rising_factorial(r: int, m: int) -> int:
    """r(r+1)...(r+m-1), empty product 1 when m = 0."""
    if r < 0 or m < 0:
        raise ValueError(f"rising_factorial: need r, m >= 0, got ({r}, {m})")
    out = 1
    for t in range(m):
        out *= r + t
    return out


class BernoulliTable:
    """Grow-on-demand cache of Bernoulli numbers, B_1 = -1/2 convention.

    Even indices come from the tangent numbers T_1, T_2, ... (Brent and
    Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
    2011): B_2t = (-1)^(t-1) 2t T_t / (4^t (4^t - 1)).  The tangent numbers
    are the last entries of the columns of an integer triangle,

        col_1 = (1),  col_j[0] = (j-1) col_{j-1}[0],
        col_j[s] = (j-s-1) col_{j-1}[s] + (j-s+1) col_j[s-1]   (1 <= s < j),

    and T_j = col_j[j-1]; only the latest column is kept, so growth by one
    index costs O(j) integer operations.  Odd indices above 1 are zero.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._column: list[int] = []  # col_t of the last tangent number T_t computed
        self._lock = threading.Lock()

    def _grow_column(self) -> None:
        prev = self._column
        j = len(prev) + 1
        col = [(j - 1) * prev[0]] if prev else [1]
        for s in range(1, j - 1):
            col.append((j - s - 1) * prev[s] + (j - s + 1) * col[-1])
        if j > 1:
            col.append(2 * col[-1])
        self._column = col

    def value(self, j: int) -> Fraction:
        if j < 0:
            raise ValueError(f"bernoulli index must be >= 0, got {j}")
        if j >= len(self._values):
            with self._lock:
                while len(self._values) <= j:
                    k = len(self._values)
                    if k == 1:
                        self._values.append(Fraction(-1, 2))
                    elif k % 2:
                        self._values.append(Fraction(0))
                    else:
                        t = k // 2
                        while len(self._column) < t:
                            self._grow_column()
                        four = 4**t
                        self._values.append(
                            Fraction(sign_pow(t - 1) * k * self._column[-1], four * (four - 1))
                        )
        return self._values[j]


class StirlingTable:
    """r-Stirling numbers of the first kind, one triangle of rows per r.

    [m, n]_r counts the permutations of m elements with n cycles in which the
    r smallest elements lie in distinct cycles (Broder, "The r-Stirling
    numbers", 1984).  The boundary is [r, n]_r = 1 iff n = r, and

        [m+1, n]_r = m [m, n]_r + [m, n-1]_r   (m >= r).

    At r = 0 this is the plain unsigned triangle [m, n].  Row m of triangle r
    is the tuple ([m, 0]_r, ..., [m, m]_r).  Rows already grown are read
    without the lock; growth appends whole rows under it.
    """

    def __init__(self) -> None:
        self._rows: dict[int, list[tuple[int, ...]]] = {}  # r -> rows for m = r, r+1, ...
        self._lock = threading.Lock()

    def row(self, m: int, r: int = 0) -> tuple[int, ...]:
        if r < 0 or m < r:
            raise ValueError(f"Stirling row needs 0 <= r <= m, got m={m}, r={r}")
        rows = self._rows.get(r)
        if rows is None or len(rows) <= m - r:
            with self._lock:
                rows = self._rows.setdefault(r, [(0,) * r + (1,)])
                while len(rows) <= m - r:
                    prev = rows[-1]
                    mm = r + len(rows) - 1
                    rows.append(tuple(mm * a + b for a, b in zip((*prev, 0), (0, *prev))))
        return rows[m - r]

    def value(self, m: int, n: int, r: int = 0) -> int:
        row = self.row(m, r)
        return row[n] if 0 <= n <= m else 0


_BERNOULLI = BernoulliTable()
_STIRLING = StirlingTable()

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
    return _BERNOULLI.value(j)


@memo
def _bernoulli_rows() -> tuple[list[tuple[tuple[int, ...], int]], threading.Lock]:
    """(rows, lock): rows[n] is the value of :func:`bernoulli_row` at n, grown in
    order under the lock.  A memo, so that the flush starts the rows over."""
    return [((0,), 1)], threading.Lock()


def bernoulli_row(n: int) -> tuple[tuple[int, ...], int]:
    """(row, D): row[k] = D C(n, k) B_{n-k} for 1 <= k <= n and row[0] = 0, the
    coefficients of B_n(x) - B_n over D, the lcm of the denominators of B_0..B_{n-1}.

    Row n reads B_0..B_{n-1} only.  It is grown from row n-1 by the Appell
    step B_n'(x) = n B_{n-1}(x): with D_n = lcm(D_{n-1}, den B_{n-1}),
    row_n[1] = n D_n B_{n-1} and row_n[k] = (n/k) (D_n/D_{n-1}) row_{n-1}[k-1]
    for k >= 2, an exact division, so a zero Bernoulli number gives a zero
    entry.  A row already grown is returned without the lock.
    """
    if n < 0:
        raise ValueError(f"Bernoulli row index must be >= 0, got {n}")
    rows, lock = _bernoulli_rows()
    if n >= len(rows):
        with lock:
            for p in range(len(rows), n + 1):
                prev, den = rows[-1]
                b = bernoulli(p - 1)
                d = lcm(den, b.denominator)
                scale = p * (d // den)
                low = [scale * a // k for k, a in enumerate(prev[1:], 2)]
                rows.append(((0, p * b.numerator * (d // b.denominator), *low), d))
    return rows[n]


def stirling1_unsigned(m: int, n: int) -> int:
    """Unsigned Stirling number of the first kind [m, n]; 0 when n > m."""
    if m < 0 or n < 0:
        raise ValueError(f"stirling1_unsigned: need m, n >= 0, got ({m}, {n})")
    return _STIRLING.value(m, n)


def stirling1_row(m: int) -> tuple[int, ...]:
    """Row ([m, 0], ..., [m, m]) of the unsigned first-kind triangle."""
    return _STIRLING.row(m)


def r_stirling1(m: int, n: int, r: int) -> int:
    """r-Stirling number of the first kind [m, n]_r (requires m >= r)."""
    return _STIRLING.value(m, n, r)


# --- JSON serialization -----------------------------------------------------
#
# A rational serializes as a two-element array of decimal strings
# ["num", "den"], denominator positive, canonical form.


def rational_to_json(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def rational_from_json(obj: object) -> Fraction:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(s, str) for s in obj)
    ):
        raise ValueError(f"not a serialized rational: {obj!r}")
    num, den = int(obj[0]), int(obj[1])
    if den <= 0:
        raise ValueError(f"serialized rational must have positive denominator: {obj!r}")
    return Fraction(num, den)
