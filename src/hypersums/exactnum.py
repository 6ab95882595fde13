"""Exact scalars and the combinatorial number tables.

Every quantity in this package is an exact rational; the scalar type is
``fractions.Fraction`` (re-exported as :data:`Rational`), which is always
canonical: gcd(|num|, den) = 1, den >= 1, zero is 0/1.

Bernoulli numbers use the B_1 = -1/2 convention throughout.  This matters:
with B_1 = +1/2 the power-sum formula used by the polynomial routes would be
silently wrong.  Tables grow on demand and are cached; growth is serialized
behind a lock so concurrent readers always see consistent values.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Callable

Rational = Fraction

__all__ = [
    "Rational",
    "binomial",
    "rising_factorial",
    "bernoulli",
    "stirling1_unsigned",
    "stirling1_row",
    "r_stirling1",
    "register_cache",
    "clear_derived_caches",
    "rational_to_json",
    "rational_from_json",
]


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
    """Unsigned Stirling numbers of the first kind, plus the r-shifted variant.

    Plain rows satisfy [0,0] = 1, [m,0] = 0 for m >= 1, and
    [m+1, n] = m*[m, n] + [m, n-1].  The r-variant [m, n]_r (the r smallest
    elements of the permutation lie in distinct cycles) has boundary
    [r, n]_r = 1 iff n = r and the same recurrence for m >= r.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._r_rows: dict[int, list[list[int]]] = {}
        self._lock = threading.Lock()

    def row(self, m: int) -> tuple[int, ...]:
        if m < 0:
            raise ValueError(f"stirling row index must be >= 0, got {m}")
        if m >= len(self._rows):
            with self._lock:
                while len(self._rows) <= m:
                    prev = self._rows[-1]
                    mm = len(self._rows) - 1
                    cur = [0] * (mm + 2)
                    for n in range(mm + 2):
                        above = prev[n] if n < len(prev) else 0
                        left = prev[n - 1] if 1 <= n <= len(prev) else 0
                        cur[n] = mm * above + left
                    self._rows.append(tuple(cur))
        return self._rows[m]

    def value(self, m: int, n: int) -> int:
        if n < 0 or n > m:
            return 0
        return self.row(m)[n]

    def r_value(self, m: int, n: int, r: int) -> int:
        if r < 0:
            raise ValueError(f"r_stirling1: r must be >= 0, got {r}")
        if m < r:
            raise ValueError(f"r_stirling1: need m >= r, got m={m}, r={r}")
        if r == 0:
            return self.value(m, n)
        rows = self._r_rows_for(r, m)
        row = rows[m - r]
        if n < 0 or n >= len(row) + r:
            return 0
        return row[n - r] if n >= r else 0

    def _r_rows_for(self, r: int, m: int) -> list[list[int]]:
        with self._lock:
            rows = self._r_rows.setdefault(r, [[1]])  # row for m = r: [r,r]_r = 1
            while len(rows) <= m - r:
                prev = rows[-1]
                mm = r + len(rows) - 1
                cur = [0] * (len(prev) + 1)
                for idx in range(len(cur)):
                    above = prev[idx] if idx < len(prev) else 0
                    left = prev[idx - 1] if 1 <= idx <= len(prev) else 0
                    cur[idx] = mm * above + left
                rows.append(cur)
            return rows


_BERNOULLI = BernoulliTable()
_STIRLING = StirlingTable()

_DERIVED_CACHES: list[Callable[[], None]] = []


def register_cache(clear_fn: Callable[[], None]) -> None:
    """Register a cache-clearing callback (used by dependent modules)."""
    _DERIVED_CACHES.append(clear_fn)


def clear_derived_caches() -> None:
    for fn in _DERIVED_CACHES:
        fn()


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with B_0 = 1, B_1 = -1/2 (memoized)."""
    return _BERNOULLI.value(j)


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
    return _STIRLING.r_value(m, n, r)


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
