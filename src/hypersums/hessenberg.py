"""The lower Hessenberg matrix behind the determinantal hyper-sum formula.

For parameters m >= 1 and r >= 0 the matrix has order m-1 with entries that
are (at most linear) polynomials in the centered variable N = n + r/2:

* diagonal, row i (1-indexed):      -(i+1) N
* superdiagonal, row i:             r + i + 1
* below the diagonal, (i, j):       r C(i+1, j) B_{i+1-j}

The zero entries visible in small instances are Bernoulli zeros (odd-index
Bernoulli numbers vanish).  Determinants are evaluated by the division-free
leading-principal-minor recurrence, which is exact over the polynomial ring
and O(order^2) ring operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import bernoulli, binomial, sign_pow
from .polyring import RatPoly, constant, poly, to_text, poly_to_json


@dataclass(frozen=True)
class HessenbergMatrix:
    """Square lower Hessenberg matrix with RatPoly entries (bandwidth 1 above)."""

    m: int
    r: int
    entries: tuple[tuple[RatPoly, ...], ...]

    def __post_init__(self) -> None:
        order = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != order:
                raise ValueError("matrix must be square")
            for j, e in enumerate(row):
                if j > i + 1 and not e.is_zero():
                    raise ValueError(
                        f"entry ({i + 1}, {j + 1}) above the superdiagonal is nonzero"
                    )

    @property
    def order(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> RatPoly:
        """1-indexed access."""
        return self.entries[i - 1][j - 1]


def build_matrix(m: int, r: int) -> HessenbergMatrix:
    """The order m-1 matrix for parameters (m, r); empty when m = 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    order = m - 1
    empty = poly([], "N", r)
    rows = []
    for i in range(1, order + 1):
        p = i + 1
        row = []
        for j in range(1, order + 1):
            if j == i:
                row.append(poly([0, -p], "N", r))
            elif j == i + 1:
                row.append(constant(r + p, "N", r))
            elif j < i:
                row.append(constant(r * binomial(p, j) * bernoulli(p - j), "N", r))
            else:
                row.append(empty)
        rows.append(tuple(row))
    return HessenbergMatrix(m, r, tuple(rows))


def det(h: HessenbergMatrix) -> RatPoly:
    """Exact determinant via the leading-principal-minor recurrence.

    p_0 = 1 and, for 1 <= k <= order,

        p_k = h[k,k] p_{k-1}
              + sum_{j=1}^{k-1} (-1)^(k-j) h[k,j] (prod_{t=j}^{k-1} h[t,t+1]) p_{j-1}.

    The empty matrix has determinant 1.
    """
    order = h.order
    frame_r = h.entries[0][0].r if order else h.r
    minors: list[RatPoly] = [constant(1, "N", frame_r)]
    # super_prod[j] accumulates prod_{t=j}^{k-1} h[t,t+1], updated as k grows
    super_prods: list[RatPoly] = []
    for k in range(1, order + 1):
        if k >= 2:
            sup = h.entry(k - 1, k)
            super_prods = [prod * sup for prod in super_prods]
            super_prods.append(sup)  # j = k-1
        acc = h.entry(k, k) * minors[k - 1]
        for j in range(1, k):
            term = h.entry(k, j) * super_prods[j - 1] * minors[j - 1]
            acc = acc + term.scale(sign_pow(k - j))
        minors.append(acc)
    return minors[order]


def evaluate_matrix(h: HessenbergMatrix, value: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Entries with the variable substituted by a concrete value."""
    return tuple(tuple(e.eval(value) for e in row) for row in h.entries)


def matrix_to_text(h: HessenbergMatrix) -> str:
    """Aligned pretty-print with exact entries."""
    if h.order == 0:
        return "( )  # empty matrix, order 0"
    cells = [[to_text(e) for e in row] for row in h.entries]
    widths = [max(len(cells[i][j]) for i in range(h.order)) for j in range(h.order)]
    lines = []
    for row in cells:
        body = "  ".join(s.rjust(w) for s, w in zip(row, widths))
        lines.append(f"( {body} )")
    return "\n".join(lines)


def matrix_to_json(h: HessenbergMatrix) -> dict:
    """Row-major JSON export; entries follow the polynomial schema."""
    return {
        "m": h.m,
        "r": h.r,
        "order": h.order,
        "entries": [[poly_to_json(e) for e in row] for row in h.entries],
    }
