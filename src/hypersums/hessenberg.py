"""The lower Hessenberg matrix behind the determinantal hyper-sum formula.

For parameters m >= 1 and r >= 0 the matrix has order m-1 with entries that
are (at most linear) polynomials in the centered variable N = n + r/2:

* diagonal, row i (1-indexed):      -(i+1) N
* superdiagonal, row i:             r + i + 1
* below the diagonal, (i, j):       r C(i+1, j) B_{i+1-j}

The zero entries visible in small instances are Bernoulli zeros (odd-index
Bernoulli numbers vanish).  Determinants are evaluated by the division-free
leading-principal-minor recurrence, which is exact over the polynomial ring
and O(order^2) ring operations.  Each minor is one
:func:`~hypersums.polyring.sum_of_products`: its products are accumulated
in integers over one common denominator and normalised once, and the
terms with a zero entry are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import bernoulli, binomial
from .polyring import RatPoly, constant, poly_to_json, sum_of_products, to_text


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
    """The order m-1 matrix for parameters (m, r); empty when m = 1.

    Entries are built from integers; every zero entry is one shared zero
    polynomial.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    order = m - 1
    zero = RatPoly.from_integers((), 1, "N", r)
    rows = []
    for i in range(1, order + 1):
        p = i + 1
        row = [zero] * order
        for j in range(1, i):
            b = bernoulli(p - j)
            if r and b:
                row[j - 1] = RatPoly.from_integers(
                    (r * binomial(p, j) * b.numerator,), b.denominator, "N", r
                )
        row[i - 1] = RatPoly.from_integers((0, -p), 1, "N", r)
        if i < order:
            row[i] = RatPoly.from_integers((r + p,), 1, "N", r)
        rows.append(tuple(row))
    return HessenbergMatrix(m, r, tuple(rows))


def det(h: HessenbergMatrix) -> RatPoly:
    """Exact determinant via the leading-principal-minor recurrence.

    p_0 = 1 and, for 1 <= k <= order,

        p_k = h[k,k] p_{k-1}
              + sum_{j=1}^{k-1} (-1)^(k-j) h[k,j] (prod_{t=j}^{k-1} h[t,t+1]) p_{j-1}.

    The empty matrix has determinant 1.  Each p_k is one sum of products of
    (entry times signed superdiagonal product, earlier minor) pairs, reduced
    once; the terms whose entry h[k,j] is zero are left out.
    """
    order = h.order
    frame_r = h.entries[0][0].r if order else h.r
    minors: list[RatPoly] = [constant(1, "N", frame_r)]
    # signed_prods[j-1] = (-1)^(k-j) prod_{t=j}^{k-1} h[t,t+1], updated as k grows
    signed_prods: list[RatPoly] = []
    for k in range(1, order + 1):
        row = h.entries[k - 1]
        if k >= 2:
            neg_sup = -h.entry(k - 1, k)
            signed_prods = [prod * neg_sup for prod in signed_prods]
            signed_prods.append(neg_sup)  # j = k-1
        pairs = [(row[k - 1], minors[k - 1])]
        pairs += [
            (row[j] * signed_prods[j], minors[j]) for j in range(k - 1) if row[j].numerators
        ]
        minors.append(sum_of_products(pairs, "N", frame_r))
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
