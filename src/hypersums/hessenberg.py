"""The lower Hessenberg matrix behind the determinantal hyper-sum formula.

For parameters m >= 1 and r >= 0 the matrix has order m-1 with entries that
are (at most linear) polynomials in the centered variable N = n + r/2:

* diagonal, row i (1-indexed):      -(i+1) N
* superdiagonal, row i:             r + i + 1
* below the diagonal, (i, j):       r C(i+1, j) B_{i+1-j}

Row i below the diagonal is r times the Bernoulli polynomial row i+1 of
:func:`~hypersums.exactnum.bernoulli_row`, read up to column i-1.  One
function, :func:`_row`, writes a row up to the diagonal, in integers:
:func:`build_matrix` wraps it into polynomials and the minor table reads it as is.
The zero entries visible in small instances are Bernoulli zeros (odd-index
Bernoulli numbers vanish).  Determinants come from one recurrence,
:func:`_minor`, the division-free leading-principal-minor recurrence: exact
over the polynomial ring, O(order^2) ring operations, each minor one
:func:`~hypersums.polyring.sum_of_products`.  :func:`det` runs it on any
given matrix.  The entries depend on (i, j, r) alone, so the matrix for
(m, r) is the leading block of the matrix for every larger m, and its
leading principal minors at r are one in-order table, an
:class:`~hypersums.exactnum.GrownTable`, that :func:`leading_minor` reads.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactnum import DomainError, GrownTable, bernoulli_row, memo
from .polyring import RatPoly, poly_to_json, sum_of_products, to_text


class HessenbergMatrix(namedtuple("HessenbergMatrix", "m r entries")):
    """Square lower Hessenberg matrix of order m - 1, entries RatPolys in frame r."""

    __slots__ = ()

    def __new__(cls, m: int, r: int, entries: tuple) -> HessenbergMatrix:
        order = len(entries)
        if m != order + 1:
            raise ValueError(f"a matrix of order {order} belongs to m = {order + 1}, not {m}")
        for i, row in enumerate(entries):
            if len(row) != order:
                raise ValueError("matrix must be square")
            for j, e in enumerate(row):
                if e.r != r:
                    raise ValueError(f"entry ({i + 1}, {j + 1}) is in frame r = {e.r}, not {r}")
                if j > i + 1 and not e.is_zero():
                    raise ValueError(
                        f"entry ({i + 1}, {j + 1}) above the superdiagonal is nonzero"
                    )
        return super().__new__(cls, m, r, entries)

    @property
    def order(self) -> int:
        return len(self.entries)


def _row(i: int, r: int) -> tuple[tuple, int]:
    """Row i up to the diagonal, in integers over the D of ``bernoulli_row(i + 1)``:
    D h[i, j] for j < i, then the diagonal -(i+1) N as the integer row ((0, -i-1), 1).
    :func:`build_matrix` and the minor table both read it."""
    nums, den = bernoulli_row(i + 1)
    return (*(r * a for a in nums[1:i]), ((0, -i - 1), 1)), den


def _check_params(m: int, r: int) -> None:
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")


def build_matrix(m: int, r: int) -> HessenbergMatrix:
    """The order m-1 matrix for parameters (m, r); empty when m = 1.

    Entries are the integers of :func:`_row`; the zero entries, above the
    superdiagonal and below the diagonal alike, are one shared zero polynomial.
    """
    _check_params(m, r)
    order = m - 1
    zero = RatPoly.from_integers((), 1, "N", r)
    rows = []
    for i in range(1, order + 1):
        (*below, diagonal), den = _row(i, r)
        row = [RatPoly.from_integers((a,), den, "N", r) if a else zero for a in below]
        sup = RatPoly.from_integers((r + i + 1,), 1, "N", r)
        row += (RatPoly.from_integers(*diagonal, "N", r), sup)
        rows.append((*row[:order], *(zero,) * (order - i - 1)))
    return HessenbergMatrix(m, r, tuple(rows))


def _number(e: RatPoly):
    """An entry of degree <= 0 as its int or Fraction value; any other entry as itself."""
    if len(e.numerators) > 1:
        return e
    a = e.numerators[0] if e.numerators else 0
    return a if e.denominator == 1 else Fraction(a, e.denominator)


def _minor(minors: list[RatPoly], row, den: int, sup) -> RatPoly:
    """p_k for k = len(minors) >= 1, from p_0 ... p_(k-1) = ``minors``:

        p_k = h[k,k] p_(k-1)
              + sum_{j=1}^{k-1} (-1)^(k-j) h[k,j] (prod_{t=j}^{k-1} h[t,t+1]) p_(j-1).

    ``row[k-1]`` is the diagonal entry h[k,k], a kernel factor; for j < k,
    ``row[j-1]`` is den h[k,j], a number, or a polynomial when den = 1; and
    ``sup[t-1]`` is h[t,t+1] for t < k.  The signed superdiagonal product gains
    one factor as j runs down from k - 1, so no state is kept between rows.
    The sum is one :func:`~hypersums.polyring.sum_of_products`, and the terms
    whose entry h[k,j] is zero are left out.
    """
    k = len(minors)
    pairs = [(row[k - 1], minors[k - 1])]
    signed = 1
    for j in range(k - 1, 0, -1):
        signed *= -sup[j - 1]
        a = row[j - 1]
        # a polynomial entry has degree >= 1 here, so only a number can be zero
        if a:
            a *= signed
            pairs.append((((a,), den) if den > 1 else a, minors[j - 1]))
    return sum_of_products(pairs, "N", minors[0].r)


def det(h: HessenbergMatrix) -> RatPoly:
    """Exact determinant: p_order of the recurrence of :func:`_minor`, from p_0 = 1.

    The empty matrix has determinant 1.  Constant entries enter the products
    as numbers, so on a :func:`build_matrix` matrix, constant off the
    diagonal, no two polynomials are multiplied.
    """
    rows = [[_number(e) for e in row[: k + 1]] for k, row in enumerate(h.entries, 1)]
    sup = [row[t] for t, row in enumerate(rows[:-1], 1)]
    minors = [RatPoly((1,), "N", h.r)]
    for row in rows:
        minors.append(_minor(minors, row, 1, sup))
    return minors[-1]


@memo
def _minor_table(r: int) -> GrownTable:
    """p_0, p_1, ... at r, grown in order: p_k = det(build_matrix(k + 1, r)).

    Row k is fed as :func:`_row` gives it, integers over the D of the Bernoulli
    row k + 1, so a minor is a sum of integer rows over D times earlier minors,
    with no polynomial product.  A memo, so that the flush starts the table over.
    """

    def step(minors: list[RatPoly]) -> RatPoly:
        k = len(minors)
        row, den = _row(k, r)
        return _minor(minors, row, den, range(r + 2, r + k + 1))

    return GrownTable(RatPoly((1,), "N", r), step)


def leading_minor(order: int, r: int) -> RatPoly:
    """det(build_matrix(order + 1, r)), the minor p_order of every (m, r) matrix
    with m > order, read from the table of r; a refused (order, r) makes no table."""
    _check_params(order + 1, r)
    return _minor_table(r)[order]


def map_entries(h: HessenbergMatrix, fn) -> list[list]:
    """``fn`` of each entry, row-major, called once per distinct (integers, frame) key."""
    firsts = {(e.numerators, e.denominator, e.var, e.r): e for row in h.entries for e in row}
    done = {key: fn(e) for key, e in firsts.items()}
    return [[done[e.numerators, e.denominator, e.var, e.r] for e in row] for row in h.entries]


def matrix_to_text(h: HessenbergMatrix, at: Fraction | None = None) -> str:
    """Aligned pretty-print with exact entries, or with their values at ``at``."""
    if h.order == 0:
        return "( )  # empty matrix, order 0"
    cells = map_entries(h, to_text if at is None else lambda e: str(e.eval(at)))
    widths = [max(len(cells[i][j]) for i in range(h.order)) for j in range(h.order)]
    lines = []
    for row in cells:
        body = "  ".join(s.rjust(w) for s, w in zip(row, widths))
        lines.append(f"( {body} )")
    return "\n".join(lines)


def matrix_to_json(h: HessenbergMatrix) -> dict:
    """Row-major JSON export; entries follow the polynomial schema, and equal
    entries share one object."""
    return {"m": h.m, "r": h.r, "order": h.order, "entries": map_entries(h, poly_to_json)}
