"""The lower Hessenberg matrix behind the determinantal hyper-sum formula.

For parameters m >= 1 and r >= 0 the matrix has order m-1 with entries that
are (at most linear) polynomials in the centered variable N = n + r/2:

* diagonal, row i (1-indexed):      -(i+1) N
* superdiagonal, row i:             r + i + 1
* below the diagonal, (i, j):       r C(i+1, j) B_{i+1-j}

Row i below the diagonal is r times the Bernoulli polynomial row i+1 of
:func:`~hypersums.exactnum.bernoulli_row`, read up to column i-1.
The zero entries visible in small instances are Bernoulli zeros (odd-index
Bernoulli numbers vanish).  Determinants are evaluated by the division-free
leading-principal-minor recurrence, which is exact over the polynomial ring
and O(order^2) ring operations.  Each minor is one
:func:`~hypersums.polyring.sum_of_products`: its products are accumulated
in integers over one common denominator and normalised once, and the
terms with a zero entry are skipped.

The entries depend on (i, j, r) alone, so the matrix for (m, r) is the
leading block of the matrix for every larger m, and its leading principal
minors are shared: :func:`leading_minor` memoises them per (order, r).
There the superdiagonal product h[j,j+1] ... h[k-1,k] = (r+j+1) ... (r+k)
is a plain integer and the entry below the diagonal an integer over its
Bernoulli row's D, so a minor is a sum of integer rows over D times earlier
minors, normalised once, with no polynomial product.  :func:`det` evaluates
any given matrix by the same recurrence, with its constant entries as
numbers, and is the reference the memoised minors are tested against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactnum import DomainError, bernoulli_row, memo
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


def _row(i: int, r: int, zero: RatPoly) -> tuple[RatPoly, ...]:
    """Entries (i, 1) ... (i, i+1) of row i, through the superdiagonal; a zero
    entry below the diagonal (r = 0, or a zero Bernoulli number) is ``zero``."""
    p = i + 1
    nums, den = bernoulli_row(p)
    below = [RatPoly.from_integers((r * a,), den, "N", r) if r * a else zero for a in nums[1:i]]
    diagonal = RatPoly.from_integers((0, -p), 1, "N", r)
    return (*below, diagonal, RatPoly.from_integers((r + p,), 1, "N", r))


def _check_params(m: int, r: int) -> None:
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")


def build_matrix(m: int, r: int) -> HessenbergMatrix:
    """The order m-1 matrix for parameters (m, r); empty when m = 1.

    Entries are built from integers; the zero entries, above the
    superdiagonal and below the diagonal alike, are one shared zero polynomial.
    """
    _check_params(m, r)
    order = m - 1
    zero = RatPoly.from_integers((), 1, "N", r)
    rows = tuple(
        (*_row(i, r, zero)[:order], *(zero,) * (order - i - 1)) for i in range(1, order + 1)
    )
    return HessenbergMatrix(m, r, rows)


def _number(e: RatPoly):
    """An entry of degree <= 0 as its int or Fraction value; any other entry as itself."""
    if len(e.numerators) > 1:
        return e
    a = e.numerators[0] if e.numerators else 0
    return a if e.denominator == 1 else Fraction(a, e.denominator)


def det(h: HessenbergMatrix) -> RatPoly:
    """Exact determinant via the leading-principal-minor recurrence.

    p_0 = 1 and, for 1 <= k <= order,

        p_k = h[k,k] p_{k-1}
              + sum_{j=1}^{k-1} (-1)^(k-j) h[k,j] (prod_{t=j}^{k-1} h[t,t+1]) p_{j-1}.

    The empty matrix has determinant 1.  Each p_k is one sum of products of
    (entry times signed superdiagonal product, earlier minor) pairs, reduced
    once; the terms whose entry h[k,j] is zero are left out.  Constant entries
    enter the products as numbers, so on a :func:`build_matrix` matrix,
    constant off the diagonal, no two polynomials are multiplied.
    """
    minors = [RatPoly((1,), "N", h.r)]
    # signed[j-1] = (-1)^(k-j) prod_{t=j}^{k-1} h[t,t+1] for j < k = len(minors)
    signed: tuple = ()
    for row in h.entries:
        k = len(minors)
        row = [_number(e) for e in row[: k + 1]]
        pairs = [(row[k - 1], minors[k - 1])]
        # a polynomial entry has degree >= 1 here, so only a number can be zero
        pairs += [(row[j] * signed[j], minors[j]) for j in range(k - 1) if row[j]]
        minors.append(sum_of_products(pairs, "N", h.r))
        if k < h.order:
            neg_sup = -row[k]
            signed = (*(prod * neg_sup for prod in signed), neg_sup)
    return minors[-1]


@memo
def leading_minor(order: int, r: int) -> RatPoly:
    """det(build_matrix(order + 1, r)): p_order of every (m, r) matrix with
    m > order, memoised per (order, r).

    Row k = order of the recurrence in :func:`det` with the superdiagonal
    entries h[t,t+1] = r+t+1 multiplied out in integers: the term of column
    j < k is one number, (-1)^(k-j) (r+j+1)...(r+k) h[k,j], times p_{j-1},
    and the integer product gains one factor as j runs down from k-1.  With
    h[k,j] = r row[j] / D from the Bernoulli polynomial row k+1, that number
    is an integer row over D; a zero entry (a zero Bernoulli number, or
    r = 0) adds no term.  A refused (order, r) leaves no entry.
    """
    _check_params(order + 1, r)
    if order == 0:
        return RatPoly((1,), "N", r)
    k, p = order, order + 1
    minors = [leading_minor(j, r) for j in range(k)]
    nums, den = bernoulli_row(p)
    pairs = [(((0, -p), 1), minors[k - 1])]
    signed = r
    for j in range(k - 1, 0, -1):
        signed *= -(r + j + 1)
        if nums[j]:
            pairs.append((((signed * nums[j],), den), minors[j - 1]))
    return sum_of_products(pairs, "N", r)


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
