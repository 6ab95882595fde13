"""All computation routes for hyper-sums of powers of integers.

The r-fold iterated power sum is defined by S(m, 0, n) = n^m and
S(m, r, n) = sum_{i=1}^{n} S(m, r-1, i).  As a function of n it is a
polynomial of degree m + r without constant term (for r >= 1), and this
module produces that polynomial by five independent methods:

* ``hyper_sum_poly_q``     -- expansion over ordinary power sums with
                              Stirling-weighted polynomial coefficients,
* ``hyper_sum_poly_c``     -- explicit coefficient formula, a sum of r products
                              of Stirling and Bernoulli polynomials,
* ``hyper_sum_poly_chain`` -- coefficient recurrence lifting r by one at a time,
* ``lemma_recurrence_family`` -- the Bernoulli-weighted recurrence on the
                              centered factor G in N_r = n + r/2,
* ``hyper_sum_det``        -- Hessenberg determinant formula.

All routes return polynomials in the n-frame; the centered (N) and product
(u = n(n+r)) frames are produced by explicit conversions so that
cross-method comparison is always same-frame.  The paper's centered factor G,
with S(m, r, n) = S(1, r, n) G(n + r/2), is a plain ``RatPoly``; the ``lemma`` and
``det`` routes grow G in m, in one ``GrownTable`` per r, which is all they cache.
The served path, the Newton weights and what is built from them alone, lives in
:mod:`hypersums.newton`: the routes read its ``det_to_factor`` and ``expand_factor``
through that module, and its public names are re-exported here.
Everything is exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, factorial, lcm

from . import hessenberg, newton
from .exactnum import (
    DomainError,
    GrownTable,
    Rational,
    bernoulli_row,
    memo,
    sign_pow,
    stirling1_row,
)
from .newton import (  # noqa: F401  re-exported: callers of hypersum keep these names
    det_to_factor,
    expand_factor,
    faulhaber_u_form,
    hyper_sum_newton,
    newton_factor,
    newton_weights,
    s1_poly,
)
from .polyring import RatPoly, sum_of_products, to_N_frame

# -- structured results -------------------------------------------------------


class HyperSumPoly(namedtuple("HyperSumPoly", "m r poly")):
    """S(m, r, n) as a polynomial in n; the route that built it is named by its ``ROUTES`` key."""

    __slots__ = ()


# -- the defining recursion (value oracle) ------------------------------------


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


def s1_closed(r: int, n: int) -> Rational:
    """S(1, r, n) = C(n+r, r+1)."""
    return Fraction(comb(n + r, r + 1))


def s2_closed(r: int, n: int) -> Rational:
    """S(2, r, n) = (2n+r)/(r+2) * C(n+r, r+1)."""
    return Fraction(2 * n + r, r + 2) * comb(n + r, r + 1)


# -- power sums and the expansion over them -----------------------------------


@memo
def power_sum_poly(m: int) -> RatPoly:
    """The ordinary power sum 1^m + ... + n^m as a polynomial in n.

    Computed from the Bernoulli-number formula
    S_m(n) = (1/(m+1)) sum_{t=1}^{m+1} (-1)^(m+1-t) C(m+1, t) B_{m+1-t} n^t,
    the Bernoulli polynomial row m+1 with alternating signs.
    """
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    row, den = bernoulli_row(m + 1)
    nums = list(row)
    nums[m % 2 :: 2] = [-a for a in nums[m % 2 :: 2]]  # (-1)^(m+1-t)
    return RatPoly.from_integers(nums, (m + 1) * den)


@memo
def q_poly(r: int, i: int) -> RatPoly:
    """Weight polynomial of degree r-i multiplying the (m+i)-th power sum.

    q_{r,i}(n) = sum_{j=0}^{r-i} C(i+j, i) [r+1, i+j+1] n^j over the unsigned
    first-kind Stirling triangle; q_{0,0} = 1.
    """
    if i < 0 or i > r:
        raise DomainError(f"need 0 <= i <= r, got (r={r}, i={i})")
    row = stirling1_row(r + 1)
    return RatPoly.from_integers([comb(i + j, i) * row[i + j + 1] for j in range(r - i + 1)], 1)


@memo
def hyper_sum_poly_q(m: int, r: int) -> HyperSumPoly:
    """S(m, r) via the alternating expansion over ordinary power sums.

    S(m, r, n) = (1/(r-1)!) sum_{i=0}^{r-1} (-1)^i q_{r-1,i}(n) S_{m+i}(n).
    Note the index shift: weights of order r-1 produce the r-fold sum.
    Memoised: this build is both the ``q`` route and :func:`hyper_sum_poly`.
    """
    if r < 1:
        raise DomainError(f"the power-sum expansion needs r >= 1, got {r}")
    weight = factorial(r - 1)
    pairs = []
    for i in range(r):
        q = q_poly(r - 1, i)
        signed = tuple(-a for a in q.numerators) if i % 2 else q.numerators
        pairs.append(((signed, weight * q.denominator), power_sum_poly(m + i)))
    return HyperSumPoly(m, r, sum_of_products(pairs))


# -- explicit coefficients ----------------------------------------------------


@memo
def _c_weights(r: int) -> tuple[tuple[int, ...], ...]:
    """The integer coefficients of W_i(x) = sum_{j<r-i} (-1)^j C(i+j, i) [r, i+j+1] x^j
    for i < r, over the unsigned first-kind Stirling row [r, .]."""
    row = stirling1_row(r)
    return tuple(
        tuple(sign_pow(j) * comb(i + j, i) * row[i + j + 1] for j in range(r - i))
        for i in range(r)
    )


def hyper_sum_poly_c(m: int, r: int) -> HyperSumPoly:
    """S(m, r) from the explicit coefficients c^1, ..., c^{m+r}.

    c^k is (-1)^(m+1-k) / (r-1)! times the coefficient of x^k in the sum of
    r products W_i(x) P_i(x), with W_i from :func:`_c_weights` and
    P_i(x) = sum_{e>=1} C(m+i+1, e) B_{m+i+1-e} x^e / (m+i+1), the Bernoulli
    polynomial row m+i+1 over m+i+1.  The r products are one kernel call.
    """
    if m < 0 or r < 1:
        raise DomainError(f"need m >= 0 and r >= 1, got ({m}, {r})")
    pairs = []
    for i, weights in enumerate(_c_weights(r)):
        row, den = bernoulli_row(m + i + 1)
        # the row's D divides the short W_i: reducing the long row by it would cost more
        pairs.append(((weights, den), (row, m + i + 1)))
    total = sum_of_products(pairs)
    nums = list(total.numerators)
    nums[m % 2 :: 2] = [-a for a in nums[m % 2 :: 2]]  # (-1)^(m+1-k)
    poly = RatPoly.from_integers(nums, factorial(r - 1) * total.denominator)
    return HyperSumPoly(m, r, poly)


def hyper_sum_poly_chain(m: int, r: int) -> HyperSumPoly:
    """S(m, r) by chaining the coefficient recurrence up from r = 1.

    The coefficient vectors (c^1, ..., c^{m+i+s}) of S(m+i, s) are lifted
    from s to s + 1 by

        c_{m,s+1}^k = c_{m,s}^k + (1/s)(c_{m,s}^{k-1} - c_{m+1,s}^k),

    with out-of-range indices read as zero.  The power sums S(m+i, 1),
    i < r, are scaled once to D, the lcm of their denominators.  Then every
    vector at level s shares the denominator D (s-1)!: with a and b the
    numerators of S(m+i, s) and S(m+i+1, s), those of S(m+i, s+1) over
    D s! are s a[k] + a[k-1] - b[k], with no gcd or division per step.  The
    result is normalised once, at the end.
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    sums = [power_sum_poly(m + i) for i in range(r)]
    den = lcm(*(p.denominator for p in sums))
    vectors = [[a * (den // p.denominator) for a in p.numerators[1:]] for p in sums]
    for s in range(1, r):
        vectors = [
            [s * x + y - z for x, y, z in zip((*a, 0), (0, *a), b)]
            for a, b in zip(vectors, vectors[1:])
        ]
    nums = [0, *vectors[0]]
    return HyperSumPoly(m, r, RatPoly.from_integers(nums, den * factorial(r - 1)))


# -- the centered-variable recurrence -----------------------------------------


@memo
def _lemma_table(r: int) -> GrownTable:
    """G(1, r), G(2, r), ... at r, grown in order by the centered recurrence of
    :func:`lemma_recurrence_family`.  Zero Bernoulli terms are skipped by value.
    A memo, so that the flush starts the table over."""

    def step(lower: list[RatPoly]) -> RatPoly:
        m = len(lower) + 1
        row, den = bernoulli_row(m)
        # m N / (m+r) times G(m-1), then the nonzero Bernoulli terms
        pairs = [(((0, m), m + r), lower[m - 2])]
        for k, a in enumerate(row[1 : m - 1], 1):
            if a:
                pairs.append((((-r * a,), den * (m + r)), lower[k - 1]))
        return sum_of_products(pairs, "N", r)

    return GrownTable(RatPoly((1,), "N", r), step)


class _LemmaFamily:
    """S(1, r) ... S(m_max, r), read from the table of centered factors of r, grown to
    m_max; member m is :func:`newton.expand_factor` of G(m, r), each time it is read.
    Iteration runs through ``__getitem__`` up to its ``IndexError``."""

    __slots__ = ("_table", "_m_max")

    def __init__(self, table: GrownTable, m_max: int) -> None:
        self._table, self._m_max = table, m_max

    def __len__(self) -> int:
        return self._m_max

    def __getitem__(self, k: int) -> HyperSumPoly:
        m = range(1, self._m_max + 1)[k]  # IndexError past either end
        g = self._table[m - 1]
        return HyperSumPoly(m, g.r, newton.expand_factor(g))


def lemma_recurrence_family(m_max: int, r: int) -> _LemmaFamily:
    """S(1, r) ... S(m_max, r) grown bottom-up by the centered recurrence.

    S(m, r, n) = S(1, r, n) G(m, r)(N) with N = n + r/2, and the factor
    C(n+r, r+1) is common to every term of the recurrence, so the recurrence
    runs on G alone: G(1, r) = 1 and, for m >= 2,

        (m+r) G(m, r) = m N G(m-1, r) - r sum_{k=1}^{m-2} C(m, k) B_{m-k} G(k, r),

    where the sum is empty for m = 2.  The one table of r is grown to m_max in
    the call, so a step that fails raises here; a member is expanded when read.
    """
    if m_max < 1 or r < 0:
        raise DomainError(f"need m >= 1 and r >= 0, got ({m_max}, {r})")
    table = _lemma_table(r)
    table[m_max - 1]  # grows the table
    return _LemmaFamily(table, m_max)


# -- determinant route ---------------------------------------------------------


def faulhaber_det(m: int, r: int) -> RatPoly:
    """The centered factor G(m, r) in N_r = n + r/2, from the Hessenberg determinant.

    :func:`newton.det_to_factor` of the leading principal minor of order m - 1 at r, read
    from the minor table of r, the only cache of the det route: growing m at
    fixed r adds one minor.  S(m, r, n) = S(1, r, n) G(N_r); for r >= 1, G has
    the parity of m - 1 and alternating signs.
    """
    return newton.det_to_factor(hessenberg.leading_minor(m - 1, r), m)


def hyper_sum_det(m: int, r: int) -> HyperSumPoly:
    """S(m, r) = C(n+r, r+1) times the determinant factor, expanded in n."""
    return HyperSumPoly(m, r, newton.expand_factor(faulhaber_det(m, r)))


# -- ordinary power sums in the half-shifted variable ---------------------------


def faulhaber_r1(m: int) -> RatPoly:
    """S_m(n) written in N = n + 1/2: C(n+1, 2) times the r = 1 centered factor.

    Equals the half-shift of the Bernoulli-formula polynomial; even or odd
    in N according as m is odd or even, with alternating nonzero
    coefficients.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return to_N_frame(newton.s1_poly(1), 1) * faulhaber_det(m, 1)


# -- parity-split lifting relations ---------------------------------------------


def coffey_residual(e: int, r: int) -> RatPoly:
    """Defect of the parity-split lift of exponent e from order r to r + 1,

        S(e, r+1) - (1/2) S(e, r) - (1/(e+1)) sum_k C(e+1, k) B_{e+1-k} S(k, r)

    over 1 <= k <= e+1 of the other parity than e; zero unless a route is broken.
    With m = e + 1 the half-step defect H(m, r), of the recurrence
    m S(m-1, r+1) = S(m, r) + (m/2) S(m-1, r) + sum_{k=1}^{m-2} C(m,k) B_{m-k} S(k, r),
    is m times this defect minus Odd(m, r), the terms of that sum with m - k odd.
    Those read B_3, B_5, ..., zero unless a table is wrong, and a nonzero one in
    bernoulli_row(m) makes power_sum_poly(m - 1) wrong, which route equality sees.
    """
    if e < 1:
        raise DomainError(f"need e >= 1, got {e}")
    row, den = bernoulli_row(e + 1)
    pairs = [(1, hyper_sum_poly(e, r + 1)), (((-1,), 2), hyper_sum_poly(e, r))]
    for k in range(e % 2 + 1, e + 2, 2):
        pairs.append((((-row[k],), (e + 1) * den), hyper_sum_poly(k, r)))
    return sum_of_products(pairs)


# -- canonical provider ----------------------------------------------------------


def hyper_sum_poly(m: int, r: int) -> RatPoly:
    """S(m, r) as a plain polynomial in n, for any m >= 0, r >= 0.

    Identity checks go through this single provider, the memoised ``q``
    route; the verifier cross-validates it against the other four routes.
    """
    if r == 0:
        return RatPoly.from_integers((0,) * m + (1,), 1)  # n^m; for m = 0 the constant 1
    return hyper_sum_poly_q(m, r).poly


ROUTES = {
    "q": hyper_sum_poly_q,
    "c": hyper_sum_poly_c,
    "chain": hyper_sum_poly_chain,
    "lemma": lambda m, r: lemma_recurrence_family(m, r)[m - 1],
    "det": hyper_sum_det,
}
