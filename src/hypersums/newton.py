"""The served path: S(m, r, n) and its centered factor from the Newton weights alone.

The weights k! {m k} of n^m = sum_k k! {m k} C(n, k), proved where read
(:func:`newton_weights`), give the value S(m, r, n) in integers
(:func:`hyper_sum_newton`) and the paper's centered factor G, with
S(m, r, n) = S(1, r, n) G(n + r/2), in integers over one denominator
(:func:`newton_factor`), with no Bernoulli number.  Each formula around G has
one function: :func:`det_to_factor` normalises a Hessenberg determinant to G and
:func:`expand_factor` multiplies G by S(1, r) = :func:`s1_poly` in n;
:func:`faulhaber_u_form` writes G in u = n(n+r).

The CLI serves ``eval``, ``poly`` and ``table`` from this module.  It imports only
``exactnum`` and ``polyring``, so such a request compiles neither the five routes
of :mod:`hypersums.hypersum` nor the matrix of :mod:`hypersums.hessenberg`, which
check what is served here.  Everything is exact.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial

# to_n_frame is read through its module, so that a wrapper set on the module
# (perfbench/tracer.py's layers, a test's patch) reaches this reader too
from . import polyring
from .exactnum import CrossCheckError, DomainError, memo, rising_factorial, sign_pow
from .polyring import RatPoly, to_u_form


def _surjection_counts(m: int) -> tuple[int, ...]:
    """(0! {m 0}, 1! {m 1}, ..., m! {m m}): a(m, k) = k (a(m-1, k) + a(m-1, k-1))."""
    row = [1]
    for i in range(1, m + 1):
        row = [k * ((row[k] if k < i else 0) + (row[k - 1] if k else 0)) for k in range(i + 1)]
    return tuple(row)


@memo
def newton_weights(m: int) -> tuple[int, ...]:
    """The weights k! {m k} of n^m = sum_k k! {m k} C(n, k), proved where every reader reads
    them: the sum at n = 0..m is unit triangular in them, so a row that misses n^m there raises."""
    weights, row = _surjection_counts(m), []
    for a in reversed(weights):  # sum_{j>=k} a_j C(n, j-k) at n = 0..m-k, from k = m down
        row = [*accumulate(row, initial=a)]
    if row != [n**m for n in range(m + 1)]:
        raise CrossCheckError(f"the Newton weights of m = {m} do not give n^m at n <= m")
    return weights


def hyper_sum_newton(m: int, r: int, n: int) -> int:
    """S(m, r, n) in integers from the Newton basis, at any n.

    n^m = sum_k k! {m k} C(n, k), and summing r times lifts each binomial by
    the hockey-stick identity: S(m, r, n) = sum_{k=1}^{m} k! {m k} C(n+r, k+r)
    for m >= 1.  For m = 0 the 0^0 = 1 convention gives 1 when r = 0 and
    C(n+r-1, r) when r >= 1.  It shares no table with the polynomial routes.
    """
    if m < 0 or r < 0 or n < 0:
        raise DomainError(f"need m, r, n >= 0, got ({m}, {r}, {n})")
    if m == 0:
        return 1 if r == 0 else comb(n + r - 1, r)
    total = 0
    binom = comb(n + r, r + 1)  # C(n+r, k+r) at k = 1, and 0 past k = n
    for k, weight in enumerate(newton_weights(m)[1 : n + 1], start=1):
        total += weight * binom
        binom = binom * (n - k) // (k + r + 1)
    return total


def newton_factor(m: int, r: int) -> RatPoly:
    """The centered factor G(m, r) in N = n + r/2 from the Newton weights a_k alone.

    C(n+r, k+r) = C(n+r, r+1) (n-1)...(n-k+1) / ((r+2)...(r+k)), so G = P_1 / D_1 with
    D_k = (r+k+1)...(r+m) and P_k = a_k D_k + (N - k - r/2) P_{k+1}, run on 2^(m-k) P_k
    in x = 2N in integers: no Bernoulli number, no determinant, no shift.  The weights
    are :func:`newton_weights`, so a wrong row raises :class:`CrossCheckError`.
    """
    if m < 1 or r < 0:
        raise DomainError(f"need m >= 1 and r >= 0, got ({m}, {r})")
    a = newton_weights(m)
    p, d = [a[m]], 1
    for k in range(m - 1, 0, -1):
        d *= r + k + 1
        p = [u - (2 * k + r) * v for u, v in zip((0, *p), (*p, 0))]  # (x - 2k - r) p
        p[0] += a[k] * d << (m - k)
    return RatPoly.from_integers([c << j for j, c in enumerate(p)], d << (m - 1), "N", r)


@memo
def s1_poly(r: int) -> RatPoly:
    """C(n+r, r+1) = n(n+1)...(n+r) / (r+1)! expanded as a polynomial in n.

    The product is multiplied out here in integers, one factor n + k at a time, so
    that it reads no shared table.
    """
    p = [1]
    for k in range(r + 1):
        p = [u + k * v for u, v in zip((0, *p), (*p, 0))]  # (n + k) p
    return RatPoly.from_integers(p, factorial(r + 1))


def parity_checked_factor(m: int, r: int) -> RatPoly:
    """:func:`newton_factor`, refused with :class:`CrossCheckError` without the parity of
    m - 1, the paper's theorem: the factor that ``poly`` prints and expands."""
    g = newton_factor(m, r)
    if g.parity() != ("even" if m % 2 else "odd"):
        raise CrossCheckError(f"the centered factor G({m}, {r}) lacks the parity of m - 1")
    return g


def det_to_factor(d: RatPoly, m: int) -> RatPoly:
    """The centered factor G(m, r) from d, the determinant of the order m - 1 matrix at r:
    G = d / ((-1)^(m-1) (r+2)^(m-1 rising)), the empty determinant giving G(1, r) = 1.
    The one place that writes this normalisation."""
    scale = sign_pow(m - 1) * rising_factorial(d.r + 2, m - 1)
    return RatPoly.from_integers(d.numerators, scale * d.denominator, "N", d.r)


def expand_factor(g: RatPoly) -> RatPoly:
    """S(m, r) in n from its centered factor g = G(m, r) in N_r = n + r/2:
    C(n+r, r+1) g(n + r/2), the paper's S_m^(r) = S_1^(r) G(N_r), written once."""
    return s1_poly(g.r) * polyring.to_n_frame(g)


def faulhaber_u_form(m: int, r: int) -> tuple[RatPoly, str]:
    """The factor polynomial in u = n(n+r), plus its prefactor tag.

    Odd m: S(m, r) = S(1, r) * F(u) and the tag is "s1".  Even m:
    S(m, r) = S(2, r) * F(u) with tag "s2"; here the centered factor, odd in
    N, is divided by the factor (2/(r+2)) N of S(2, r) before converting.
    """
    if m < 1 or r < 1:
        raise DomainError(f"need m >= 1 and r >= 1, got ({m}, {r})")
    g = parity_checked_factor(m, r)
    if m % 2 == 1:
        return to_u_form(g), "s1"
    quotient = RatPoly.from_integers(
        [(r + 2) * a for a in g.numerators[1:]], 2 * g.denominator, "N", r
    )
    return to_u_form(quotient), "s2"
