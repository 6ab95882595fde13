"""All computation routes for hyper-sums of powers of integers.

The r-fold iterated power sum is defined by S(m, 0, n) = n^m and
S(m, r, n) = sum_{i=1}^{n} S(m, r-1, i).  As a function of n it is a
polynomial of degree m + r without constant term (for r >= 1), and this
module produces that polynomial by five independent methods:

* ``hyper_sum_poly_q``     -- expansion over ordinary power sums with
                              Stirling-weighted polynomial coefficients,
* ``hyper_sum_poly_c``     -- direct double-sum formula for each coefficient,
* ``hyper_sum_poly_chain`` -- coefficient recurrence lifting r by one at a time,
* ``lemma_recurrence_family`` -- the Bernoulli-weighted recurrence in the
                              centered variable N_r = n + r/2,
* ``hyper_sum_det``        -- Hessenberg determinant formula.

All routes return polynomials in the n-frame; the centered (N) and product
(u = n(n+r)) frames are produced by explicit conversions so that
cross-method comparison is always same-frame.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from . import hessenberg
from .exactnum import (
    Rational,
    bernoulli,
    binomial,
    register_cache,
    rising_factorial,
    sign_pow,
    stirling1_row,
    stirling1_unsigned,
)
from .polyring import (
    RatPoly,
    constant,
    divide_exact,
    monomial,
    poly,
    to_N_frame,
    to_n_frame,
    to_u_form,
    zero,
)

# -- structured results -------------------------------------------------------


@dataclass(frozen=True)
class HyperSumPoly:
    """S(m, r, n) as a polynomial in n, tagged with its computation route."""

    m: int
    r: int
    poly: RatPoly
    method: str


@dataclass(frozen=True)
class FaulhaberPoly:
    """A polynomial in N_r = n + r/2 that is even or odd in N_r.

    From ``faulhaber_det`` and ``faulhaber_rec`` it is the degree m-1 factor
    with S(m, r, n) = S(1, r, n) times it; for r >= 1 it is even or odd in
    N_r according as m is odd or even, with nonzero coefficients of strictly
    alternating sign and positive leading term.  From ``faulhaber_r1`` it is
    the power sum S(m, 1, n) itself, of degree m+1 in N_1 = n + 1/2.
    """

    m: int
    r: int
    poly: RatPoly

    @property
    def g_coeffs(self) -> tuple[Rational, ...]:
        """Coefficients of the powers of N with the parity of the degree, ascending."""
        return self.poly.coeffs[self.poly.degree % 2 :: 2]


# -- the defining recursion (value oracle) ------------------------------------


def hyper_sum_bruteforce(m: int, r: int, n: int) -> int:
    """S(m, r, n) straight from the defining recursion, by iterated prefix sums.

    Conventions: 0^0 = 1, so (m, r, n) = (0, 0, 0) gives 1; for r >= 1 the
    empty sum at n = 0 gives 0.
    """
    if m < 0 or r < 0 or n < 0:
        raise ValueError(f"need m, r, n >= 0, got ({m}, {r}, {n})")
    vals = [i**m for i in range(n + 1)]
    for _ in range(r):
        acc = 0
        sums = [0] * (n + 1)
        for i in range(1, n + 1):
            acc += vals[i]
            sums[i] = acc
        vals = sums
    return vals[n]


def s1_closed(r: int, n: int) -> Rational:
    """S(1, r, n) = C(n+r, r+1)."""
    return Fraction(comb(n + r, r + 1))


def s2_closed(r: int, n: int) -> Rational:
    """S(2, r, n) = (2n+r)/(r+2) * C(n+r, r+1)."""
    return Fraction(2 * n + r, r + 2) * comb(n + r, r + 1)


# -- power sums and the expansion over them -----------------------------------


@lru_cache(maxsize=None)
def s1_poly(r: int) -> RatPoly:
    """C(n+r, r+1) = n(n+1)...(n+r) / (r+1)! expanded as a polynomial in n."""
    out = constant(Fraction(1, factorial(r + 1)))
    for t in range(r + 1):
        out = out * poly([t, 1])
    return out


@lru_cache(maxsize=None)
def _bernoulli_over_lcm(top: int) -> tuple[tuple[int, ...], int]:
    """(D B_0, ..., D B_top) and D, the lcm of the denominators of B_0..B_top."""
    values = [bernoulli(t) for t in range(top + 1)]
    den = lcm(*(b.denominator for b in values))
    return tuple(b.numerator * (den // b.denominator) for b in values), den


@lru_cache(maxsize=None)
def power_sum_poly(m: int) -> RatPoly:
    """The ordinary power sum 1^m + ... + n^m as a polynomial in n.

    Computed from the Bernoulli-number formula
    S_m(n) = (1/(m+1)) sum_{t=1}^{m+1} (-1)^(m+1-t) C(m+1, t) B_{m+1-t} n^t.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    b_nums, b_den = _bernoulli_over_lcm(m)
    nums = [0] + [
        sign_pow(m + 1 - t) * comb(m + 1, t) * b_nums[m + 1 - t] for t in range(1, m + 2)
    ]
    return RatPoly.from_integers(nums, (m + 1) * b_den)


@lru_cache(maxsize=None)
def q_poly(r: int, i: int) -> RatPoly:
    """Weight polynomial of degree r-i multiplying the (m+i)-th power sum.

    q_{r,i}(n) = sum_{j=0}^{r-i} C(i+j, i) [r+1, i+j+1] n^j over the unsigned
    first-kind Stirling triangle; q_{0,0} = 1.
    """
    if i < 0 or i > r:
        raise ValueError(f"need 0 <= i <= r, got (r={r}, i={i})")
    return poly(
        [binomial(i + j, i) * stirling1_unsigned(r + 1, i + j + 1) for j in range(r - i + 1)]
    )


def hyper_sum_poly_q(m: int, r: int) -> HyperSumPoly:
    """S(m, r) via the alternating expansion over ordinary power sums.

    S(m, r, n) = (1/(r-1)!) sum_{i=0}^{r-1} (-1)^i q_{r-1,i}(n) S_{m+i}(n).
    Note the index shift: weights of order r-1 produce the r-fold sum.
    """
    if r < 1:
        raise ValueError(f"the power-sum expansion needs r >= 1, got {r}")
    acc = zero()
    for i in range(r):
        term = q_poly(r - 1, i) * power_sum_poly(m + i)
        acc = acc + term.scale(Fraction(sign_pow(i), factorial(r - 1)))
    return HyperSumPoly(m, r, acc, "q-form")


# -- explicit coefficients ----------------------------------------------------


def coeff_c(m: int, r: int, k: int) -> Rational:
    """Coefficient of n^k in the degree m+r hyper-sum polynomial (r >= 1).

    Double sum over the Stirling triangle and Bernoulli numbers, with B_t = 0
    for negative t absorbing the out-of-range index combinations.  The inner
    sum over j is an integer over the common Bernoulli denominator D: its
    terms vanish unless 0 <= m+i+j+1-k (the Bernoulli index, at most m+r-1)
    and i+j+1 <= r (the Stirling column).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not 1 <= k <= m + r:
        raise ValueError(f"need 1 <= k <= m+r, got k={k} for (m={m}, r={r})")
    b_nums, b_den = _bernoulli_over_lcm(m + r - 1)
    row = stirling1_row(r)
    total = Fraction(0)
    for i in range(r):
        top = m + i + 1
        inner = 0
        for j in range(max(0, k - top), min(k, r - i)):
            term = comb(i + j, i) * comb(top, k - j) * row[i + j + 1] * b_nums[top + j - k]
            inner += -term if j & 1 else term
        total += Fraction(inner, top)
    return Fraction(sign_pow(m + 1 - k), factorial(r - 1) * b_den) * total


def coeff_c_reduced_k1(m: int, r: int) -> Rational:
    """The collapsed single-sum form of the linear coefficient.

    c^1 = ((-1)^m / (r-1)!) sum_{i=0}^{r-1} [r, i+1] B_{m+i}.
    """
    total = sum(stirling1_unsigned(r, i + 1) * bernoulli(m + i) for i in range(r))
    return Fraction(sign_pow(m), factorial(r - 1)) * total


def hyper_sum_poly_c(m: int, r: int) -> HyperSumPoly:
    """S(m, r) assembled coefficient by coefficient from :func:`coeff_c`."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    coeffs = [Fraction(0)] + [coeff_c(m, r, k) for k in range(1, m + r + 1)]
    return HyperSumPoly(m, r, poly(coeffs), "c-form")


def _lift(
    a: tuple[int, ...], a_den: int, b: tuple[int, ...], b_den: int, r: int
) -> tuple[tuple[int, ...], int]:
    """:func:`coeff_recurrence_step` on numerator vectors a/a_den and b/b_den.

    Returns the lifted vector as numerators over a denominator, both divided
    by their gcd.
    """
    g = gcd(a_den, b_den)
    ua, ub = b_den // g, a_den // g  # lcm / a_den, lcm / b_den
    padded = a + (0,)  # index -1 then reads c^0 = 0 as well
    out = [ua * (r * padded[k] + padded[k - 1]) - ub * b[k] for k in range(len(padded))]
    den = a_den * ua * r
    g = gcd(den, *out)
    return tuple(x // g for x in out), den // g


def _over_lcm(vec: tuple[Rational, ...]) -> tuple[tuple[int, ...], int]:
    fracs = [Fraction(c) for c in vec]
    den = lcm(*(c.denominator for c in fracs))
    return tuple(c.numerator * (den // c.denominator) for c in fracs), den


def coeff_recurrence_step(
    c_m: tuple[Rational, ...], c_m_plus_1: tuple[Rational, ...], r: int
) -> tuple[Rational, ...]:
    """Lift coefficient vectors from summation order r to r + 1.

    Takes the vectors (c^1, ..., c^{m+r}) of S(m, r) and (c^1, ..., c^{m+r+1})
    of S(m+1, r) and returns the vector of S(m, r+1) via

        c_{m,r+1}^k = c_{m,r}^k + (1/r)(c_{m,r}^{k-1} - c_{m+1,r}^k),

    with out-of-range indices read as zero.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if len(c_m_plus_1) != len(c_m) + 1:
        raise ValueError(
            f"length mismatch: expected {len(c_m) + 1} coefficients for the "
            f"higher power, got {len(c_m_plus_1)}"
        )
    nums, den = _lift(*_over_lcm(c_m), *_over_lcm(c_m_plus_1), r)
    return tuple(Fraction(x, den) for x in nums)


def hyper_sum_poly_chain(m: int, r: int) -> HyperSumPoly:
    """S(m, r) by chaining the coefficient recurrence up from r = 1.

    The vectors are lifted as integer numerators over one denominator each.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    sums = [power_sum_poly(m + i) for i in range(r)]
    vectors = [(p.numerators[1:], p.denominator) for p in sums]
    for step_r in range(1, r):
        vectors = [
            _lift(*vectors[i], *vectors[i + 1], step_r) for i in range(len(vectors) - 1)
        ]
    nums, den = vectors[0]
    return HyperSumPoly(m, r, RatPoly.from_integers((0,) + nums, den), "coeff-chain")


# -- the centered-variable recurrence -----------------------------------------


@lru_cache(maxsize=None)
def _lemma_chain(m_max: int, r: int) -> tuple[RatPoly, ...]:
    polys = [s1_poly(r)]
    n_plus_half_r = poly([Fraction(r, 2), 1])
    for m in range(2, m_max + 1):
        rhs = (n_plus_half_r * polys[m - 2]).scale(m)
        for k in range(1, m - 1):
            rhs = rhs + polys[k - 1].scale(-r * comb(m, k) * bernoulli(m - k))
        polys.append(rhs.scale(Fraction(1, m + r)))
    return tuple(polys)


def lemma_recurrence_family(m_max: int, r: int) -> tuple[HyperSumPoly, ...]:
    """S(1, r) ... S(m_max, r) grown bottom-up by the centered recurrence.

    Seeds S(1, r, n) = C(n+r, r+1) and applies, for m >= 2,

        (m+r) S(m, r) = m (n + r/2) S(m-1, r)
                        - r sum_{k=1}^{m-2} C(m, k) B_{m-k} S(k, r),

    where the sum is empty for m = 2.
    """
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    return tuple(
        HyperSumPoly(m, r, p, "lemma-chain")
        for m, p in enumerate(_lemma_chain(m_max, r), start=1)
    )


# -- determinant route ---------------------------------------------------------


@lru_cache(maxsize=None)
def faulhaber_det(m: int, r: int) -> FaulhaberPoly:
    """The centered factor polynomial from the Hessenberg determinant.

    G(m, r) = (-1)^(m-1) / (r+2)^(m-1 rising) * det of the order m-1 matrix;
    the empty determinant makes G(1, r) = 1.
    """
    d = hessenberg.det(hessenberg.build_matrix(m, r))
    scaled = d.scale(Fraction(sign_pow(m - 1), rising_factorial(r + 2, m - 1)))
    return FaulhaberPoly(m, r, scaled)


def hyper_sum_det(m: int, r: int) -> HyperSumPoly:
    """S(m, r) = C(n+r, r+1) times the determinant factor, expanded in n."""
    g_n = to_n_frame(faulhaber_det(m, r).poly)
    return HyperSumPoly(m, r, s1_poly(r) * g_n, "determinant")


# -- parity-split coefficient recurrences --------------------------------------


@lru_cache(maxsize=None)
def _g_coeff_chain(m_max: int, r: int) -> tuple[tuple[Rational, ...], ...]:
    """Structural coefficient vectors for indices 1..m_max at fixed r.

    Entry m-1 lists the coefficients of N^(2j) (odd m) or N^(2j+1) (even m),
    j ascending.  Built by the parity-split recurrences: for odd index
    2t-1 >= 3,

        top:     g[2t-1, t-1] = (2t-1)/(2t-1+r) g[2t-2, t-2]
        middle:  g[2t-1, j] = ((2t-1) g[2t-2, j-1]
                   - r sum_{k=j+1}^{t-1} C(2t-1, 2k-1) B_{2t-2k} g[2k-1, j]) / (2t-1+r)
        bottom:  g[2t-1, 0] = -r/(2t-1+r) sum_{k=1}^{t-1} C(2t-1, 2k-1) B_{2t-2k} g[2k-1, 0]

    and for even index 2t >= 4,

        top:     g[2t, t-1] = 2t/(2t+r) g[2t-1, t-1]
        rest:    g[2t, j] = (2t g[2t-1, j]
                   - r sum_{k=j+1}^{t-1} C(2t, 2k) B_{2t-2k} g[2k, j]) / (2t+r),

    seeded with g[1] = (1,) and g[2] = (2/(r+2),).
    """
    g: list[tuple[Rational, ...]] = [(Fraction(1),), (Fraction(2, r + 2),)]
    for m in range(3, m_max + 1):
        if m % 2 == 1:
            t = (m + 1) // 2
            prev_even = g[m - 2]  # index m-1
            coeffs = []
            low = sum(
                comb(m, 2 * k - 1) * bernoulli(m + 1 - 2 * k) * g[2 * k - 2][0]
                for k in range(1, t)
            )
            coeffs.append(Fraction(-r, m + r) * low)
            for j in range(1, t - 1):
                mid = sum(
                    comb(m, 2 * k - 1) * bernoulli(m + 1 - 2 * k) * g[2 * k - 2][j]
                    for k in range(j + 1, t)
                )
                coeffs.append(Fraction(1, m + r) * (m * prev_even[j - 1] - r * mid))
            coeffs.append(Fraction(m, m + r) * prev_even[t - 2])
            g.append(tuple(coeffs))
        else:
            t = m // 2
            prev_odd = g[m - 2]
            coeffs = []
            for j in range(t - 1):
                rest = sum(
                    comb(m, 2 * k) * bernoulli(m - 2 * k) * g[2 * k - 1][j]
                    for k in range(j + 1, t)
                )
                coeffs.append(Fraction(1, m + r) * (m * prev_odd[j] - r * rest))
            coeffs.append(Fraction(m, m + r) * prev_odd[t - 1])
            g.append(tuple(coeffs))
    return tuple(g[:m_max])


def faulhaber_rec(m: int, r: int) -> FaulhaberPoly:
    """The centered factor polynomial grown coefficientwise (no determinant)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    coeffs_by_j = _g_coeff_chain(m, r)[m - 1]
    dense = [Fraction(0)] * (m)
    for j, c in enumerate(coeffs_by_j):
        dense[2 * j if m % 2 == 1 else 2 * j + 1] = c
    return FaulhaberPoly(m, r, poly(dense, "N", r))


# -- classical product form -----------------------------------------------------


def faulhaber_u_form(m: int, r: int) -> tuple[RatPoly, str]:
    """The factor polynomial in u = n(n+r), plus its prefactor tag.

    Odd m: S(m, r) = S(1, r) * F(u) and the tag is "s1".  Even m:
    S(m, r) = S(2, r) * F(u) with tag "s2"; here the centered factor is
    divided exactly by the degree-one factor of S(2, r) before converting,
    and a nonzero remainder would mean an internal inconsistency.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got ({m}, {r})")
    g = faulhaber_det(m, r).poly
    if m % 2 == 1:
        return to_u_form(g), "s1"
    quotient = divide_exact(g, poly([0, Fraction(2, r + 2)], "N", r))
    return to_u_form(quotient), "s2"


def stirling_product_form(m: int, r: int) -> tuple[RatPoly, RatPoly]:
    """Factor r! S(m, r, n) as (Stirling-weighted power sums) x (centered factor).

    Returns (sum_{j=1}^{r} [r, j] S_j(n) as a polynomial in n, the centered
    factor in N); their product, after moving the factor to the n-frame,
    equals r! S(m, r, n).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    left = zero()
    for j in range(1, r + 1):
        left = left + power_sum_poly(j).scale(stirling1_unsigned(r, j))
    return left, faulhaber_det(m, r).poly


# -- ordinary power sums in the half-shifted variable ---------------------------


def faulhaber_r1(m: int) -> FaulhaberPoly:
    """S_m(n) written in N = n + 1/2: C(n+1, 2) times the r = 1 centered factor.

    Equals the half-shift of the Bernoulli-formula polynomial; even or odd
    in N according as m is odd or even, with alternating nonzero
    coefficients.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return FaulhaberPoly(m, 1, to_N_frame(s1_poly(1), 1) * faulhaber_det(m, 1).poly)


# -- parity-split lifting relations ---------------------------------------------


def coffey_residual(m: int, r: int, parity: str) -> RatPoly:
    """Defect polynomial of the parity-split lift from order r to r + 1.

    For parity "odd" (exponent 2m-1):

        S(2m-1, r+1) - (1/2) S(2m-1, r)
            - (1/(2m)) sum_{k=1}^{m} C(2m, 2k) B_{2m-2k} S(2k, r)

    and for parity "even" (exponent 2m):

        S(2m, r+1) - (1/2) S(2m, r)
            - (1/(2m+1)) sum_{k=1}^{m+1} C(2m+1, 2k-1) B_{2m+2-2k} S(2k-1, r).

    Both are identically zero; anything else indicates a broken route.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if parity == "odd":
        e = 2 * m - 1
        residual = hyper_sum_poly(e, r + 1) - hyper_sum_poly(e, r).scale(Fraction(1, 2))
        for k in range(1, m + 1):
            weight = Fraction(comb(2 * m, 2 * k), 2 * m) * bernoulli(2 * m - 2 * k)
            residual = residual - hyper_sum_poly(2 * k, r).scale(weight)
        return residual
    e = 2 * m
    residual = hyper_sum_poly(e, r + 1) - hyper_sum_poly(e, r).scale(Fraction(1, 2))
    for k in range(1, m + 2):
        weight = Fraction(comb(2 * m + 1, 2 * k - 1), 2 * m + 1) * bernoulli(2 * m + 2 - 2 * k)
        residual = residual - hyper_sum_poly(2 * k - 1, r).scale(weight)
    return residual


# -- canonical provider ----------------------------------------------------------


@lru_cache(maxsize=None)
def hyper_sum_poly(m: int, r: int) -> RatPoly:
    """S(m, r) as a plain polynomial in n, for any m >= 0, r >= 0.

    Identity checks go through this single provider; its output is
    cross-validated against the other four routes by the verifier.
    """
    if r == 0:
        return monomial(m)  # n^m; for m = 0 the constant 1
    return hyper_sum_poly_q(m, r).poly


ROUTES = {
    "q": hyper_sum_poly_q,
    "c": hyper_sum_poly_c,
    "chain": hyper_sum_poly_chain,
    "lemma": lambda m, r: lemma_recurrence_family(m, r)[m - 1],
    "det": hyper_sum_det,
}

# smallest (m, r) each route accepts; it raises ValueError below either bound
ROUTE_DOMAIN = {
    "q": (0, 1),
    "c": (0, 1),
    "chain": (0, 1),
    "lemma": (1, 0),
    "det": (1, 0),
}


for _cached in (
    s1_poly,
    power_sum_poly,
    q_poly,
    _bernoulli_over_lcm,
    _lemma_chain,
    faulhaber_det,
    _g_coeff_chain,
    hyper_sum_poly,
):
    register_cache(_cached.cache_clear)
