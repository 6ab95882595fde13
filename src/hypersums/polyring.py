"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of integer numerators in ascending degree
over one positive integer denominator, the layout of FLINT's ``fmpq_poly``.
The pair is kept primitive: gcd(denominator, all numerators) = 1 and the
last numerator is nonzero, so the zero polynomial is the empty tuple over 1
and ``degree`` of zero is None.  This form is unique, so equality is
comparison of the integers.  ``coeffs`` yields the coefficients as
canonical ``Fraction`` values.  There is no floating point: coefficients,
constant factors, shifts and evaluation points are ``int`` or ``Fraction``,
and anything else raises ``TypeError``.

Every ring operation goes through one kernel, :func:`sum_of_products`,
which accumulates products of integer numerators over one common
denominator and normalises the sum once: ``a * b`` is the sum of one
product, ``a + b`` and ``a - b`` the sum of 1 * a and +-1 * b, and
``a.scale(c)`` the product of the number c with a.  A factor of the kernel
is a polynomial, a number or an integer row, so a weight is never wrapped
as a polynomial.  A longer sum (each minor of the Hessenberg determinant,
each step of the centered recurrence, the power-sum expansion) is one
call, not a chain of ``*`` and ``+``.  The outer loop of a product runs over
the sparser factor and skips its zeros (see :func:`sum_of_products`): in
the power-sum expansion, over the power sums, half Bernoulli zeros.

Each polynomial carries a variable tag:

* ``"n"`` -- the summation variable (r context always 0),
* ``"N"`` -- the centered variable N = n + r/2,
* ``"u"`` -- the product variable u = n(n+r) = N^2 - r^2/4.

The tag and its r context are advisory metadata enforced at operation
boundaries: mixing frames is almost always a bug, because the same formula
looks completely different in n, N and u.  The r context is a non-negative
``int``; anything else raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import Rational, rational_to_json

_VARS = ("n", "N", "u")

_set = object.__setattr__


def _check_frame(var: str, r: int) -> None:
    if var not in _VARS:
        raise ValueError(f"unknown variable tag {var!r}")
    if r.__class__ is not int:
        raise TypeError(f"the r context must be an int, got {r!r}")
    if r < 0:
        raise ValueError(f"the r context must be >= 0, got {r}")
    if var == "n" and r != 0:
        raise ValueError("n-frame polynomials carry no r context")


def _exact(x, what: str):
    """x itself when it is an int or Fraction; ``TypeError`` for anything else."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be int or Fraction, got {x!r}")
    return x


def _raw(nums: tuple[int, ...], den: int, var: str, r: int) -> RatPoly:
    """Wrap a pair already in primitive form, in a frame already checked."""
    p = object.__new__(RatPoly)
    _set(p, "numerators", nums)
    _set(p, "denominator", den)
    _set(p, "var", var)
    _set(p, "r", r)
    return p


def _primitive(nums: list[int], den: int, var: str, r: int) -> RatPoly:
    """Reduce sum(nums[k] x^k) / den (den > 0) and wrap it, in a frame already checked."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw((), 1, var, r)
    g = gcd(den, *nums)
    if g != 1:
        return _raw(tuple(a // g for a in nums), den // g, var, r)
    return _raw(tuple(nums), den, var, r)


class RatPoly:
    """Immutable dense polynomial over Rational: integer numerators over one denominator."""

    __slots__ = ("numerators", "denominator", "var", "r")

    numerators: tuple[int, ...]
    denominator: int
    var: str
    r: int

    def __new__(cls, coeffs, var: str = "n", r: int = 0) -> RatPoly:
        _check_frame(var, r)
        coeffs = tuple(_exact(c, "coefficients") for c in coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        return _primitive([c.numerator * (den // c.denominator) for c in coeffs], den, var, r)

    @classmethod
    def from_integers(cls, numerators, denominator: int, var: str = "n", r: int = 0) -> RatPoly:
        """sum(numerators[k] x^k) / denominator, for any nonzero integer denominator."""
        _check_frame(var, r)
        if not denominator:
            raise ZeroDivisionError("polynomial with zero denominator")
        if denominator < 0:
            return _primitive([-a for a in numerators], -denominator, var, r)
        return _primitive(list(numerators), denominator, var, r)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: RatPoly is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: RatPoly is immutable")

    def __reduce__(self):
        return (RatPoly.from_integers, (self.numerators, self.denominator, self.var, self.r))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RatPoly:
            return NotImplemented
        return (
            self.numerators == other.numerators
            and self.denominator == other.denominator
            and self.var == other.var
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator, self.var, self.r))

    def __repr__(self) -> str:
        return f"RatPoly(coeffs={self.coeffs!r}, var={self.var!r}, r={self.r!r})"

    # -- basic queries --------------------------------------------------

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """Coefficients in ascending degree as canonical Fractions, built on each call."""
        den = self.denominator
        return tuple(Fraction(a, den) for a in self.numerators)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.numerators) - 1 if self.numerators else None

    def is_zero(self) -> bool:
        return not self.numerators

    def coefficient(self, k: int) -> Rational:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: RatPoly) -> RatPoly:
        return sum_of_products([(1, self), (1, other)], self.var, self.r)

    def __sub__(self, other: RatPoly) -> RatPoly:
        return sum_of_products([(1, self), (-1, other)], self.var, self.r)

    def __neg__(self) -> RatPoly:
        return _raw(tuple(-a for a in self.numerators), self.denominator, self.var, self.r)

    def __mul__(self, other: RatPoly | Rational | int) -> RatPoly:
        return sum_of_products([(self, other)], self.var, self.r)

    __rmul__ = __mul__

    def scale(self, c: Rational | int) -> RatPoly:
        return sum_of_products([(c, self)], self.var, self.r)

    def eval(self, x: Rational | int) -> Rational:
        """Exact value at x: integer Horner over x = p/q, one division at the end."""
        nums = self.numerators
        p, q = _exact(x, "an evaluation point").numerator, x.denominator
        if not nums:
            return Fraction(0)
        acc = 0
        qk = 1  # q^(degree - k) alongside the numerator of x^k
        for a in reversed(nums):
            acc = acc * p + a * qk
            qk *= q
        return Fraction(acc, self.denominator * (qk // q))

    def first_mismatch(self, values) -> int | None:
        """The first n with p(n) != values[n], or None when they all agree.

        Compared in integers: p(n) = v exactly when the integer Horner value
        of the numerators at n equals v times the denominator.
        """
        nums, den = self.numerators[::-1], self.denominator
        for n, v in enumerate(values):
            acc = 0
            for a in nums:
                acc = acc * n + a
            if acc != v * den:
                return n
        return None

    def shift(self, c: Rational | int) -> RatPoly:
        """The composed polynomial p(x + c), expanded; same frame.

        With c = s/q and degree d, q^d p(y/q + c) = h(y + s) where
        h(y) = sum a_k q^(d-k) y^k; the Taylor shift of h by the integer s is
        done in place by repeated synthetic division, and x^j picks up q^j.
        """
        c = Fraction(_exact(c, "a shift"))
        if not c or not self.numerators:
            return self
        s, q = c.numerator, c.denominator
        d = len(self.numerators) - 1
        q_pows = [1]
        for _ in range(d):
            q_pows.append(q_pows[-1] * q)
        h = [a * q_pows[d - k] for k, a in enumerate(self.numerators)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                h[j] += s * h[j + 1]
        return _primitive(
            [a * pw for a, pw in zip(h, q_pows)], self.denominator * q_pows[d], self.var, self.r
        )

    def parity(self) -> str:
        """"even" | "odd" | "neither"; the zero polynomial counts as even."""
        even = not any(self.numerators[1::2])
        odd = not any(self.numerators[0::2])
        if even:
            return "even"
        if odd:
            return "odd"
        return "neither"

    def __str__(self) -> str:
        return to_text(self)


# -- sums of products -------------------------------------------------------


def _factor(f, var: str, r: int) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) of a kernel factor: a polynomial in the frame,
    or an int, Fraction or integer row, read as is, which has no frame."""
    if f.__class__ is RatPoly:
        if f.var != var or f.r != r:
            raise ValueError(f"frame mismatch: {var}[r={r}] vs {f.var}[r={f.r}]")
        return f.numerators, f.denominator
    if f.__class__ is tuple:  # before isinstance, which is slow on a tuple
        if len(f) == 2 and f[0].__class__ is tuple and f[1].__class__ is int and f[1] > 0:
            if {int}.issuperset(map(type, f[0])):
                return f
    elif isinstance(f, (int, Fraction)):
        return ((f.numerator,) if f else ()), f.denominator
    raise TypeError(f"a factor must be a RatPoly, int or Fraction, or an integer row, got {f!r}")


def sum_of_products(pairs, var: str = "n", r: int = 0) -> RatPoly:
    """sum(a * b for a, b in pairs) in the frame (var, r), normalised once.

    The products are accumulated in integers over the lcm of their
    denominators and reduced at the end.  A factor is a polynomial, which
    must be in the frame (``ValueError`` otherwise, which is how ``*``,
    ``+`` and ``-`` reject mixed frames); an ``int`` or ``Fraction``; or an
    integer row ``(numerators, denominator)``: a tuple of ints ascending by
    degree over a positive int, read as is (no gcd, trailing zeros allowed).
    Numbers and rows have no frame; any other factor, a malformed row
    included, raises ``TypeError``.  An empty sum, or a sum of zeros, is the
    zero polynomial.

    The outer loop of a product runs over its number factor, with no count
    of zeros, and of two polynomials over the one that minimises (its
    nonzero entries) x (the other's length + 2); a zero entry of the outer
    factor costs no inner loop.
    """
    _check_frame(var, r)
    terms = []
    den = size = 1
    for a, b in pairs:
        x, dx = _factor(a, var, r)
        y, dy = _factor(b, var, r)
        if x and y:
            d, nx, ny = dx * dy, len(x), len(y)
            if nx == 1 or ny == 1:
                y_outer = ny == 1
            else:
                y_outer = (ny - y.count(0)) * (nx + 2) <= (nx - x.count(0)) * (ny + 2)
            terms.append((x, y, d) if y_outer else (y, x, d))  # (inner, outer, denominator)
            den = lcm(den, d)
            size = max(size, nx + ny - 1)
    if not terms:
        return _raw((), 1, var, r)
    out = [0] * size
    for x, y, d in terms:
        s = den // d
        for j, v in enumerate(y):
            if v:
                v *= s
                for i, u in enumerate(x, j):
                    out[i] += u * v
    return _primitive(out, den, var, r)


# -- constructors ---------------------------------------------------------


def monomial(k: int, c: Rational | int = 1, var: str = "n", r: int = 0) -> RatPoly:
    return RatPoly((0,) * k + (c,), var, r)


# -- frame conversions ------------------------------------------------------


def to_N_frame(p: RatPoly, r: int) -> RatPoly:
    """Rewrite an n-frame polynomial in N = n + r/2 (substitute n = N - r/2)."""
    if p.var != "n":
        raise ValueError(f"to_N_frame expects an n-frame polynomial, got {p.var!r}")
    _check_frame("N", r)
    shifted = p.shift(Fraction(-r, 2))
    return _raw(shifted.numerators, shifted.denominator, "N", r)


def to_n_frame(p: RatPoly) -> RatPoly:
    """Rewrite an N-frame polynomial back in n (substitute N = n + r/2)."""
    if p.var != "N":
        raise ValueError(f"to_n_frame expects an N-frame polynomial, got {p.var!r}")
    shifted = p.shift(Fraction(p.r, 2))
    return _raw(shifted.numerators, shifted.denominator, "n", 0)


def to_u_form(p: RatPoly) -> RatPoly:
    """Rewrite an even N-frame polynomial in u = n(n+r), using N^2 = u + r^2/4.

    The degree halves: sum a_2t N^(2t) = g(u + r^2/4) with g(x) = sum a_2t x^t,
    a shift of g.  Rejects polynomials that are not even in N.
    """
    if p.var != "N":
        raise ValueError(f"to_u_form expects an N-frame polynomial, got {p.var!r}")
    if p.parity() != "even":
        raise ValueError("to_u_form requires an even polynomial")
    halved = _raw(p.numerators[::2], p.denominator, "u", p.r)
    return halved.shift(Fraction(p.r * p.r, 4))


# -- rendering ---------------------------------------------------------------


def _render(p: RatPoly, term) -> str:
    """The nonzero terms in descending degree, ``term(|c|, k)`` each, joined by
    their signs: a leading ``-`` on the first term, `` - `` or `` + `` after it."""
    parts = []
    for k in range(len(p.numerators) - 1, -1, -1):
        a = p.numerators[k]
        if a:
            sign = ("-" if a < 0 else "") if not parts else (" - " if a < 0 else " + ")
            parts.append(sign + term(Fraction(abs(a), p.denominator), k))
    return "".join(parts) or "0"


def to_text(p: RatPoly) -> str:
    """Plain-text form, descending degree, exact fractions (never decimals)."""

    def term(c: Fraction, k: int) -> str:
        if k == 0:
            return str(c)
        head = p.var if c == 1 else f"{c}*{p.var}"
        return head if k == 1 else f"{head}^{k}"

    return _render(p, term)


def to_latex(p: RatPoly) -> str:
    """LaTeX form, descending degree, explicit \\frac for every fraction."""
    var = f"N_{{{p.r}}}" if p.var == "N" else p.var

    def term(c: Fraction, k: int) -> str:
        if k == 0:
            num = str(c.numerator)
        else:
            pw = var if k == 1 else f"{var}^{{{k}}}"
            num = pw if c.numerator == 1 else f"{c.numerator} {pw}"
        return num if c.denominator == 1 else f"\\frac{{{num}}}{{{c.denominator}}}"

    return _render(p, term)


def poly_to_json(p: RatPoly) -> dict:
    """JSON form: {"var": .., "r": .., "coeffs": [["num","den"], ...]} ascending."""
    return {
        "var": p.var,
        "r": p.r,
        "coeffs": [rational_to_json(c) for c in p.coeffs],
    }
