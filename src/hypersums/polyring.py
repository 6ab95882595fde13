"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of integer numerators in ascending degree
over one positive integer denominator, the layout of FLINT's ``fmpq_poly``.
The pair is kept primitive: gcd(denominator, all numerators) = 1 and the
last numerator is nonzero, so the zero polynomial is the empty tuple over 1
and ``degree`` of zero is None.  This form is unique, so equality is
comparison of the integers.  Ring operations work on the integers alone and
normalise once; ``coeffs`` yields the coefficients as canonical
``Fraction`` values, built on first use.  There is no floating point.

Each polynomial carries a variable tag:

* ``"n"`` -- the summation variable (r context always 0),
* ``"N"`` -- the centered variable N = n + r/2,
* ``"u"`` -- the product variable u = n(n+r) = N^2 - r^2/4.

The tag and its r context are advisory metadata enforced at operation
boundaries: mixing frames is almost always a bug, because the same formula
looks completely different in n, N and u.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import Rational, rational_from_json, rational_to_json

_VARS = ("n", "N", "u")

_set = object.__setattr__


def _check_frame(var: str, r: int) -> None:
    if var not in _VARS:
        raise ValueError(f"unknown variable tag {var!r}")
    if var == "n" and r != 0:
        raise ValueError("n-frame polynomials carry no r context")


def _raw(nums: tuple[int, ...], den: int, var: str, r: int) -> RatPoly:
    """Wrap a pair already in primitive form, in a frame already checked."""
    p = object.__new__(RatPoly)
    _set(p, "numerators", nums)
    _set(p, "denominator", den)
    _set(p, "var", var)
    _set(p, "r", r)
    _set(p, "_coeffs", None)
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

    __slots__ = ("numerators", "denominator", "var", "r", "_coeffs")

    numerators: tuple[int, ...]
    denominator: int
    var: str
    r: int

    def __new__(cls, coeffs, var: str = "n", r: int = 0) -> RatPoly:
        _check_frame(var, r)
        fracs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _primitive([c.numerator * (den // c.denominator) for c in fracs], den, var, r)

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

    __delattr__ = __setattr__

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
        """Coefficients in ascending degree as canonical Fractions."""
        if self._coeffs is None:
            den = self.denominator
            _set(self, "_coeffs", tuple(Fraction(a, den) for a in self.numerators))
        return self._coeffs

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

    @property
    def leading_coefficient(self) -> Rational:
        return self.coefficient(len(self.numerators) - 1)

    def _require_same_frame(self, other: RatPoly) -> None:
        if self.var != other.var or self.r != other.r:
            raise ValueError(
                f"frame mismatch: {self.var}[r={self.r}] vs {other.var}[r={other.r}]"
            )

    # -- ring operations -------------------------------------------------

    def _combine(self, other: RatPoly, sign: int) -> RatPoly:
        """self + sign * other over the lcm of the two denominators."""
        self._require_same_frame(other)
        if not other.numerators:
            return self
        b = other.numerators if sign > 0 else [-y for y in other.numerators]
        if not self.numerators:
            return _raw(tuple(b), other.denominator, self.var, self.r)
        a, da, db = self.numerators, self.denominator, other.denominator
        g = gcd(da, db)
        sa, sb = db // g, da // g
        den = da * sa
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [x * sa for x in a] if sa != 1 else list(a)
        for i, y in enumerate(b):
            out[i] += y * sb
        return _primitive(out, den, self.var, self.r)

    def __add__(self, other: RatPoly) -> RatPoly:
        return self._combine(other, 1)

    def __sub__(self, other: RatPoly) -> RatPoly:
        return self._combine(other, -1)

    def __neg__(self) -> RatPoly:
        return _raw(tuple(-a for a in self.numerators), self.denominator, self.var, self.r)

    def __mul__(self, other: RatPoly) -> RatPoly:
        self._require_same_frame(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return _raw((), 1, self.var, self.r)
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        return _primitive(out, self.denominator * other.denominator, self.var, self.r)

    def scale(self, c: Rational | int) -> RatPoly:
        c = Fraction(c)
        if not c or not self.numerators:
            return _raw((), 1, self.var, self.r)
        num = c.numerator
        return _primitive(
            [num * a for a in self.numerators], self.denominator * c.denominator, self.var, self.r
        )

    def eval(self, x: Rational | int) -> Rational:
        """Exact value at x: integer Horner over x = p/q, one division at the end."""
        nums = self.numerators
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = 0
        qk = 1  # q^(degree - k) alongside the numerator of x^k
        for a in reversed(nums):
            acc = acc * p + a * qk
            qk *= q
        return Fraction(acc, self.denominator * (qk // q))

    def shift(self, c: Rational | int) -> RatPoly:
        """The composed polynomial p(x + c), expanded; same frame.

        With c = s/q and degree d, q^d p(y/q + c) = h(y + s) where
        h(y) = sum a_k q^(d-k) y^k; the Taylor shift of h by the integer s is
        done in place by repeated synthetic division, and x^j picks up q^j.
        """
        c = Fraction(c)
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


# -- constructors ---------------------------------------------------------


def poly(coeffs, var: str = "n", r: int = 0) -> RatPoly:
    """Polynomial from an ascending coefficient sequence."""
    return RatPoly(coeffs, var, r)


def constant(c: Rational | int, var: str = "n", r: int = 0) -> RatPoly:
    return RatPoly((c,), var, r)


def monomial(k: int, c: Rational | int = 1, var: str = "n", r: int = 0) -> RatPoly:
    return RatPoly((0,) * k + (c,), var, r)


def zero(var: str = "n", r: int = 0) -> RatPoly:
    return RatPoly((), var, r)


# -- frame conversions ------------------------------------------------------


def to_N_frame(p: RatPoly, r: int) -> RatPoly:
    """Rewrite an n-frame polynomial in N = n + r/2 (substitute n = N - r/2)."""
    if p.var != "n":
        raise ValueError(f"to_N_frame expects an n-frame polynomial, got {p.var!r}")
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


def from_u_form(p: RatPoly) -> RatPoly:
    """Inverse of :func:`to_u_form`: substitute u = N^2 - r^2/4."""
    if p.var != "u":
        raise ValueError(f"from_u_form expects a u-frame polynomial, got {p.var!r}")
    h = p.shift(Fraction(-p.r * p.r, 4))
    spread = [0] * max(0, 2 * len(h.numerators) - 1)
    spread[::2] = h.numerators
    return _raw(tuple(spread), h.denominator, "N", p.r)


def divide_exact(p: RatPoly, q: RatPoly) -> RatPoly:
    """Exact polynomial division; raises if the remainder is nonzero.

    Fraction-free long division of the numerators: each step multiplies the
    remainder and the partial quotient by the divisor's leading numerator.
    """
    p._require_same_frame(q)
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, b = list(p.numerators), q.numerators
    lead = b[-1]
    quot = [0] * max(1, len(rem) - len(b) + 1)
    scale = 1
    for d in range(len(rem) - len(b), -1, -1):
        c = rem[d + len(b) - 1]
        if c:
            rem = [x * lead for x in rem]
            quot = [x * lead for x in quot]
            scale *= lead
            quot[d] = c
            for i, y in enumerate(b):
                rem[i + d] -= c * y
    if any(rem):
        raise ValueError("division is not exact (nonzero remainder)")
    return RatPoly.from_integers(
        [x * q.denominator for x in quot], scale * p.denominator, p.var, p.r
    )


# -- rendering ---------------------------------------------------------------


def _term_text(c: Fraction, k: int, var: str) -> str:
    if k == 0:
        return str(c)
    if c == 1:
        head = var
    elif c == -1:
        head = f"-{var}"
    else:
        head = f"{c}*{var}"
    return head if k == 1 else f"{head}^{k}"


def to_text(p: RatPoly) -> str:
    """Plain-text form, descending degree, exact fractions (never decimals)."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        term = _term_text(abs(c) if parts else c, k, p.var)
        if parts:
            parts.append("- " if c < 0 else "+ ")
        parts.append(term + " " if k else term)
    return "".join(parts).strip()


def _latex_var(p: RatPoly) -> str:
    if p.var == "N":
        return f"N_{{{p.r}}}"
    return p.var


def _latex_frac(num: str, den: int) -> str:
    return num if den == 1 else f"\\frac{{{num}}}{{{den}}}"


def to_latex(p: RatPoly) -> str:
    """LaTeX form, descending degree, explicit \\frac for every fraction."""
    if p.is_zero():
        return "0"
    var = _latex_var(p)
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _latex_frac(str(mag.numerator), mag.denominator)
        else:
            pw = var if k == 1 else f"{var}^{{{k}}}"
            num = pw if mag.numerator == 1 else f"{mag.numerator} {pw}"
            body = _latex_frac(num, mag.denominator)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def poly_to_json(p: RatPoly) -> dict:
    """JSON form: {"var": .., "r": .., "coeffs": [["num","den"], ...]} ascending."""
    return {
        "var": p.var,
        "r": p.r,
        "coeffs": [rational_to_json(c) for c in p.coeffs],
    }


def poly_from_json(obj: dict) -> RatPoly:
    if not isinstance(obj, dict) or not {"var", "r", "coeffs"} <= set(obj):
        raise ValueError(f"not a serialized polynomial: {obj!r}")
    return RatPoly(
        tuple(rational_from_json(c) for c in obj["coeffs"]),
        str(obj["var"]),
        int(obj["r"]),
    )
