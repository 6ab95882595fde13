"""Cross-method equivalence runner and golden fixtures.

``run_grid`` runs the check families of ``GRID_CHECKS`` over a requested
(m, r, n) grid: the five-way route equivalence, evaluation against the
defining recursion and the leading coefficient, the centered factor against
the Newton factor and its structural form, the order-lifting and
parity-split recurrences, and the Stirling weights.  Each fact is checked
once: the half-step defect is m times the parity-lift defect at m - 1 minus
odd-index Bernoulli terms, which are zero unless a table is wrong, and then
route equality fails; the centered recurrence is m r times the order-lift
defect at m - 1 minus r times the half-step defect.  So neither is run.
``golden_fixtures`` pins a set of exact closed-form displays.  Failures are
collected as data (never raised), each carrying both divergent objects in
JSON form for debuggability; a detail is built only for a check that failed.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import factorial

from . import hessenberg, hypersum
from .exactnum import CrossCheckError, DomainError, r_stirling1, rational_to_json
from .polyring import RatPoly, monomial, poly_to_json, sum_of_products, to_n_frame


class CheckResult(namedtuple("CheckResult", "name params passed detail", defaults=("",))):
    """Outcome of one named check at one grid cell."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The fields, with the detail only when there is one."""
        return {key: v for key, v in self._asdict().items() if key != "detail" or v}


class VerifyReport(namedtuple("VerifyReport", "m_max r_max n_max checks wall_time")):
    """Deterministic record of a verification run."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "grid": {"m_max": self.m_max, "r_max": self.r_max, "n_max": self.n_max},
            "status": "pass" if self.passed else "fail",
            "total_checks": len(self.checks),
            "failures": [c.to_json() for c in self.failures],
            "wall_time_seconds": round(self.wall_time, 6),
        }

    def summary_text(self) -> str:
        by_name: dict[str, list[CheckResult]] = {}
        for c in self.checks:
            by_name.setdefault(c.name, []).append(c)
        lines = [
            f"verification grid: m <= {self.m_max}, r <= {self.r_max}, n <= {self.n_max}",
            f"{'check':<34}{'cells':>8}{'failed':>8}",
        ]
        for name, items in by_name.items():
            failed = sum(1 for c in items if not c.passed)
            lines.append(f"{name:<34}{len(items):>8}{failed:>8}")
        for c in self.failures[:20]:
            lines.append(f"FAIL {c.name} {c.params}: {c.detail[:200]}")
        status = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{status}: {len(self.checks)} checks, {len(self.failures)} failures "
            f"({self.wall_time:.2f}s)"
        )
        return "\n".join(lines)


def _check(name: str, params: dict, ok: bool, describe=str) -> CheckResult:
    """A check whose detail, ``describe()`` (empty by default), is built only when it failed."""
    return CheckResult(name, params, ok, "" if ok else describe())


def _poly_check(name: str, params: dict, a: RatPoly, b: RatPoly) -> CheckResult:
    """An equality check of two polynomials; a failure carries both of them."""
    if a == b:
        return CheckResult(name, params, True)
    degrees = range(max(len(a.numerators), len(b.numerators)))
    k = next((k for k in degrees if a.coefficient(k) != b.coefficient(k)), -1)
    pair = json.dumps({"left": poly_to_json(a), "right": poly_to_json(b)})
    return CheckResult(name, params, False, f"first differing coefficient at degree {k}; {pair}")


# Each check family takes the grid bounds alone and yields its results in a fixed order.
Checks = Iterator[CheckResult]


def check_routes(m_max: int, r_max: int, n_max: int) -> Checks:
    """Five-way route equality, evaluation against the defining recursion at n = 0..m + r
    at least, which proves a route of degree m + r, and the leading-coefficient law m!/(m+r)!."""
    for m in range(1, m_max + 1):
        rows = hypersum.value_table(m, r_max, max(n_max, m + r_max))
        next(rows)  # r = 0
        for r, row in enumerate(rows, 1):
            cell = {"m": m, "r": r}
            produced = {name: route(m, r).poly for name, route in hypersum.ROUTES.items()}
            (ref_name, ref), *others = produced.items()
            for name, p in others:
                yield _poly_check(f"route-equality[{ref_name}={name}]", cell, ref, p)
            # equal polynomials are compared with the recursion table once
            mismatch = {}
            for name, p in produced.items():
                if p not in mismatch:
                    mismatch[p] = p.first_mismatch(row)
                bad = mismatch[p]
                yield _check(
                    f"eval-vs-recursion[{name}]",
                    cell,
                    bad is None,
                    lambda: f"first divergence at n={bad}",
                )
            # the degree is m + r and the coefficient of n^(m+r) m!/(m+r)!, in integers
            nums = ref.numerators
            yield _check(
                "leading-coefficient",
                cell,
                len(nums) == m + r + 1
                and nums[m + r] * factorial(m + r) == factorial(m) * ref.denominator,
                lambda: f"degree {ref.degree}, n^{m + r} coefficient {ref.coefficient(m + r)}",
            )


def check_centered_factor(m_max: int, r_max: int, n_max: int) -> Checks:
    """The determinant's centered factor equals the Bernoulli-free Newton factor and has
    the parity, length, alternating signs and leading term of the paper."""
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            cell = {"m": m, "r": r}
            p = hypersum.faulhaber_det(m, r)
            try:
                newton = hypersum.newton_factor(m, r)
            except CrossCheckError as exc:  # the Newton weights failed their proof
                yield CheckResult("centered-factor[det=newton]", cell, False, str(exc))
            else:
                yield _poly_check("centered-factor[det=newton]", cell, p, newton)
            # the g coefficients' numerators over the positive denominator carry their signs
            g = p.numerators[p.degree % 2 :: 2]
            ok = (
                p.parity() == ("even" if m % 2 == 1 else "odd")
                and len(g) == (m + 1) // 2
                and all(g)
                and g[-1] > 0
                and all((a > 0) != (b > 0) for a, b in zip(g, g[1:]))
                and g[-1] * factorial(m + r) == factorial(r + 1) * factorial(m) * p.denominator
            )
            yield _check(
                "centered-factor-structure",
                cell,
                ok,
                lambda: json.dumps([rational_to_json(c) for c in p.coeffs[p.degree % 2 :: 2]]),
            )


def check_order_lift(m_max: int, r_max: int, n_max: int) -> Checks:
    """S(m, r+1) = ((n+r)/r) S(m, r) - (1/r) S(m+1, r)."""
    for m in range(0, m_max + 1):
        for r in range(1, r_max + 1):
            lhs = hypersum.hyper_sum_poly(m, r + 1)
            rhs = sum_of_products(
                [
                    (((r, 1), r), hypersum.hyper_sum_poly(m, r)),
                    (((-1,), r), hypersum.hyper_sum_poly(m + 1, r)),
                ]
            )
            yield _poly_check("order-lift-recurrence", {"m": m, "r": r}, lhs, rhs)


def check_parity_lift(m_max: int, r_max: int, n_max: int) -> Checks:
    """The parity-split lifts from order r to r + 1 leave a zero defect polynomial."""
    for parity, first in (("odd", 1), ("even", 2)):
        for e in range(first, max(m_max, first) + 1, 2):
            for r in range(0, r_max + 1):
                residual = hypersum.coffey_residual(e, r)
                yield _check(
                    f"parity-lift[{parity}]",
                    {"m": e, "r": r},
                    residual.is_zero(),
                    lambda: str(residual),
                )


def check_weights_vs_r_stirling(m_max: int, r_max: int, n_max: int) -> Checks:
    """The weight polynomials q_{r,i}(n) are r-shifted Stirling numbers, n <= 8."""
    for r in range(0, r_max + 1):
        for i in range(0, r + 1):
            q = hypersum.q_poly(r, i)
            bad = q.first_mismatch(
                r_stirling1(r + n + 1, i + n + 1, n + 1) for n in range(0, min(n_max, 8) + 1)
            )
            yield _check(
                "weights-vs-r-stirling", {"r": r, "i": i}, bad is None, lambda: f"fails at n={bad}"
            )


GRID_CHECKS = (
    check_routes,
    check_centered_factor,
    check_order_lift,
    check_parity_lift,
    check_weights_vs_r_stirling,
)


def run_grid(m_max: int, r_max: int, n_max: int) -> VerifyReport:
    """Run every grid-parameterized check; failures are collected, not raised."""
    if m_max < 1 or r_max < 1 or n_max < 1:
        raise DomainError("grid bounds must be >= 1")
    start = time.perf_counter()
    checks = [c for check in GRID_CHECKS for c in check(m_max, r_max, n_max)]
    return VerifyReport(m_max, r_max, n_max, checks, time.perf_counter() - start)


# -- golden fixtures -----------------------------------------------------------


def _golden_checks() -> Checks:
    # centered factors for (5, 7) and (6, 7)
    yield _poly_check(
        "golden-centered-factor",
        {"m": 5, "r": 7},
        hypersum.faulhaber_det(5, 7),
        RatPoly([Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7),
    )
    yield _poly_check(
        "golden-centered-factor",
        {"m": 6, "r": 7},
        hypersum.faulhaber_det(6, 7),
        RatPoly(
            [0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7
        ),
    )

    # factored hyper-sum displays for (5, 7) and (6, 7)
    bracket5 = RatPoly([693, 0, -280, 0, 16], "N", 7)
    expected5 = (hypersum.s1_poly(7) * to_n_frame(bracket5)).scale(Fraction(1, 1584))
    yield _poly_check(
        "golden-factored-hyper-sum",
        {"m": 5, "r": 7},
        hypersum.hyper_sum_det(5, 7).poly,
        expected5,
    )
    bracket6 = RatPoly([0, 6419, 0, -1176, 0, 48], "N", 7)
    expected6 = (hypersum.s1_poly(7) * to_n_frame(bracket6)).scale(Fraction(1, 10296))
    yield _poly_check(
        "golden-factored-hyper-sum",
        {"m": 6, "r": 7},
        hypersum.hyper_sum_det(6, 7).poly,
        expected6,
    )

    # cubic hyper-sum display, r = 1..5:
    # S(3, r, n) = C(n+r, r+1) (6n^2 + 6rn + r(r-1)) / ((r+2)(r+3))
    for r in range(1, 6):
        expected = (hypersum.s1_poly(r) * RatPoly([r * (r - 1), 6 * r, 6])).scale(
            Fraction(1, (r + 2) * (r + 3))
        )
        yield _poly_check(
            "golden-cubic-hyper-sum", {"r": r}, hypersum.hyper_sum_det(3, r).poly, expected
        )

    # square-of-triangular identity: S_3(n) = C(n+1, 2)^2
    triangular = RatPoly([0, Fraction(1, 2), Fraction(1, 2)])
    yield _poly_check(
        "golden-cube-sum-square",
        {},
        hypersum.power_sum_poly(3),
        triangular * triangular,
    )

    # half-shifted power sums for m = 7, 8
    yield _poly_check(
        "golden-half-shifted-power-sum",
        {"m": 7},
        hypersum.faulhaber_r1(7),
        RatPoly(
            [
                Fraction(17, 2048), 0, Fraction(-31, 384), 0,
                Fraction(49, 192), 0, Fraction(-7, 24), 0, Fraction(1, 8),
            ],
            "N",
            1,
        ),
    )
    yield _poly_check(
        "golden-half-shifted-power-sum",
        {"m": 8},
        hypersum.faulhaber_r1(8),
        RatPoly(
            [
                0, Fraction(127, 3840), 0, Fraction(-31, 144), 0,
                Fraction(49, 120), 0, Fraction(-1, 3), 0, Fraction(1, 9),
            ],
            "N",
            1,
        ),
    )

    # factored difference of fourth- and third-order quintic sums:
    # S(5, 4, n) - (1/2) S(5, 3, n)
    #   = (1/240) n(n+1)(n+2)(n+3)(2n+3)
    #     [ (5/126)(n+3/2)^4 - (5/252)(n+3/2)^2 - 859/2016 ]
    lhs = hypersum.hyper_sum_poly(5, 4) - hypersum.hyper_sum_poly(5, 3).scale(
        Fraction(1, 2)
    )
    prefactor = (
        RatPoly([0, 1]) * RatPoly([1, 1]) * RatPoly([2, 1]) * RatPoly([3, 1]) * RatPoly([3, 2])
    )
    centered = monomial(4).shift(Fraction(3, 2)).scale(Fraction(5, 126)) + monomial(
        2
    ).shift(Fraction(3, 2)).scale(Fraction(-5, 252)) + RatPoly([Fraction(-859, 2016)])
    rhs = (prefactor * centered).scale(Fraction(1, 240))
    yield _poly_check("golden-parity-lift-difference", {"m": 5}, lhs, rhs)

    # closed-form determinant at r = 0: (-1)^(m-1) 2...(m) n^(m-1), for m = 2..8
    for m in range(2, 9):
        d = hessenberg.det(hessenberg.build_matrix(m, 0))
        expected = monomial(m - 1, (-1) ** (m - 1) * factorial(m), "N", 0)
        yield _poly_check("golden-determinant-r0", {"m": m}, d, expected)
    d1 = hessenberg.det(hessenberg.build_matrix(1, 3))
    yield _check("golden-determinant-empty", {"m": 1, "r": 3}, d1 == RatPoly([1], "N", 3))

    # five coefficient relations tying index 9 to indices 1..8, at r = 10
    r = 10
    factors = {m: hypersum.faulhaber_det(m, r) for m in (1, 3, 5, 7, 8, 9)}
    g = {m: p.coeffs[p.degree % 2 :: 2] for m, p in factors.items()}
    relations = [
        g[9][0]
        == Fraction(3, 19) * g[1][0]
        - Fraction(20, 19) * g[3][0]
        + Fraction(42, 19) * g[5][0]
        - Fraction(60, 19) * g[7][0],
        g[9][1]
        == Fraction(9, 19) * g[8][0]
        - Fraction(20, 19) * g[3][1]
        + Fraction(42, 19) * g[5][1]
        - Fraction(60, 19) * g[7][1],
        g[9][2]
        == Fraction(9, 19) * g[8][1]
        + Fraction(42, 19) * g[5][2]
        - Fraction(60, 19) * g[7][2],
        g[9][3] == Fraction(9, 19) * g[8][2] - Fraction(60, 19) * g[7][3],
        g[9][4] == Fraction(9, 19) * g[8][3],
    ]
    for j, ok in enumerate(relations):
        yield _check("golden-coefficient-relation", {"index": 9, "j": j, "r": r}, ok)


def golden_fixtures() -> VerifyReport:
    """Exact reproduction of the pinned closed-form displays."""
    start = time.perf_counter()
    return VerifyReport(0, 0, 0, list(_golden_checks()), time.perf_counter() - start)


# m_max, r_max, n_max: reaches Bernoulli numbers through index 14 and all the
# structural laws while staying seconds-scale
DEFAULT_GRID = (10, 6, 15)


def run_all(
    m_max: int = DEFAULT_GRID[0], r_max: int = DEFAULT_GRID[1], n_max: int = DEFAULT_GRID[2]
) -> VerifyReport:
    """Default full run: grid checks plus golden fixtures."""
    grid, golden = run_grid(m_max, r_max, n_max), golden_fixtures()
    checks, seconds = grid.checks + golden.checks, grid.wall_time + golden.wall_time
    return VerifyReport(m_max, r_max, n_max, checks, seconds)
