"""Cross-method equivalence runner and golden fixtures.

``run_grid`` runs the check families of ``GRID_CHECKS`` over a requested
(m, r, n) grid: the five-way route equivalence, evaluation against the
defining recursion, the structural form of the centered factor polynomials,
the order-lifting and parity-split recurrences, the weighted-sum identity,
and the leading-coefficient laws.
``golden_fixtures`` pins a set of exact closed-form displays.  Failures are
collected as data (never raised), each carrying both divergent objects in
JSON form for debuggability.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Iterator

from . import hessenberg, hypersum
from .exactnum import (
    bernoulli,
    r_stirling1,
    rational_to_json,
    rising_factorial,
    sign_pow,
)
from .polyring import RatPoly, monomial, poly, poly_to_json, to_n_frame


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check at one grid cell."""

    name: str
    params: dict
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "params": self.params, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerifyReport:
    """Deterministic record of a verification run."""

    m_max: int
    r_max: int
    n_max: int
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def merge(self, other: "VerifyReport") -> None:
        self.checks.extend(other.checks)
        self.wall_time += other.wall_time

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


def _first_coeff_mismatch(a: RatPoly, b: RatPoly) -> int:
    for k in range(max(len(a.coeffs), len(b.coeffs))):
        if a.coefficient(k) != b.coefficient(k):
            return k
    return -1


def _check(name: str, params: dict, ok: bool, detail: str = "") -> CheckResult:
    """A check whose detail is kept only when it failed."""
    return CheckResult(name, params, ok, "" if ok else detail)


def _poly_check(name: str, params: dict, a: RatPoly, b: RatPoly) -> CheckResult:
    """An equality check of two polynomials; a failure carries both of them."""
    if a == b:
        return CheckResult(name, params, True)
    k = _first_coeff_mismatch(a, b)
    pair = json.dumps({"left": poly_to_json(a), "right": poly_to_json(b)})
    return CheckResult(name, params, False, f"first differing coefficient at degree {k}; {pair}")


# Each check family takes the grid bounds and the brute-force value table
# values[m, r][n] (m <= m_max + 1, r <= r_max + 1, n <= n_max) and yields its
# results in a fixed order.
Checks = Iterator[CheckResult]


def check_routes(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """Five-way route equality, evaluation against the defining recursion, and
    the leading-coefficient law m!/(m+r)!."""
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            cell = {"m": m, "r": r}
            produced = {name: route(m, r).poly for name, route in hypersum.ROUTES.items()}
            (ref_name, ref), *others = produced.items()
            for name, p in others:
                yield _poly_check(f"route-equality[{ref_name}={name}]", cell, ref, p)
            for name, p in produced.items():
                bad = next((n for n in range(n_max + 1) if p.eval(n) != values[m, r][n]), None)
                yield _check(
                    f"eval-vs-recursion[{name}]", cell, bad is None, f"first divergence at n={bad}"
                )
            lead = ref.coefficient(m + r)
            yield _check(
                "leading-coefficient",
                cell,
                lead == Fraction(factorial(m), factorial(m + r)),
                f"got {lead}",
            )


def check_centered_factor(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """Determinant and coefficientwise centered factors agree, and have the
    parity, length, alternating signs and leading term of the paper."""
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            cell = {"m": m, "r": r}
            det_form = hypersum.faulhaber_det(m, r)
            yield _poly_check(
                "centered-factor[det=rec]", cell, det_form.poly, hypersum.faulhaber_rec(m, r).poly
            )
            g = det_form.g_coeffs
            ok = (
                det_form.poly.parity() == ("even" if m % 2 == 1 else "odd")
                and len(g) == (m + 1) // 2
                and all(c != 0 for c in g)
                and g[-1] > 0
                and all(a * b < 0 for a, b in zip(g, g[1:]))
                and g[-1] == Fraction(factorial(r + 1) * factorial(m), factorial(m + r))
            )
            yield _check(
                "centered-factor-structure", cell, ok, json.dumps([rational_to_json(c) for c in g])
            )


def check_order_lift(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """S(m, r+1) = ((n+r)/r) S(m, r) - (1/r) S(m+1, r)."""
    for m in range(0, m_max + 1):
        for r in range(1, r_max + 1):
            lhs = hypersum.hyper_sum_poly(m, r + 1)
            rhs = (poly([r, 1]) * hypersum.hyper_sum_poly(m, r)).scale(
                Fraction(1, r)
            ) - hypersum.hyper_sum_poly(m + 1, r).scale(Fraction(1, r))
            yield _poly_check("order-lift-recurrence", {"m": m, "r": r}, lhs, rhs)


def check_centered_recurrence(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """(m+r) S(m, r) = m (n + r/2) S(m-1, r) - r sum_k C(m,k) B_{m-k} S(k, r)."""
    for m in range(2, m_max + 1):
        for r in range(0, r_max + 1):
            lhs = hypersum.hyper_sum_poly(m, r).scale(m + r)
            rhs = (poly([Fraction(r, 2), 1]) * hypersum.hyper_sum_poly(m - 1, r)).scale(m)
            for k in range(1, m - 1):
                rhs = rhs - hypersum.hyper_sum_poly(k, r).scale(
                    Fraction(r) * comb(m, k) * bernoulli(m - k)
                )
            yield _poly_check("centered-recurrence", {"m": m, "r": r}, lhs, rhs)


def check_half_step(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """m S(m-1, r+1) = S(m, r) + (m/2) S(m-1, r) + sum_k C(m,k) B_{m-k} S(k, r)."""
    for m in range(2, m_max + 1):
        for r in range(0, r_max + 1):
            lhs = hypersum.hyper_sum_poly(m - 1, r + 1).scale(m)
            rhs = hypersum.hyper_sum_poly(m, r) + hypersum.hyper_sum_poly(m - 1, r).scale(
                Fraction(m, 2)
            )
            for k in range(1, m - 1):
                rhs = rhs + hypersum.hyper_sum_poly(k, r).scale(
                    Fraction(comb(m, k)) * bernoulli(m - k)
                )
            yield _poly_check("half-step-recurrence", {"m": m, "r": r}, lhs, rhs)


def check_weighted_sum(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """sum_{j<=n} j S(m, r-1, j) = (n+1) S(m, r, n) - S(m, r+1, n) on the value table."""
    for m in range(0, m_max + 1):
        for r in range(1, r_max + 1):
            left = accumulate(j * values[m, r - 1][j] for j in range(n_max + 1))
            bad = next(
                (
                    n
                    for n, total in enumerate(left)
                    if total != (n + 1) * values[m, r][n] - values[m, r + 1][n]
                ),
                None,
            )
            yield _check(
                "weighted-sum-identity", {"m": m, "r": r}, bad is None, f"fails at n={bad}"
            )


def check_parity_lift(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """The parity-split lifts from order r to r + 1 leave a zero defect polynomial."""
    for parity, top in (("odd", (m_max + 1) // 2), ("even", m_max // 2)):
        for half_m in range(1, max(top, 1) + 1):
            for r in range(0, r_max + 1):
                residual = hypersum.coffey_residual(half_m, r, parity)
                yield _check(
                    f"parity-lift[{parity}]",
                    {"m": half_m, "r": r},
                    residual.is_zero(),
                    str(residual),
                )


def check_weights_vs_r_stirling(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """The weight polynomials q_{r,i}(n) are r-shifted Stirling numbers, n <= 8."""
    for r in range(0, r_max + 1):
        for i in range(0, r + 1):
            q = hypersum.q_poly(r, i)
            bad = next(
                (
                    n
                    for n in range(0, min(n_max, 8) + 1)
                    if q.eval(n) != r_stirling1(r + n + 1, i + n + 1, n + 1)
                ),
                None,
            )
            yield _check(
                "weights-vs-r-stirling", {"r": r, "i": i}, bad is None, f"fails at n={bad}"
            )


def check_linear_coefficient(m_max: int, r_max: int, n_max: int, values: dict) -> Checks:
    """The explicit linear coefficient matches its collapsed single-sum form."""
    for m in range(0, m_max + 1):
        for r in range(1, r_max + 1):
            yield _check(
                "linear-coefficient-reduction",
                {"m": m, "r": r},
                hypersum.coeff_c(m, r, 1) == hypersum.coeff_c_reduced_k1(m, r),
            )


GRID_CHECKS = (
    check_routes,
    check_centered_factor,
    check_order_lift,
    check_centered_recurrence,
    check_half_step,
    check_weighted_sum,
    check_parity_lift,
    check_weights_vs_r_stirling,
    check_linear_coefficient,
)


def run_grid(m_max: int, r_max: int, n_max: int) -> VerifyReport:
    """Run every grid-parameterized check; failures are collected, not raised."""
    if m_max < 1 or r_max < 1 or n_max < 1:
        raise ValueError("grid bounds must be >= 1")
    start = time.perf_counter()
    values = {
        (m, r): [hypersum.hyper_sum_bruteforce(m, r, n) for n in range(n_max + 1)]
        for m in range(0, m_max + 2)
        for r in range(0, r_max + 2)
    }
    report = VerifyReport(m_max, r_max, n_max)
    for check in GRID_CHECKS:
        report.checks.extend(check(m_max, r_max, n_max, values))
    report.wall_time = time.perf_counter() - start
    return report


# -- golden fixtures -----------------------------------------------------------


def _golden_checks() -> Checks:
    # centered factors for (5, 7) and (6, 7)
    yield _poly_check(
        "golden-centered-factor",
        {"m": 5, "r": 7},
        hypersum.faulhaber_det(5, 7).poly,
        poly([Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7),
    )
    yield _poly_check(
        "golden-centered-factor",
        {"m": 6, "r": 7},
        hypersum.faulhaber_det(6, 7).poly,
        poly(
            [0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7
        ),
    )

    # factored hyper-sum displays for (5, 7) and (6, 7)
    bracket5 = poly([693, 0, -280, 0, 16], "N", 7)
    expected5 = (hypersum.s1_poly(7) * to_n_frame(bracket5)).scale(Fraction(1, 1584))
    yield _poly_check(
        "golden-factored-hyper-sum",
        {"m": 5, "r": 7},
        hypersum.hyper_sum_det(5, 7).poly,
        expected5,
    )
    bracket6 = poly([0, 6419, 0, -1176, 0, 48], "N", 7)
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
        expected = (hypersum.s1_poly(r) * poly([r * (r - 1), 6 * r, 6])).scale(
            Fraction(1, (r + 2) * (r + 3))
        )
        yield _poly_check(
            "golden-cubic-hyper-sum", {"r": r}, hypersum.hyper_sum_det(3, r).poly, expected
        )

    # square-of-triangular identity: S_3(n) = C(n+1, 2)^2
    triangular = poly([0, Fraction(1, 2), Fraction(1, 2)])
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
        hypersum.faulhaber_r1(7).poly,
        poly(
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
        hypersum.faulhaber_r1(8).poly,
        poly(
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
    prefactor = poly([0, 1]) * poly([1, 1]) * poly([2, 1]) * poly([3, 1]) * poly([3, 2])
    centered = monomial(4).shift(Fraction(3, 2)).scale(Fraction(5, 126)) + monomial(
        2
    ).shift(Fraction(3, 2)).scale(Fraction(-5, 252)) + poly([Fraction(-859, 2016)])
    rhs = (prefactor * centered).scale(Fraction(1, 240))
    yield _poly_check("golden-parity-lift-difference", {"m": 5}, lhs, rhs)

    # closed-form determinant at r = 0: (-1)^(m-1) 2...(m) n^(m-1), for m = 2..8
    for m in range(2, 9):
        d = hessenberg.det(hessenberg.build_matrix(m, 0))
        expected = monomial(m - 1, sign_pow(m - 1) * rising_factorial(2, m - 1), "N", 0)
        yield _poly_check("golden-determinant-r0", {"m": m}, d, expected)
    d1 = hessenberg.det(hessenberg.build_matrix(1, 3))
    yield _check("golden-determinant-empty", {"m": 1, "r": 3}, d1 == poly([1], "N", 3))

    # five coefficient relations tying index 9 to indices 1..8, at r = 10
    r = 10
    g = {m: hypersum.faulhaber_det(m, r).g_coeffs for m in (1, 3, 5, 7, 8, 9)}
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
    checks = list(_golden_checks())
    return VerifyReport(0, 0, 0, checks, time.perf_counter() - start)


# m_max, r_max, n_max: reaches Bernoulli numbers through index 14 and all the
# structural laws while staying seconds-scale
DEFAULT_GRID = (10, 6, 15)


def run_all(
    m_max: int = DEFAULT_GRID[0], r_max: int = DEFAULT_GRID[1], n_max: int = DEFAULT_GRID[2]
) -> VerifyReport:
    """Default full run: grid checks plus golden fixtures."""
    report = run_grid(m_max, r_max, n_max)
    report.merge(golden_fixtures())
    return report
