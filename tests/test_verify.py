"""The verification runner itself: pass/fail data, fault localization, reports."""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from fractions import Fraction

import pytest

from hypersums import cli, hypersum
from hypersums.exactnum import bernoulli
from hypersums.polyring import RatPoly
from hypersums.verify import check_routes, golden_fixtures, run_all, run_grid


def test_small_grid_passes():
    report = run_grid(3, 2, 5)
    assert report.passed
    assert report.failures == []
    assert len(report.checks) > 50


def test_minimal_grid_passes():
    report = run_grid(1, 1, 1)
    assert report.passed


def test_grid_checks_every_route_in_the_table(monkeypatch):
    names = {c.name for c in run_grid(2, 1, 2).checks}
    first, *rest = hypersum.ROUTES
    assert {f"route-equality[{first}={name}]" for name in rest} <= names
    assert {f"eval-vs-recursion[{name}]" for name in hypersum.ROUTES} <= names
    # the table is read at call time, so a replaced entry is the one checked
    monkeypatch.setitem(
        hypersum.ROUTES, "c", lambda m, r: hypersum.hyper_sum_poly_q(m + 1, r)
    )
    failed = {c.name for c in run_grid(2, 1, 2).failures}
    assert failed == {"route-equality[q=c]", "eval-vs-recursion[c]"}


def off_by_n(m: int, r: int) -> hypersum.HyperSumPoly:
    """A wrong route: S(m, r, n) + n, which differs from S at every n >= 1."""
    wrong = hypersum.hyper_sum_poly_q(m, r).poly + RatPoly([0, 1])
    return hypersum.HyperSumPoly(m, r, wrong)


def routes_with_comparisons(monkeypatch, m_max: int, r_max: int, n_max: int):
    """The check_routes results on the grid, and the number of table comparisons made."""
    calls = []
    real = RatPoly.first_mismatch
    monkeypatch.setattr(RatPoly, "first_mismatch", lambda p, v: calls.append(1) or real(p, v))
    checks = list(check_routes(m_max, r_max, n_max))
    return checks, len(calls)


def test_equal_route_polynomials_are_compared_with_the_table_once(monkeypatch):
    checks, comparisons = routes_with_comparisons(monkeypatch, 3, 2, 6)
    assert all(c.passed for c in checks)
    assert comparisons == 3 * 2


def test_two_routes_with_the_same_wrong_polynomial_both_fail(monkeypatch):
    monkeypatch.setitem(hypersum.ROUTES, "c", off_by_n)
    monkeypatch.setitem(hypersum.ROUTES, "chain", off_by_n)
    checks, comparisons = routes_with_comparisons(monkeypatch, 3, 2, 6)
    assert comparisons == 3 * 2 * 2  # the right and the wrong polynomial of each cell
    failed = [c for c in checks if not c.passed]
    names = ("route-equality[q=c]", "route-equality[q=chain]")
    names += ("eval-vs-recursion[c]", "eval-vs-recursion[chain]")
    cells = [(m, r) for m in range(1, 4) for r in range(1, 3)]
    assert [(c.name, c.params["m"], c.params["r"]) for c in failed] == [
        (name, m, r) for m, r in cells for name in names
    ]
    assert {c.detail for c in failed if c.name in names[2:]} == {"first divergence at n=1"}


def test_a_wrong_reference_route_fails_every_equality_and_only_its_own_evaluation(monkeypatch):
    monkeypatch.setitem(hypersum.ROUTES, "q", off_by_n)
    report = run_grid(3, 2, 6)
    others = [name for name in hypersum.ROUTES if name != "q"]
    failed = {c.name for c in report.failures}
    assert failed == {f"route-equality[q={name}]" for name in others} | {"eval-vs-recursion[q]"}
    assert len(report.failures) == 3 * 2 * (len(others) + 1)  # at every cell


# sha256 of the JSON of [c.to_json() for c in run_all(*grid).checks], keys sorted,
# with the Bernoulli table clean and with one entry corrupted.  Taken when the half-step
# recurrence left the grid: at each grid, clean and under B_2 = 1/7, B_3 = 1/5 and
# B_4 = 1/31, the report equals the one before with that family's rows filtered out
# ((1, 1, 1) has no half-step cell, so its digest is the one from before)
REPORT_DIGESTS = [
    ((8, 4, 10), None, "3efc41ec6a4072dbe570a061582e3318ce207c8cbfa6606b2a23291d683c1ed3"),
    (
        (8, 4, 10),
        (2, Fraction(1, 7)),
        "ba68e6bc10e3a174cf6c90a812bbfbcde85b30817e61139729197994d246caef",
    ),
    (
        (8, 4, 10),
        (4, Fraction(1, 31)),
        "f5e0c14d47f0fdc37ca2f8fbb16218e0f727c0bdde288b2b5f015719eb514b2f",
    ),
    (
        (8, 4, 10),
        (3, Fraction(1, 5)),
        "f860b91f77545fc91c2b603db5cf8646b801063f8b5bf6ad0d641b922162716b",
    ),
    ((1, 1, 1), None, "b865d32b872590c70bec1ade9ff1bdeff9eca33ce3296d80134ffbfbef627711"),
    ((3, 2, 4), None, "375574438d5d1ace52292aa7d00635afaee01f5ec16f23e0aa1cc0ee8ac0767f"),
    (
        (3, 2, 4),
        (3, Fraction(1, 5)),
        "9adabe1f9719d073436236c9aea0a6aa740f643d2d9a55c0bf4529b0ecfcbef7",
    ),
]


@pytest.mark.parametrize(
    "grid, corruption, digest",
    REPORT_DIGESTS,
    ids=["clean", "B2", "B4", "B3", "1-1-1-clean", "3-2-4-clean", "3-2-4-B3"],
)
def test_the_report_is_unchanged(grid, corruption, digest, corrupt_bernoulli):
    with corrupt_bernoulli(*corruption) if corruption else nullcontext():
        checks = [c.to_json() for c in run_all(*grid).checks]
    assert hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest() == digest


def centered_factor_failures(m_max: int = 8, r_max: int = 4, n_max: int = 10) -> tuple:
    """The grid's failures: those of centered-factor[det=newton], and all of them."""
    failures = run_grid(m_max, r_max, n_max).failures
    return [c for c in failures if c.name == "centered-factor[det=newton]"], failures


@pytest.mark.parametrize("j", range(2, 10))
def test_the_newton_partner_fails_under_each_bernoulli_number_the_determinant_reads(
    corrupt_bernoulli, j
):
    # the determinant of order m - 1 reads B_2 ... B_(m-1), the Newton factor none: its
    # partner fails under every one of them, the even ones included
    with corrupt_bernoulli(j, bernoulli(j) + Fraction(1, 3)):
        partner, failures = centered_factor_failures()
    assert failures
    assert {(c.params["m"], c.params["r"]) for c in partner} == {
        (m, r) for m in range(j + 1, 9) for r in range(1, 5)
    }


def test_the_newton_partner_fails_under_a_wrong_newton_weight(wrong_newton_weight):
    partner, failures = centered_factor_failures()
    assert failures == partner
    assert {(c.params["m"], c.params["r"]) for c in partner} == {(4, r) for r in range(1, 5)}
    # the failure is the weights' proof, not a difference of two factors
    assert {c.detail for c in partner} == {
        "the Newton weights of m = 4 do not give n^m at n <= m"
    }


def test_a_term_that_vanishes_on_the_user_grid_fails_the_recursion(monkeypatch):
    # n(n-1)...(n-5) is zero at n = 0..5 and of degree 6 < m + r: added to every route,
    # it escapes route equality and the leading coefficient, and only a recursion row
    # that runs past n_max = 5, to n = m + r at least, sees it
    falling = RatPoly([1])
    for k in range(6):
        falling = falling * RatPoly([-k, 1])

    def with_falling(route):
        def wrong(m: int, r: int) -> hypersum.HyperSumPoly:
            h = route(m, r)
            return h._replace(poly=h.poly + falling) if m + r > 6 else h

        return wrong

    for name, route in list(hypersum.ROUTES.items()):
        monkeypatch.setitem(hypersum.ROUTES, name, with_falling(route))
    failures = run_all(30, 15, 5).failures
    assert {c.name for c in failures} == {f"eval-vs-recursion[{name}]" for name in hypersum.ROUTES}
    assert {(c.params["m"], c.params["r"]) for c in failures} == {
        (m, r) for m in range(1, 31) for r in range(1, 16) if m + r > 6
    }
    assert {c.detail for c in failures} == {"first divergence at n=6"}


def test_golden_fixtures_pass():
    report = golden_fixtures()
    assert report.passed, [c.name for c in report.failures]
    names = {c.name for c in report.checks}
    assert "golden-centered-factor" in names
    assert "golden-half-shifted-power-sum" in names
    assert "golden-parity-lift-difference" in names
    assert "golden-coefficient-relation" in names


def test_corrupted_bernoulli_is_located(corrupt_bernoulli):
    with corrupt_bernoulli(4, Fraction(1, 31)):
        report = run_grid(5, 3, 6)
    assert not report.passed
    # the failure records carry the offending cell and both objects
    assert any("m" in c.params for c in report.failures)
    detailed = [c for c in report.failures if "coefficient" in c.detail]
    assert detailed, "failures should carry the first differing coefficient"
    blob = json.loads(detailed[0].detail.split("; ", 1)[1])
    assert {"left", "right"} <= set(blob)


def test_verify_cap_grid_passes():
    report = run_all(*cli.MAX_VERIFY_GRID)
    assert report.passed, [c.to_json() for c in report.failures[:5]]
    assert len(report.checks) == 6507


def test_report_json_shape():
    report = run_all(2, 1, 3)
    blob = report.to_json()
    assert blob["status"] == "pass"
    assert blob["grid"] == {"m_max": 2, "r_max": 1, "n_max": 3}
    assert blob["failures"] == []
    assert blob["total_checks"] == len(report.checks)
    json.dumps(blob)  # serializable


def test_report_determinism():
    first = run_grid(3, 2, 4)
    second = run_grid(3, 2, 4)
    assert [(c.name, tuple(sorted(c.params.items())), c.passed) for c in first.checks] == [
        (c.name, tuple(sorted(c.params.items())), c.passed) for c in second.checks
    ]


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        run_grid(0, 1, 1)


def test_summary_text_mentions_status():
    report = run_all(2, 1, 3)
    text = report.summary_text()
    assert "PASS" in text and "failures" in text
