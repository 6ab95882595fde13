"""The verification runner itself: pass/fail data, fault localization, reports."""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from fractions import Fraction

import pytest

from hypersums import cli, hypersum, verify
from hypersums.exactnum import bernoulli
from hypersums.polyring import RatPoly
from hypersums.verify import DEFAULT_GRID, check_routes, golden_fixtures, run_all, run_grid
from conftest import spy, table_fault


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
    calls = spy(monkeypatch, RatPoly, "first_mismatch")
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
# with the Bernoulli table clean and with one entry corrupted.  Taken when the golden
# displays that named tests pin left verify: at each grid, clean and under B_2 = 1/7,
# B_3 = 1/5 and B_4 = 1/31, the report equals the one before with every golden row
# but the five coefficient relations filtered out.  Each failure's cell and detail, with
# the first differing coefficient and both polynomials in JSON, are part of the digest
REPORT_DIGESTS = [
    ((8, 4, 10), None, "0efb73d0524ae46777831ae2a5ee83b5a3407cd5e30a7d71fe20c12fec1515c4"),
    (
        (8, 4, 10),
        (2, Fraction(1, 7)),
        "6402687bcf822aea5318afa7b71f8bf0788c6a25bba53eef03683eeb0eb1e8f8",
    ),
    (
        (8, 4, 10),
        (4, Fraction(1, 31)),
        "e96438f47428e59daa54bd83988f8d9b97e6624896261b44478466907435f811",
    ),
    (
        (8, 4, 10),
        (3, Fraction(1, 5)),
        "e79f3c37f81bca15f9536bbedcd3a6a1df5de040377684acb034f5bfe62a593a",
    ),
    ((1, 1, 1), None, "9ae30657457157411726b4c7ec3fafd3ac08baeb4942ea14fa6a2d523885f80a"),
    ((3, 2, 4), None, "d3656e0772490e326af1c2fa816657fd042d7e35025072adf72ef23770ed6476"),
    (
        (3, 2, 4),
        (3, Fraction(1, 5)),
        "361425d4247a28ac51383d818996092702a69cdae5a597e5907d7deeb3052928",
    ),
]


@pytest.mark.parametrize(
    "grid, corruption, digest",
    REPORT_DIGESTS,
    ids=["clean", "B2", "B4", "B3", "1-1-1-clean", "3-2-4-clean", "3-2-4-B3"],
)
def test_the_report_is_unchanged(grid, corruption, digest):
    with table_fault(*corruption) if corruption else nullcontext():
        checks = [c.to_json() for c in run_all(*grid).checks]
    assert hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest() == digest


# summary_text(), the stdout of `hypersums verify`, at a wall time of 1.5 s: its status
# line, and the sha256 of the whole text, which holds the header, one row per check name,
# the first 20 failures with each detail cut to 200 characters, and the status.  Under
# B_3 = 1/5 the grid has 23 failures, and six of the first 20 details are longer than 200
SUMMARY_DIGESTS = [
    (
        (2, 1, 3),
        None,
        "PASS: 39 checks, 0 failures (1.50s)",
        "5a17751a9882dd1545acaf179295d48e18d5e448389e5a360779a373c4f97433",
    ),
    (
        (3, 2, 4),
        (3, Fraction(1, 5)),
        "FAIL: 100 checks, 23 failures (1.50s)",
        "73cbaa51f53ec58092846d344a5bf7ef69be72f6eab7831c4b420c788c5b3cad",
    ),
]


@pytest.mark.parametrize(
    "grid, corruption, status, digest", SUMMARY_DIGESTS, ids=["2-1-3-clean", "3-2-4-B3"]
)
def test_the_text_report_is_unchanged(grid, corruption, status, digest):
    with table_fault(*corruption) if corruption else nullcontext():
        text = run_all(*grid)._replace(wall_time=1.5).summary_text()
    assert text.splitlines()[-1] == status
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def centered_factor_failures(m_max: int = 8, r_max: int = 4, n_max: int = 10) -> tuple:
    """The grid's failures: those of centered-factor[det=newton], and all of them."""
    failures = run_grid(m_max, r_max, n_max).failures
    return [c for c in failures if c.name == "centered-factor[det=newton]"], failures


@pytest.mark.parametrize("j", range(2, 10))
def test_the_newton_partner_fails_under_each_bernoulli_number_the_determinant_reads(j):
    # the determinant of order m - 1 reads B_2 ... B_(m-1), the Newton factor none: its
    # partner fails under every one of them, the even ones included
    with table_fault(j, bernoulli(j) + Fraction(1, 3)):
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
    assert {c.name for c in report.checks} == {"golden-coefficient-relation"}
    assert [c.params for c in report.checks] == [{"index": 9, "j": j, "r": 10} for j in range(5)]
    # the paper's other displays are pinned by named tests, not by verify: a full run is
    # the grid run followed by the five relations
    checks = run_all().checks
    assert {c.name for c in checks if c.name.startswith("golden-")} == {
        "golden-coefficient-relation"
    }
    assert checks == run_grid(*DEFAULT_GRID).checks + report.checks


def test_verify_cap_grid_passes():
    report = run_all(*cli.MAX_VERIFY_GRID)
    assert report.passed, [c.to_json() for c in report.failures[:5]]
    assert len(report.checks) == 6486


def test_report_json_shape():
    report = run_all(2, 1, 3)
    blob = report.to_json()
    assert blob["status"] == "pass"
    assert blob["grid"] == {"m_max": 2, "r_max": 1, "n_max": 3}
    assert blob["failures"] == []
    assert blob["total_checks"] == len(report.checks)
    json.dumps(blob)  # serializable


def test_run_all_adds_the_time_of_the_relations_to_the_grid_time(monkeypatch):
    grid, golden = run_grid(2, 1, 3)._replace(wall_time=2.0), golden_fixtures()
    monkeypatch.setattr(verify, "run_grid", lambda *grid_bounds: grid)
    monkeypatch.setattr(verify, "golden_fixtures", lambda: golden._replace(wall_time=0.5))
    assert run_all(2, 1, 3) == (2, 1, 3, grid.checks + golden.checks, 2.5)
