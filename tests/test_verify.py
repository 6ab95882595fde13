"""The verification runner itself: pass/fail data, fault localization, reports."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hypersums import cli, hypersum
from hypersums.verify import golden_fixtures, run_all, run_grid


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
    assert len(report.checks) == 8365


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
