"""Self-tests of the benchmark: inputs, oracle, checkers and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hypersums import cli, exactnum, hypersum, polyring  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.rounds(workload, 7, 3) == workloads.rounds(workload, 7, 3)
    assert workloads.rounds(workload, 7, 3) != workloads.rounds(workload, 8, 3)


def test_oracle_agrees_with_bruteforce():
    for m in range(8):
        for r in range(6):
            for n in range(12):
                assert oracle.hyper_sum(m, r, n) == hypersum.hyper_sum_bruteforce(m, r, n), (m, r, n)


def _cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _corrupt_last_number(text: str) -> str:
    """Increment the last run of digits: a deliberately wrong value."""
    match = list(re.finditer(r"\d+", text))[-1]
    return text[: match.start()] + str(int(match[0]) + 1) + text[match.end() :]


def _small_requests() -> list[dict]:
    reqs = [req for seed in (1, 2) for req in workloads.cli_round(seed, 0) if req["m"] <= 25]
    assert {req["kind"] for req in reqs} == set(oracle.CHECKERS)
    return reqs


@pytest.mark.parametrize("req", _small_requests(), ids=lambda req: " ".join(req["argv"]))
def test_checker_accepts_right_and_rejects_wrong_cli_output(req):
    out = _cli_stdout(req["argv"])
    assert oracle.check_cli(req, 0, out) is None
    assert oracle.check_cli(req, 0, _corrupt_last_number(out)) is not None
    assert oracle.check_cli(req, 0, out[: len(out.rstrip()) // 2]) is not None
    assert oracle.check_cli(req, 3, out) is not None


def test_route_checker_rejects_a_wrong_value():
    op = workloads.routes_round(1, 0)[0]
    values = [str(oracle.hyper_sum(op["m"], op["r"], n)) for n in op["points"]]
    assert oracle.check_route(op, values) is None
    values[-1] = str(int(values[-1]) + 1)
    assert oracle.check_route(op, values) is not None
    assert oracle.check_route(op, values[:-1]) is not None


def test_verify_checker_counts_a_changed_check_count():
    op = workloads.verify_round(1, 0)[0]
    grids: dict = {}
    good = {"out": {"passed": True, "checks": 100}}
    assert run.check_inproc("verify", [op], [good], grids) == []
    assert run.check_inproc("verify", [op], [{"out": {"passed": True, "checks": 99}}], grids)
    assert run.check_inproc("verify", [op], [{"out": {"passed": False, "checks": 100}}], grids)


def test_traced_cli_request_prints_the_same_bytes(tmp_path, monkeypatch):
    req = next(req for req in workloads.cli_round(3, 0) if req["kind"] == "det")
    monkeypatch.setattr(run, "WORK", tmp_path)
    plain = run.cli_request(req)
    traced = run.cli_request(req, tmp_path / "spans.json")
    assert plain["code"] == traced["code"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert traced["layers"]["cli.main"][0] == 1
    assert traced["layers"]["hessenberg.det"][0] == 1
    names = {row[1] for row in traced["spans"]}
    assert {"op", "cli.main", "hessenberg.det", "polyring.render"} <= names


def test_tracer_self_times_fit_latency_and_uninstall_restores():
    before = (exactnum.bernoulli, hypersum.ROUTES["q"], polyring.RatPoly.__mul__)
    tracer = Tracer().install()
    tracer.keep_spans = True
    assert hypersum.ROUTES["q"] is not before[1]
    exactnum.clear_derived_caches()
    tracer.begin_op(0)
    hypersum.ROUTES["q"](12, 5).poly.eval(10**6)
    record = tracer.end_op()
    tracer.uninstall()
    assert (exactnum.bernoulli, hypersum.ROUTES["q"], polyring.RatPoly.__mul__) == before
    rows = tracer.spans_as_rows()
    root = next(row for row in rows if row[1] == "op")
    self_ns = sum(cell[1] for cell in record["layers"].values())
    assert 0 < self_ns <= root[3] - root[2]
    assert record["layers"]["hypersum.route.q"][0] == 1
    assert record["bernoulli_max"] == 16  # power sums S_12 .. S_16 need B_0 .. B_16
    ids = {row[0] for row in rows}
    assert all(row[4] in ids for row in rows if row[4] != -1)


def test_scales_follow_the_reference_times_near_each_record():
    ref = refclock.REFERENCE_MS

    def rec(raw_ms, loop_ms):
        return {"raw_ms": raw_ms, "ref": [loop_ms] * 2 * refclock.REFERENCE_RUNS}

    apart = [rec(600, 2 * ref), rec(600, ref)]  # farther apart than the window
    refclock.add_scales(apart)
    assert [r["scale"] for r in apart] == [0.5, 1.0]
    assert run.latency_ms(apart[0]) == 300.0
    close = [rec(100, ref), rec(100, 2 * ref), rec(100, 2 * ref)]
    refclock.add_scales(close)
    assert [r["scale"] for r in close] == [0.5, 0.5, 0.5]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
