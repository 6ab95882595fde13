"""hypersums benchmark: seeded closed-loop workloads, oracle-checked.

    python3 perfbench/run.py --workload {cli,routes,verify,all} --seed N \
        --seconds S --trace {0,1}

Prints one line per metric (name, value, unit, sample count) and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Times are
normalised to the speed of a reference loop (refclock.py); each line also
shows the raw wall-clock figure.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the spans of the first traced pass are written
to ``.perfbench_work/trace-<workload>-seed<N>.json.gz``.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from child import MAX_SLOWDOWN, measure  # noqa: E402
from refclock import add_scales, timed  # noqa: E402
from tracer import LAYERS, SPAN_FIELDS, write_spans  # noqa: E402

WORKLOADS = ("cli", "routes", "verify")
SETUP_REPEATS = 15
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PROBES = (
    [(f"exactnum.bernoulli_cold_ms.j{j}", "ms") for j in (50, 100, 200)]
    + [(f"polyring.mul_ms.d{d}", "ms") for d in (20, 60, 120)]
    + [("polyring.shift_ms.d120", "ms"), ("polyring.eval_us.d120", "us")]
    + [(f"hessenberg.det_ms.o{o}", "ms") for o in (10, 30, 60)]
    + [(f"hypersum.route_ms.{route}.m60r30", "ms") for route in workloads.ROUTES]
)

CALL_COUNTS = ["exactnum.bernoulli", "exactnum.stirling", "polyring.mul", "hessenberg.det"] + [
    f"hypersum.route.{route}" for route in workloads.ROUTES
]

PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in CALL_COUNTS]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [
        ("exactnum.bernoulli.max_index", "count"),
        ("hypersum.cache.hit_ratio", "ratio"),
        ("hypersum.cache.entries", "count"),
        ("verify.checks", "count"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    + PROBES
)


# -- processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERSUM_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def spawn(cmd: list[str]) -> tuple[int, bytes, float, str]:
    """Run one process to completion: (exit code, stdout, peak RSS in MB, stderr)."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024, err_path.read_text(errors="replace")


def run_child_json(args: list[str], stdin: str) -> dict:
    proc = subprocess.run(
        child_cmd(*args),
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def setup_seconds(workload: str) -> float:
    """Median normalised time for a fresh interpreter to import hypersums and warm up."""
    spawn(child_cmd("setup", workload))  # writes bytecode caches in a fresh checkout
    records = []
    for _ in range(SETUP_REPEATS):
        (code, _, _, err), raw_ms, ref = timed(spawn, child_cmd("setup", workload))
        if code != 0:
            raise RuntimeError(f"setup failed: {err[-2000:]}")
        records.append({"raw_ms": raw_ms, "ref": ref})
    add_scales(records)
    return statistics.median(latency_ms(rec) for rec in records) / 1e3


def cli_request(req: dict, spans_file: Path | None = None) -> dict:
    if spans_file is None:
        cmd = [sys.executable, "-m", "hypersums.cli", *req["argv"]]
    else:
        cmd = child_cmd("cli-traced", str(spans_file), *req["argv"])
    (code, out, rss, err), raw_ms, ref = timed(spawn, cmd)
    record = {"raw_ms": raw_ms, "ref": ref, "code": code, "stdout": out, "rss": rss, "stderr": err}
    if spans_file is not None:
        # a request that died before writing its spans still yields a record
        record.update(layers={}, bernoulli_max=-1, cache=[0, 0, 0], import_ms=0.0, spans=[])
        if spans_file.exists():
            record.update(json.loads(spans_file.read_text()))
            spans_file.unlink()
    return record


def latency_ms(record: dict) -> float:
    """Normalised latency of one operation; see refclock.py."""
    return record["raw_ms"] * record["scale"]


# -- statistics -------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(count: int) -> float:
    """p90 when 100 or more samples, else the highest level with 10 samples beyond it."""
    return min(0.9, max(0.5, 1 - 10 / count))


# -- end-to-end runs ------------------------------------------------------------------


def check_cli_records(requests: list[dict], records: list[dict]) -> list[str]:
    failures = []
    for req, rec in zip(requests, records):
        reason = oracle.check_cli(req, rec["code"], rec["stdout"].decode(errors="replace"))
        if reason:
            failures.append(f"{' '.join(req['argv'])}: {reason}; {rec['stderr'][-200:]}")
    return failures


def check_inproc(workload: str, ops: list[dict], records: list[dict], grids: dict) -> list[str]:
    failures = []
    for op, rec in zip(ops, records):
        if workload == "routes":
            reason = oracle.check_route(op, rec["out"])
        else:
            grid = (op["m_max"], op["r_max"], op["n_max"])
            checks = rec["out"]["checks"]
            reason = None if rec["out"]["passed"] else "verification report failed"
            if grids.setdefault(grid, checks) != checks:
                reason = f"grid {grid} gave {checks} checks, earlier {grids[grid]}"
        if reason:
            failures.append(f"{op}: {reason}")
    return failures


def e2e_run(workload: str, seed: int, seconds: float) -> dict:
    setup_s = setup_seconds(workload)
    rounds = workloads.rounds(workload, seed, workloads.round_count(workload, seconds))
    if workload == "cli":
        ops, records = measure(rounds, cli_request, seconds)
        failures = check_cli_records(ops, records)
        peak_rss = max(rec["rss"] for rec in records)
    else:
        result = run_child_json(["inproc", workload, str(seconds), "e2e"], json.dumps(rounds))
        records = result["passes"][0]["ops"]
        ops = [op for rnd in rounds for op in rnd][: len(records)]
        failures = check_inproc(workload, ops, records, {})
        peak_rss = result["peak_rss_mb"]
    add_scales(records)
    latencies = [latency_ms(rec) for rec in records]
    count = len(latencies)
    level = tail_level(count)
    raw = sorted(rec["raw_ms"] for rec in records)
    metrics = {
        "p50_ms": statistics.median(latencies),
        "p90_ms": quantile(latencies, level),
        "ops_per_s": count / (sum(latencies) / 1e3),
        "peak_rss_mb": peak_rss,
        "setup_s": setup_s,
    }
    notes = {
        "p50_ms": f"median of {count} operations (raw wall {statistics.median(raw):.1f} ms)",
        "p90_ms": f"p{level * 100:.1f} of {count} operations (raw wall {quantile(raw, level):.1f} ms)",
        "ops_per_s": f"{count} operations / their summed latency (raw wall {count / sum(raw) * 1e3:.3f})",
        "peak_rss_mb": "largest resident set of the process(es) doing the work",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "fail_ratio": f"{len(failures)} failed of {count} attempted",
    }
    return {"attempted": count, "failures": failures, "metrics": metrics, "notes": notes}


# -- traced runs -----------------------------------------------------------------------


def traced_passes_cli(requests: list[dict], seconds: float) -> tuple[list[dict], list[str], list]:
    """Alternate untraced and traced passes over one round of CLI requests."""
    spans_file = WORK / "cli-spans.json"
    passes: list[dict] = []
    failures: list[str] = []
    rows: list = []
    start = time.perf_counter()
    for _ in range(workloads.trace_pairs("cli", seconds)):
        if passes and time.perf_counter() - start > MAX_SLOWDOWN * seconds:
            break
        for with_tracer in (False, True):
            records = [cli_request(req, spans_file if with_tracer else None) for req in requests]
            passes.append({"traced": with_tracer, "ops": records})
    reference = passes[0]["ops"]
    failures += check_cli_records(requests, reference)
    for p in passes[1:]:
        for req, ref, rec in zip(requests, reference, p["ops"]):
            if (rec["code"], rec["stdout"]) != (ref["code"], ref["stdout"]):
                kind = "traced" if p["traced"] else "repeated"
                failures.append(f"{' '.join(req['argv'])}: {kind} output differs from untraced bytes")
    for op_id, rec in enumerate(passes[1]["ops"]):
        rows += [row[:5] + [op_id] for row in rec.get("spans", [])]
    return passes, failures, rows


def probe_metrics() -> tuple[dict, list[str]]:
    values, failures = {}, []
    for name, _ in PROBES:
        samples = []
        for _ in range(PROBE_REPEATS):
            code, out, _, err = spawn(child_cmd("probe", name))
            if code != 0:
                failures.append(f"probe {name}: exit {code}: {err[-200:]}")
                break
            samples.append(float(out))
        values[name] = statistics.median(samples) if samples else 0.0
    return values, failures


def layer_metrics(workload: str, passes: list[dict]) -> dict:
    add_scales([op for p in passes for op in p["ops"]])
    traced = [p["ops"] for p in passes if p["traced"]]
    untraced = [p["ops"] for p in passes if not p["traced"]]
    first = traced[0]
    count = len(first)

    def calls(layer: str) -> float:
        return sum(op["layers"].get(layer, [0, 0])[0] for op in first) / count

    def self_ms(layer: str) -> float:
        return statistics.median(
            sum(op["layers"].get(layer, [0, 0])[1] * op["scale"] for op in ops) / count / 1e6
            for ops in traced
        )

    def p50(group: list[list[dict]]) -> float:
        return statistics.median(latency_ms(op) for ops in group for op in ops)

    hits = sum(op["cache"][0] for op in first)
    lookups = hits + sum(op["cache"][1] for op in first)
    metrics = {f"{layer}.calls": calls(layer) for layer in CALL_COUNTS}
    metrics.update({f"{layer}.self_ms": self_ms(layer) for layer in LAYERS})
    metrics.update(
        {
            "exactnum.bernoulli.max_index": max(0, max(op["bernoulli_max"] for op in first)),
            "hypersum.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "hypersum.cache.entries": sum(op["cache"][2] for op in first) / count,
            "verify.checks": (
                sum(op["out"]["checks"] for op in first) / count if workload == "verify" else 0
            ),
            "cli.import_ms": (
                statistics.median(op["import_ms"] * op["scale"] for ops in traced for op in ops)
                if workload == "cli"
                else 0.0
            ),
            "trace.overhead_ratio": p50(traced) / p50(untraced),
        }
    )
    return metrics


def self_time_violations(passes: list[dict]) -> list[str]:
    """Per-layer self times of an operation must fit inside its traced latency."""
    out = []
    for p in passes:
        for i, op in enumerate(p["ops"] if p["traced"] else []):
            total_ms = sum(cell[1] for cell in op["layers"].values()) / 1e6
            if total_ms > op["raw_ms"]:
                out.append(f"op {i}: self times {total_ms:.3f} ms exceed latency {op['raw_ms']:.3f} ms")
    return out


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    ops = workloads.rounds(workload, seed, 1)[0]
    trace_file = WORK / f"trace-{workload}-seed{seed}.json.gz"
    if workload == "cli":
        passes, failures, rows = traced_passes_cli(ops, seconds)
        write_spans(str(trace_file), rows)
    else:
        result = run_child_json(
            ["inproc", workload, str(seconds), "trace", str(trace_file)], json.dumps([ops])
        )
        passes = result["passes"]
        failures = []
        grids: dict = {}
        for p in passes:
            failures += check_inproc(workload, ops, p["ops"], grids)
    failures += self_time_violations(passes)
    metrics = layer_metrics(workload, passes)
    probes, probe_failures = probe_metrics()
    metrics.update(probes)
    failures += probe_failures
    attempted = sum(len(p["ops"]) for p in passes)
    notes = {
        name: f"{sum(p['traced'] for p in passes)} traced passes of {len(ops)} operations"
        for name, _ in PER_LAYER
    }
    notes.update({name: f"median of {PROBE_REPEATS} fresh interpreters" for name, _ in PROBES})
    notes["exactnum.bernoulli.max_index"] = "largest index asked of bernoulli in the traced round"
    notes["trace.overhead_ratio"] = "traced p50 / untraced p50 on the same operations"
    notes["spans"] = f"{trace_file.relative_to(ROOT)} ({', '.join(SPAN_FIELDS)})"
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "notes": notes}


# -- output ---------------------------------------------------------------------------


def report(workload: str, seed: int, trace: int, outcome: dict) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    failed = len(outcome["failures"])
    print(f"# workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}")
    for line in outcome["failures"][:20]:
        print(f"FAIL {line}")
    for name, value in outcome["metrics"].items():
        print(f"{name:<36} {value:>14.4f} {units[name]:<6} {outcome['notes'].get(name, '')}")
    if not trace:
        ratio = failed / outcome["attempted"]
        print(f"{'fail_ratio':<36} {ratio:>14.4f} {'ratio':<6} {outcome['notes']['fail_ratio']}")
    else:
        print(f"spans: {outcome['notes']['spans']}")
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in outcome["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypersums" / "cli.py").is_file():
        print(f"error: no hypersums sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = traced_run if args.trace else e2e_run
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: report(name, args.seed, args.trace, runner(name, args.seed, args.seconds)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
