"""Work that must run in a fresh interpreter, one invocation per job.

    child.py setup WORKLOAD          import hypersums plus the workload's warm-up
    child.py inproc WORKLOAD SECONDS MODE [SPANS_FILE]
                                     run the rounds read as JSON from stdin and
                                     print the records as JSON (MODE e2e or trace)
    child.py cli-traced SPANS_FILE ARG...
                                     one traced ``hypersums.cli.main(ARGS)`` call
    child.py probe NAME              one cold layer probe; prints its time

The checkout's ``src`` directory is put first on ``sys.path``, so the
benchmark always measures the sources next to it.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

# tables large enough for every (m, r) the routes workload and the probes use
WARM_BERNOULLI = 92
WARM_STIRLING = 32
# seconds of untimed operations before an in-process run measures
WARM_S = 1.0
# a run cuts its fixed work short past this multiple of --seconds
MAX_SLOWDOWN = 2.0

ROUTE_ATTRS = {
    "q": "hyper_sum_poly_q",
    "c": "hyper_sum_poly_c",
    "chain": "hyper_sum_poly_chain",
    "det": "hyper_sum_det",
}


def warm_up(workload: str) -> None:
    if workload == "cli":
        import hypersums.cli  # noqa: F401
    elif workload == "routes":
        from hypersums import exactnum, hypersum  # noqa: F401

        exactnum.bernoulli(WARM_BERNOULLI)
        exactnum.stirling1_row(WARM_STIRLING)
    else:
        import hypersums.verify  # noqa: F401


def measure(rounds: list[list[dict]], run_op, seconds: float) -> tuple[list[dict], list[dict]]:
    """Run the rounds: (operations, records).  Stops after a round only when the
    machine is so slow that the run has taken MAX_SLOWDOWN times ``seconds``."""
    ops: list[dict] = []
    records: list[dict] = []
    start = time.perf_counter()
    for rnd in rounds:
        for op in rnd:
            records.append(run_op(op))
            ops.append(op)
        if time.perf_counter() - start > MAX_SLOWDOWN * seconds:
            break
    return ops, records


def build_route(route: str, m: int, r: int):
    """S(m, r) as a polynomial from one route; looked up at call time so traced
    wrappers are used while they are installed."""
    from hypersums import hypersum

    if route == "lemma":
        return hypersum.lemma_recurrence_family(m, r)[m - 1].poly
    return getattr(hypersum, ROUTE_ATTRS[route])(m, r).poly


def run_inproc(workload: str, seconds: float, mode: str, spans_file: str | None) -> dict:
    import json
    import resource

    from hypersums import exactnum, verify
    from refclock import timed
    from tracer import Tracer, cache_totals, write_spans

    warm_up(workload)
    rounds = json.load(sys.stdin)

    def work(op: dict, tracer: Tracer | None, op_id: int):
        if tracer:
            tracer.begin_op(op_id)
        if workload == "routes":
            p = build_route(op["route"], op["m"], op["r"])
            res = p, p.eval(op["points"][-1])
        else:
            res = verify.run_all(op["m_max"], op["r_max"], op["n_max"]), None
        return res, tracer.end_op() if tracer else {}

    def outcome(op: dict, res) -> object:
        """What the harness checks; the extra evaluations are not timed."""
        if workload == "routes":
            p, big = res
            return [str(p.eval(n)) for n in op["points"][:-1]] + [str(big)]
        return {"passed": res[0].passed, "checks": len(res[0].checks)}

    def one(op: dict, tracer: Tracer | None = None, op_id: int = 0) -> dict:
        exactnum.clear_derived_caches()
        (res, record), raw_ms, ref = timed(work, op, tracer, op_id)
        record.update(raw_ms=raw_ms, ref=ref, out=outcome(op, res))
        if tracer:
            record["cache"] = cache_totals()
        return record

    # untimed operations first: the first pass through fresh heap pages and
    # unspecialised bytecode is markedly slower than every later one
    start = time.perf_counter()
    for op in rounds[0]:
        one(op)
        if time.perf_counter() - start >= WARM_S:
            break
    result: dict = {}
    if mode == "e2e":
        _, records = measure(rounds, one, seconds)
        result["passes"] = [{"traced": False, "ops": records}]
    else:
        # alternate untraced and traced passes over the first round; spans of
        # the first traced pass are kept
        from workloads import trace_pairs

        tracer = Tracer()
        passes: list[dict] = []
        start = time.perf_counter()
        for _ in range(trace_pairs(workload, seconds)):
            if passes and time.perf_counter() - start > MAX_SLOWDOWN * seconds:
                break
            passes.append({"traced": False, "ops": [one(op) for op in rounds[0]]})
            tracer.install()
            tracer.keep_spans = len(passes) == 1
            try:
                ops = [one(op, tracer, i) for i, op in enumerate(rounds[0])]
            finally:
                tracer.uninstall()
            passes.append({"traced": True, "ops": ops})
        result["passes"] = passes
        if spans_file:
            write_spans(spans_file, tracer.spans_as_rows())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def cli_traced(spans_file: str, argv: list[str]) -> int:
    """Install the tracer in this interpreter and run one CLI request."""
    import json

    t0 = time.perf_counter()
    import hypersums.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from tracer import Tracer, cache_totals

    tracer = Tracer().install()
    tracer.keep_spans = True
    tracer.begin_op(0)
    try:
        return hypersums.cli.main(argv)
    finally:
        record = tracer.end_op()
        sys.stdout.flush()
        record.update(cache=cache_totals(), import_ms=import_ms, spans=tracer.spans_as_rows())
        with open(spans_file, "w") as fh:
            json.dump(record, fh)


def probe(name: str) -> float:
    """Run one probe named ``<layer>.<metric>.<size>``; returns normalised ms (us for eval)."""
    from fractions import Fraction

    from hypersums import exactnum, hessenberg, hypersum
    from refclock import REFERENCE_MS, reference_ms

    size = int("".join(ch for ch in name.rsplit(".", 1)[1] if ch.isdigit()))
    if name.startswith("exactnum.bernoulli_cold_ms."):
        fn, args = exactnum.bernoulli, (size,)
    elif name.startswith("polyring."):
        p = hypersum.s1_poly(size - 1)  # C(n+size-1, size): degree `size`, dense
        if ".mul_ms." in name:
            fn, args = p.__mul__, (p,)
        elif ".shift_ms." in name:
            fn, args = p.shift, (Fraction(-31, 2),)
        else:
            fn, args = p.eval, (10**12 + 39,)
    elif name.startswith("hessenberg.det_ms."):
        fn, args = hessenberg.det, (hessenberg.build_matrix(size + 1, size // 2),)
    else:  # hypersum.route_ms.<route>.m60r30, tables warm, polynomial caches cold
        warm_up("routes")
        fn, args = build_route, (name.split(".")[2], 60, 30)
    refs = [reference_ms() for _ in range(5)]
    t0 = time.perf_counter()
    fn(*args)
    raw_ms = (time.perf_counter() - t0) * 1e3
    refs += [reference_ms() for _ in range(5)]
    ms = raw_ms * REFERENCE_MS / sorted(refs)[len(refs) // 2]
    return ms * 1e3 if ".eval_us." in name else ms


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "setup":
        warm_up(argv[1])
        return 0
    if cmd == "inproc":
        import json

        spans_file = argv[4] if len(argv) > 4 else None
        json.dump(run_inproc(argv[1], float(argv[2]), argv[3], spans_file), sys.stdout)
        return 0
    if cmd == "cli-traced":
        return cli_traced(argv[1], argv[2:])
    if cmd == "probe":
        print(repr(probe(argv[1])))
        return 0
    print(f"unknown command {cmd!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
