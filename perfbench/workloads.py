"""Seeded inputs for the three workloads.

Every workload is a sequence of rounds.  A round is a stratified sample: its
sizes cover the whole parameter range in fixed strata, and the seed picks
the points inside the strata (as offsets that sum to zero within a round
where one stratum's cost dominates), the order and the evaluation points.
Rounds therefore cost about the same from seed to seed, so medians compare
across seeds, while each seed still sends different arguments.  A run of
``--seconds`` measures the fixed number of whole rounds that takes that long
at reference speed, so every run of one workload and seed does the same
work however fast the machine is at the time.
"""

from __future__ import annotations

import random

LARGE_N = 10**12
ROUTES = ("q", "c", "chain", "lemma", "det")

# length of one round in reference-speed seconds (see refclock.py), measured
NOMINAL_ROUND_S = {"cli": 3.3, "routes": 3.8, "verify": 6.2}

# one CLI round: (kind, format, options); 20 requests
CLI_TEMPLATE = [
    ("eval", "text", {"small_n": True}),
    ("eval", "json", {"small_n": True}),
    ("eval", "text", {"small_n": True}),
    ("eval", "text", {}),
    ("eval", "json", {}),
    ("eval", "text", {}),
    ("eval", "text", {"method": "q"}),
    ("eval", "text", {"method": "c"}),
    ("eval", "json", {"method": "lemma"}),
    ("poly-n", "text", {}),
    ("poly-n", "json", {}),
    ("poly-n", "latex", {}),
    ("poly-N", "text", {}),
    ("poly-N", "text", {"factored": True}),
    ("poly-N", "json", {"factored": True}),
    ("poly-u", "text", {}),
    ("poly-u", "json", {}),
    ("poly-u", "latex", {}),
    ("det", "text", {}),
    ("det", "json", {}),
]


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _points(rng: random.Random) -> list[int]:
    """Three distinct evaluation points: two small, one large."""
    small = rng.sample(range(0, 40), 2)
    return small + [rng.randrange(LARGE_N // 10, LARGE_N)]


def _rotated_strata(rng: random.Random, lo: int, hi: int, step: int, shift: int) -> list[int]:
    """One value per equal-width stratum of [lo, hi]; slot k of a round gets
    stratum ``(step * k + shift) % count``.  The slot-to-stratum map is fixed
    (it does not depend on the seed), so the costly request kinds meet the
    same sizes for every seed; the seed picks the point inside each stratum."""
    count = len(CLI_TEMPLATE)
    width = (hi - lo + 1) / count
    return [lo + int(((step * k + shift) % count + rng.random()) * width) for k in range(count)]


def cli_round(seed: int, round_no: int) -> list[dict]:
    rng = _rng("cli", seed, round_no)
    ms = _rotated_strata(rng, 1, 60, 7, 3 * round_no)
    rs = _rotated_strata(rng, 0, 30, 11, 7 * round_no)
    requests = []
    for (kind, fmt, opts), m, r in zip(CLI_TEMPLATE, ms, rs):
        req = {"kind": kind, "format": fmt, "m": m, "r": r, "factored": bool(opts.get("factored"))}
        method = opts.get("method", "auto")
        if method in ("q", "c") or kind == "poly-u":
            req["r"] = max(r, 1)
        if kind == "eval":
            req["n"] = rng.randrange(0, 21) if opts.get("small_n") else rng.randrange(21, LARGE_N)
            argv = ["eval", "--method", method]
        elif kind == "det":
            req["n"] = rng.randrange(0, LARGE_N)
            argv = ["det", "--at", str(req["n"])]
        else:
            req["points"] = _points(rng)
            argv = ["poly", "--var", kind[-1]] + (["--factored"] if req["factored"] else [])
        argv += ["--m", str(req["m"]), "--r", str(req["r"])]
        if kind == "eval":
            argv += ["--n", str(req["n"])]
        req["argv"] = argv + ["--format", fmt]
        requests.append(req)
    return requests


def _zero_sum(rng: random.Random, values: list[int]) -> list[int]:
    """A seeded order of offsets that sum to zero, so a round's mean size is fixed."""
    values = list(values)
    rng.shuffle(values)
    return values


def routes_round(seed: int, round_no: int) -> list[dict]:
    """Five routes x five size strata, m in 9..59 and r near m/2 as in the (60, 30) probe."""
    rng = _rng("routes", seed, round_no)
    ops = []
    for route in ROUTES:
        m_offsets = _zero_sum(rng, [-1, 0, 0, 0, 1])
        r_offsets = _zero_sum(rng, [-1, 0, 0, 0, 1])
        for center, dm, dr in zip((10, 22, 34, 46, 58), m_offsets, r_offsets):
            m = center + dm
            r = min(30, m // 2 + dr)
            ops.append({"route": route, "m": m, "r": r, "points": _points(rng)})
    rng.shuffle(ops)
    return ops


def verify_round(seed: int, round_no: int) -> list[dict]:
    """One grid per m_max in 8..14 with r_max = 4..8 growing with m_max; the seed
    picks n_max and the order.  r_max is not seeded: one step of r_max changes
    the cost of a run by a third, and a round holds only seven runs."""
    rng = _rng("verify", seed, round_no)
    ops = [
        {"m_max": m_max, "r_max": r_max, "n_max": rng.randint(12, 20)}
        for m_max, r_max in zip(range(8, 15), (4, 5, 5, 6, 7, 7, 8))
    ]
    rng.shuffle(ops)
    return ops


ROUND_MAKERS = {"cli": cli_round, "routes": routes_round, "verify": verify_round}


def rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    return [ROUND_MAKERS[workload](seed, i) for i in range(count)]


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def trace_pairs(workload: str, seconds: float) -> int:
    """Untraced-and-traced passes over one round in a traced run of ``seconds``."""
    return max(1, round_count(workload, seconds) // 3)
