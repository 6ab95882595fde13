"""Time the CLI at its caps, one fresh process per run, as a Markdown table.

Each request of ROADMAP.md's "CLI wall times" table, and ``verify`` at the
benchmark's median grid (11, 6, 16), runs as
``python -m hypersums.cli`` on this checkout's ``src/``, with
``PYTHONDONTWRITEBYTECODE=1`` so that every run compiles the package afresh, and
its best wall time of 3 runs is printed beside that of ``python -c pass``, the
interpreter's own start, and as a multiple of it.  Timings only report: there is
no bound.  Exits 1 if a request exits nonzero.  Run from the repository root:

    python tools/cap_times.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3
CAP = "eval --m 200 --r 200 --n 7"
REQUESTS = (
    "eval --m 4 --r 1 --n 30",
    CAP,
    *(f"{CAP} --method {method}" for method in ("q", "det", "lemma", "chain", "c")),
    "poly --m 200 --r 1",
    "poly --m 200 --r 200",
    "poly --m 200 --r 200 --var u",
    "det --m 200 --r 200 --at 3",
    "det --m 200 --r 1",
    "verify",
    "verify --max-m 11 --max-r 6 --max-n 16",
    "verify --max-m 30 --max-r 15 --max-n 100",
    "table --max-m 100 --max-r 100 --n 1000000",
    "table --max-m 100 --max-r 100 --n 1000000 --format json",
)


def best_time(argv: list[str], env: dict[str, str]) -> tuple[float, int]:
    """(the best wall time of RUNS fresh processes in seconds, the last exit code)."""
    best, code = float("inf"), 0
    for _ in range(RUNS):
        start = time.perf_counter()
        code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
        best = min(best, time.perf_counter() - start)
    return best, code


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start_up, _ = best_time([sys.executable, "-c", "pass"], env)
    print(f"best of {RUNS} fresh processes, Python {sys.version.split()[0]}\n")
    print("| request | s | x `python -c pass` |")
    print("|---|---|---|")
    print(f"| `python -c pass` | {start_up:.3f} | 1.0 |")
    failed = 0
    for request in REQUESTS:
        seconds, code = best_time([sys.executable, "-m", "hypersums.cli", *request.split()], env)
        note = f" (exit {code})" if code else ""
        failed += bool(code)
        print(f"| `{request}`{note} | {seconds:.3f} | {seconds / start_up:.1f} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
