"""Cross-check every polynomial the package builds at the corners of the CLI's caps.

At (m, r) = (200, 200), (200, 1), (1, 200) and (120, 100) it builds the five routes of
``hypersum.ROUTES``, the determinant factor that ``det`` prints (the determinant of
``build_matrix``, normalised by ``newton.det_to_factor``) expanded in n, and the Newton
polynomial that ``poly`` serves.  Each must equal the Newton polynomial and evaluate to
``hyper_sum_newton``, the value ``eval`` serves, at n = 10^12 + 39.  The tests build all
five routes together only up to (120, 100), since q, c and chain take seconds each at
(200, 200).

Prints each build that disagrees and the wall time, and exits 1 if any build disagrees.
Run from the repository root:

    PYTHONPATH=src python tools/caps_check.py
"""

from __future__ import annotations

import sys
import time

from hypersums import hessenberg, hypersum, newton

CORNERS = ((200, 200), (200, 1), (1, 200), (120, 100))
N = 10**12 + 39

BUILDS = {
    **{name: lambda m, r, route=route: route(m, r).poly for name, route in hypersum.ROUTES.items()},
    "det factor": lambda m, r: newton.expand_factor(
        newton.det_to_factor(hessenberg.det(hessenberg.build_matrix(m, r)), m)
    ),
}


def main() -> int:
    start = time.perf_counter()
    failed = []
    for m, r in CORNERS:
        ref = newton.expand_factor(newton.newton_factor(m, r))
        if ref.eval(N) != newton.hyper_sum_newton(m, r, N):  # so each build equal to ref too
            failed.append(f"the Newton polynomial and value disagree at (m={m}, r={r})")
        for name, build in BUILDS.items():
            if build(m, r) != ref:
                failed.append(f"{name} disagrees with the Newton polynomial at (m={m}, r={r})")
    for line in failed:
        print(line)
    seconds = time.perf_counter() - start
    print(f"caps cross-check at {CORNERS}: {len(failed)} failed in {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
