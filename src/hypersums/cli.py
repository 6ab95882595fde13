"""Command-line front end.

Subcommands: eval, poly, det, verify, table.  Data goes to stdout,
diagnostics to stderr.  Values are always exact ("p/q", never decimals).
Values and polynomials come from :mod:`hypersums.newton`, whose weights are proved for
every reader by ``newton_weights``; ``eval``'s recursion or route and ``det``'s
determinant are checked against them.  So ``eval``, ``poly`` and ``table`` load that
module alone; ``det`` also loads :mod:`hypersums.hessenberg`, ``eval --method`` a route
or the recursion of :mod:`hypersums.hypersum`, and ``verify`` :mod:`hypersums.verify`.
Exit codes: 0 success; 1 only when ``verify`` finds a failure; 2 invalid arguments,
from argparse or a ``DomainError`` the library raises; 3 a failed internal check, a
``CrossCheckError``; 141 (128 + SIGPIPE) a stdout closed early.  :func:`main` alone turns
each into its exit code, 2 and 3 with one stderr line and nothing printed to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import newton  # the served path; the commands import hessenberg, hypersum, verify
from .exactnum import CrossCheckError, DomainError, memo, rational_to_json
from .polyring import RatPoly, poly_to_json, to_latex, to_n_frame, to_text

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3
EXIT_BROKEN_PIPE = 141

# largest n of eval --method bruteforce and of table, whose cells grow in digits with n.
# The recursion of eval --method bruteforce builds r + 1 rows of n + 1 integers of up to
# (m + r) d digits, for the d digits of n + r, so it also needs (r + 1)(n + 1)(m + r) d <=
# MAX_BRUTEFORCE_WORK.  README.md gives the time and memory of the largest admitted n
MAX_BRUTEFORCE_N = 10**6
MAX_BRUTEFORCE_WORK = 10**8
# largest m and r of eval, poly and det; README.md gives the cold times at the caps
MAX_M_R = 200
# largest table (max_m, max_r); README.md gives its cold times and peak RSS with MAX_M_R's
MAX_TABLE_M_R = 100
# largest verify grid (m_max, r_max, n_max); README.md gives its cold time with MAX_M_R's
MAX_VERIFY_GRID = (30, 15, 100)
# most digits of a printed int: sys.get_int_max_str_digits() refuses longer ones by default
MAX_DIGITS = 4300
# eval --method: the served Newton basis, the recursion, then hypersum.ROUTES by name, written
# out so that building the parser imports no route (tests/test_cli.py holds it to ROUTES)
METHODS = ("auto", "bruteforce", "q", "c", "chain", "lemma", "det")


def _print_json(payload: dict) -> None:
    """Print the bytes of ``json.dumps(payload)`` and a newline, one top-level value
    and one list item at a time, so that no more than one item's encoding is held."""
    import json  # only the JSON paths pay for it

    write = sys.stdout.write
    write("{")
    for i, (key, value) in enumerate(payload.items()):
        write(", " * (i > 0) + json.dumps(key) + ": ")
        if isinstance(value, list):
            write("[")
            for j, item in enumerate(value):
                write(", " * (j > 0) + json.dumps(item))
            write("]")
        else:
            write(json.dumps(value))
    write("}\n")


def _refuse_long_value(flag: str, m: int, r: int, n: int, factor_digits: int = 0) -> None:
    """Refuse unless S(m, r, n) <= (n + r)^(m + r), times a factor of ``factor_digits``
    digits, surely prints: (m + r) d + 1 + factor_digits <= MAX_DIGITS for the d digits
    of n + r, that is n + r < 10^d_max."""
    d_max = (MAX_DIGITS - 1 - factor_digits) // max(m + r, 1)
    if n + r >= 10**d_max:
        raise DomainError(
            f"{flag} is too large for m={m}, r={r}: the value could pass {MAX_DIGITS} "
            f"digits, the most that can be printed; need n + r < 10^{d_max}"
        )


def cmd_eval(args: argparse.Namespace) -> int:
    m, r, n, method = args.m, args.r, args.n, args.method
    _refuse_long_value("--n", m, r, n)
    if method == "bruteforce":
        if n > MAX_BRUTEFORCE_N:
            raise DomainError(f"the brute-force recursion needs n <= {MAX_BRUTEFORCE_N}, got {n}")
        work = (r + 1) * (n + 1) * (m + r) * len(str(n + r))
        if work > MAX_BRUTEFORCE_WORK:
            raise DomainError(
                f"the brute-force recursion needs (r + 1)(n + 1)(m + r) d <= {MAX_BRUTEFORCE_WORK} "
                f"for the d digits of n + r, got {work} at m={m}, r={r}, n={n}"
            )
    value = newton.hyper_sum_newton(m, r, n)  # the proved Newton basis serves
    if method != "auto":  # the recursion or a route by name loads only here, to be checked
        from . import hypersum
        if method == "bruteforce":
            name, check = "the recursion", hypersum.hyper_sum_bruteforce(m, r, n)
        else:
            name, check = f"polynomial route {method}", hypersum.ROUTES[method](m, r).poly.eval(n)
        if check != value:
            raise CrossCheckError(
                f"{name} disagrees with the Newton-basis integer {value} at (m={m}, r={r}, n={n})"
            )
    if args.format == "json":
        _print_json({"m": m, "r": r, "n": n, "method": method, "value": rational_to_json(value)})
    else:
        print(value)
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    m, r = args.m, args.r
    if args.factored and args.var != "N":
        raise DomainError("--factored requires --var N")
    s1_text = f"binomial(n+{r}, {r + 1})"  # S(1, r, n)
    if args.var == "u":
        p, prefactor = newton.faulhaber_u_form(m, r)
        fields: dict = {"m": m, "r": r, "prefactor": prefactor}
    else:
        fields = {"m": m, "r": r, "method": "newton"}
        if args.var == "N":
            p = newton.parity_checked_factor(m, r)
            if args.factored:  # 1/D times the integer bracket
                scale, bracket = Fraction(1, p.denominator), p.scale(p.denominator)
        elif m == 0:  # S(0, r, n) = C(n+r-1, r), and 1 at r = 0
            p = newton.s1_poly(r - 1) if r else RatPoly((1,))
        else:
            p = newton.expand_factor(newton.parity_checked_factor(m, r))

    if args.format == "json":
        payload = {**fields, "poly": poly_to_json(p)}
        if args.factored:
            payload["factored"] = {
                "scale": rational_to_json(scale),
                "prefactor": s1_text,
                "bracket": poly_to_json(bracket),
            }
        _print_json(payload)
    elif args.factored and args.format == "latex":
        print(
            f"{to_latex(RatPoly((scale,)))} \\binom{{n+{r}}}{{{r + 1}}} "
            f"\\left[{to_latex(bracket)}\\right]"
        )
    elif args.factored:
        print(f"({scale}) * {s1_text} * [{to_text(bracket)}]")
    elif args.format == "latex":
        print(to_latex(p))
    elif args.var == "u":
        pre = s1_text if prefactor == "s1" else f"(2n+{r})/{r + 2} * {s1_text}"
        print(f"{pre} * F(u) with F(u) = {to_text(p)}, u = n*(n+{r})")
    else:
        print(to_text(p))
    return EXIT_OK


def cmd_det(args: argparse.Namespace) -> int:
    from . import hessenberg

    m, r = args.m, args.r
    if args.at is not None:
        # for n >= 1 the value is (-1)^(m-1) (r+2)...(r+m) S(m, r, n) / C(n+r, r+1)
        _refuse_long_value("--at", m, r, args.at, (m - 1) * len(str(m + r)))
    matrix = hessenberg.build_matrix(m, r)
    determinant = hessenberg.det(matrix)
    if newton.det_to_factor(determinant, m) != newton.newton_factor(m, r):
        raise CrossCheckError(f"the determinant differs from the Newton factor at (m={m}, r={r})")
    if r == 0:
        # the centered variable coincides with n; display it that way
        entries = hessenberg.map_entries(matrix, to_n_frame)
        matrix = hessenberg.HessenbergMatrix(m, r, tuple(map(tuple, entries)))
        determinant = to_n_frame(determinant)
    center = None if args.at is None else Fraction(args.at) + Fraction(r, 2)
    if args.format == "json":
        payload = hessenberg.matrix_to_json(matrix)
        payload["det"] = poly_to_json(determinant)
        if center is not None:
            payload["at"] = args.at
            payload["value"] = rational_to_json(determinant.eval(center))
        _print_json(payload)
        return EXIT_OK
    print(f"matrix of order {matrix.order} (m={m}, r={r}):")
    print(hessenberg.matrix_to_text(matrix))
    print(f"det = {to_text(determinant)}")
    if center is not None:
        print(f"at n = {args.at} (N = {center}):")
        if matrix.order:
            print(hessenberg.matrix_to_text(matrix, center))
        print(f"det value = {determinant.eval(center)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    given = (args.max_m, args.max_r, args.max_n)
    report = verify.run_all(*(d if g is None else g for g, d in zip(given, verify.DEFAULT_GRID)))
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(report.summary_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_table(args: argparse.Namespace) -> int:
    n = args.n
    cells = [
        (m, r, newton.hyper_sum_newton(m, r, n))
        for m in range(0, args.max_m + 1)
        for r in range(0, args.max_r + 1)
    ]
    if args.format == "csv":
        print("m,r,value")
        for m, r, v in cells:
            print(f"{m},{r},{v}")
    elif args.format == "json":
        _print_json({"n": n, "cells": [{"m": m, "r": r, "value": str(v)} for m, r, v in cells]})
    else:
        texts = [str(v) for _, _, v in cells]
        width = max(map(len, texts))
        cols = args.max_r + 1
        print(f"S(m, r, {n}) for m <= {args.max_m}, r <= {args.max_r}")
        header = "m\\r " + " ".join(str(r).rjust(width) for r in range(cols))
        print(header)
        for m in range(0, args.max_m + 1):
            row = texts[m * cols : (m + 1) * cols]
            print(f"{m:<4}" + " ".join(t.rjust(width) for t in row))
    return EXIT_OK


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo and, if hi is given, <= hi."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {value}")
        return value

    return integer


@memo  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersums",
        description="Exact iterated power sums S(m, r, n): values, polynomials, "
        "determinants, and cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate S(m, r, n) exactly")
    p_eval.add_argument("--m", type=_int_in(0, MAX_M_R), required=True)
    p_eval.add_argument("--r", type=_int_in(0, MAX_M_R), required=True)
    p_eval.add_argument("--n", type=_int_in(0), required=True)
    p_eval.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
    )
    p_eval.add_argument("--format", choices=["text", "json"], default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_poly = sub.add_parser("poly", help="print the hyper-sum polynomial")
    p_poly.add_argument("--m", type=_int_in(0, MAX_M_R), required=True)
    p_poly.add_argument("--r", type=_int_in(0, MAX_M_R), required=True)
    p_poly.add_argument("--var", choices=["n", "N", "u"], default="n")
    p_poly.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p_poly.add_argument(
        "--factored",
        action="store_true",
        help="with --var N: print the binomial prefactor times an integer bracket",
    )
    p_poly.set_defaults(func=cmd_poly)

    p_det = sub.add_parser("det", help="print the Hessenberg matrix and determinant")
    p_det.add_argument("--m", type=_int_in(1, MAX_M_R), required=True)
    p_det.add_argument("--r", type=_int_in(0, MAX_M_R), required=True)
    p_det.add_argument("--at", type=_int_in(0), default=None, help="substitute a concrete n")
    p_det.add_argument("--format", choices=["text", "json"], default="text")
    p_det.set_defaults(func=cmd_det)

    p_verify = sub.add_parser("verify", help="run the cross-method verification suite")
    # the grid left out defaults to verify.DEFAULT_GRID, filled in by cmd_verify
    for flag, cap in zip(("--max-m", "--max-r", "--max-n"), MAX_VERIFY_GRID):
        p_verify.add_argument(flag, type=_int_in(1, cap))
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate S(m, r, n) over a grid")
    p_table.add_argument("--max-m", type=_int_in(0, MAX_TABLE_M_R), default=5)
    p_table.add_argument("--max-r", type=_int_in(0, MAX_TABLE_M_R), default=4)
    p_table.add_argument("--n", type=_int_in(0, MAX_BRUTEFORCE_N), required=True)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:  # --help prints and exits here; its text must not wait for the exit flush
            sys.stdout.flush()
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
        return code
    except DomainError as exc:  # refused like an argparse error: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except BrokenPipeError:  # no traceback; fd 1 to devnull, so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
