"""Command-line front end.

Subcommands: eval, poly, det, verify, table.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid arguments, 3 internal cross-check mismatch.  Values are always
exact ("p/q", never decimals).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hessenberg, hypersum, verify
from .exactnum import rational_to_json
from .polyring import (
    RatPoly,
    poly_to_json,
    to_latex,
    to_text,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3

# largest n for the brute-force recursion, whose lists grow linearly in n
MAX_BRUTEFORCE_N = 10**6
# largest m and r of eval, poly and det; cold at (200, 200) on a 2-CPU Xeon VM,
# eval takes about 5 s (auto) and up to 26 s (--method c), poly and det 1-1.5 s
MAX_M_R = 200
# largest verify grid (m_max, r_max, n_max): run_all(30, 15, 100) takes about 10 s there
MAX_VERIFY_GRID = (30, 15, 100)


def _fail_usage(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _check_bruteforce_n(n: int) -> None:
    if n > MAX_BRUTEFORCE_N:
        raise _fail_usage(f"the brute-force recursion needs n <= {MAX_BRUTEFORCE_N}, got {n}")


def cmd_eval(args: argparse.Namespace) -> int:
    m, r, n = args.m, args.r, args.n
    method = args.method
    if method == "bruteforce":
        _check_bruteforce_n(n)
        value = Fraction(hypersum.hyper_sum_bruteforce(m, r, n))
    elif method == "auto":
        value = hypersum.hyper_sum_poly(m, r).eval(n)
        if n <= 20 and value != hypersum.hyper_sum_bruteforce(m, r, n):
            print(
                f"internal error: polynomial route disagrees with the defining "
                f"recursion at (m={m}, r={r}, n={n})",
                file=sys.stderr,
            )
            return EXIT_CROSSCHECK
    else:
        m_min, r_min = hypersum.ROUTE_DOMAIN[method]
        if m < m_min or r < r_min:
            raise _fail_usage(f"--method {method} requires m >= {m_min} and r >= {r_min}")
        value = hypersum.ROUTES[method](m, r).poly.eval(n)
    if args.format == "json":
        print(
            json.dumps(
                {"m": m, "r": r, "n": n, "method": method, "value": rational_to_json(value)}
            )
        )
    else:
        print(value)
    return EXIT_OK


def _factored_parts(m: int, r: int) -> tuple[Fraction, RatPoly]:
    """Split the centered factor into 1/D times an integer-coefficient bracket."""
    g = hypersum.faulhaber_det(m, r).poly
    return Fraction(1, g.denominator), g.scale(g.denominator)


def cmd_poly(args: argparse.Namespace) -> int:
    m, r = args.m, args.r
    if args.var == "n":
        if r == 0 or m == 0:
            p = hypersum.hyper_sum_poly(m, r)
            method = "monomial" if r == 0 else "q-form"
        else:
            result = hypersum.hyper_sum_det(m, r)
            p, method = result.poly, result.method
        payload: dict = {"m": m, "r": r, "method": method, "poly": poly_to_json(p)}
    elif args.var == "N":
        if m < 1:
            raise _fail_usage("--var N requires m >= 1")
        p = hypersum.faulhaber_det(m, r).poly
        payload = {"m": m, "r": r, "method": "determinant", "poly": poly_to_json(p)}
        if args.factored:
            scale, bracket = _factored_parts(m, r)
            payload["factored"] = {
                "scale": rational_to_json(scale),
                "prefactor": f"binomial(n+{r}, {r + 1})",
                "bracket": poly_to_json(bracket),
            }
    else:  # u
        if m < 1 or r < 1:
            raise _fail_usage("--var u requires m >= 1 and r >= 1")
        p, prefactor = hypersum.faulhaber_u_form(m, r)
        payload = {"m": m, "r": r, "prefactor": prefactor, "poly": poly_to_json(p)}

    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "latex":
        print(to_latex(p))
    else:
        if args.var == "N" and args.factored:
            scale, bracket = _factored_parts(m, r)
            print(f"({scale}) * binomial(n+{r}, {r + 1}) * [{to_text(bracket)}]")
        elif args.var == "u":
            pre = (
                f"binomial(n+{r}, {r + 1})"
                if prefactor == "s1"
                else f"(2n+{r})/{r + 2} * binomial(n+{r}, {r + 1})"
            )
            print(f"{pre} * F(u) with F(u) = {to_text(p)}, u = n*(n+{r})")
        else:
            print(to_text(p))
    return EXIT_OK


def cmd_det(args: argparse.Namespace) -> int:
    m, r = args.m, args.r
    matrix = hessenberg.build_matrix(m, r)
    determinant = hessenberg.det(matrix)
    if r == 0:
        # the centered variable coincides with n; display it that way
        matrix = hessenberg.HessenbergMatrix(
            m, r, tuple(tuple(RatPoly(e.coeffs) for e in row) for row in matrix.entries)
        )
        determinant = RatPoly(determinant.coeffs)
    if args.format == "json":
        payload = hessenberg.matrix_to_json(matrix)
        payload["det"] = poly_to_json(determinant)
        if args.at is not None:
            center = Fraction(args.at) + Fraction(r, 2)
            payload["at"] = args.at
            payload["value"] = rational_to_json(determinant.eval(center))
        print(json.dumps(payload))
        return EXIT_OK
    print(f"matrix of order {matrix.order} (m={m}, r={r}):")
    print(hessenberg.matrix_to_text(matrix))
    print(f"det = {to_text(determinant)}")
    if args.at is not None:
        center = Fraction(args.at) + Fraction(r, 2)
        cells = [[str(v) for v in row] for row in hessenberg.evaluate_matrix(matrix, center)]
        print(f"at n = {args.at} (N = {center}):")
        if cells:
            widths = [max(len(row[j]) for row in cells) for j in range(len(cells))]
            for row in cells:
                print("( " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " )")
        print(f"det value = {determinant.eval(center)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_all(args.max_m, args.max_r, args.max_n)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.summary_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_table(args: argparse.Namespace) -> int:
    n = args.n
    _check_bruteforce_n(n)
    cells = [
        (m, r, hypersum.hyper_sum_bruteforce(m, r, n))
        for m in range(0, args.max_m + 1)
        for r in range(0, args.max_r + 1)
    ]
    if args.format == "csv":
        print("m,r,value")
        for m, r, v in cells:
            print(f"{m},{r},{v}")
    elif args.format == "json":
        print(
            json.dumps(
                {"n": n, "cells": [{"m": m, "r": r, "value": str(v)} for m, r, v in cells]}
            )
        )
    else:
        width = max(len(str(v)) for _, _, v in cells)
        print(f"S(m, r, {n}) for m <= {args.max_m}, r <= {args.max_r}")
        header = "m\\r " + " ".join(str(r).rjust(width) for r in range(args.max_r + 1))
        print(header)
        for m in range(0, args.max_m + 1):
            row = [v for mm, _, v in cells if mm == m]
            print(f"{m:<4}" + " ".join(str(v).rjust(width) for v in row))
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
        choices=("auto", "bruteforce", *hypersum.ROUTES),
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
    for flag, default, cap in zip(
        ("--max-m", "--max-r", "--max-n"), verify.DEFAULT_GRID, MAX_VERIFY_GRID
    ):
        p_verify.add_argument(flag, type=_int_in(1, cap), default=default)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate S(m, r, n) over a grid")
    p_table.add_argument("--max-m", type=_int_in(0), default=5)
    p_table.add_argument("--max-r", type=_int_in(0), default=4)
    p_table.add_argument("--n", type=_int_in(0), required=True)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
