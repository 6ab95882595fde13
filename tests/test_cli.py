"""CLI contract: output formats, schemas, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hypersums import cli, exactnum, hessenberg, hypersum, newton
from hypersums.cli import (
    MAX_BRUTEFORCE_N,
    MAX_BRUTEFORCE_WORK,
    MAX_TABLE_M_R,
    build_parser,
    main,
)
from hypersums.exactnum import DomainError, rising_factorial, sign_pow
from hypersums.hessenberg import build_matrix, leading_minor
from hypersums.hypersum import hyper_sum_bruteforce, hyper_sum_poly
from hypersums.newton import hyper_sum_newton
from hypersums.polyring import RatPoly, poly_to_json
from conftest import check_poly_blob, run_main


def run_cli_full(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one request."""
    return run_main(argv)


def run_cli(*argv: str) -> tuple[int, str]:
    return run_main(argv)[:2]


# -- eval ---------------------------------------------------------------------


def test_eval_examples():
    assert run_cli("eval", "--m", "3", "--r", "1", "--n", "3") == (0, "36\n")
    assert run_cli("eval", "--m", "5", "--r", "0", "--n", "2") == (0, "32\n")
    assert run_cli("eval", "--m", "2", "--r", "2", "--n", "3") == (0, "20\n")


def test_the_method_choices_are_auto_bruteforce_and_every_route():
    # the parser writes the names out, so that building it imports no route; a route added
    # to ROUTES and not to METHODS fails here
    assert cli.METHODS == ("auto", "bruteforce", *hypersum.ROUTES)
    parser = build_parser()
    for method in cli.METHODS:
        args = parser.parse_args(["eval", "--m", "1", "--r", "1", "--n", "1", "--method", method])
        assert args.method == method


def test_eval_at_the_cap_prints_the_same_bytes_by_auto_lemma_and_det():
    # auto serves the Newton sum and builds no polynomial; lemma and det build S(200, 200)
    outs = {
        method: run_cli("eval", "--m", "200", "--r", "200", "--n", "7", "--method", method)
        for method in ("auto", "lemma", "det")
    }
    assert outs["auto"][0] == 0 and outs["auto"][1].strip()
    assert outs["auto"] == outs["lemma"] == outs["det"]


def test_eval_lemma_accepts_r0():
    code, out = run_cli("eval", "--m", "4", "--r", "0", "--n", "3", "--method", "lemma")
    assert code == 0 and out.strip() == "81"


def test_eval_invalid_arguments_exit_2():
    code, _ = run_cli("eval", "--m", "-1", "--r", "0", "--n", "1")
    assert code == 2
    code, _ = run_cli("eval", "--m", "2", "--r", "0", "--n", "1", "--method", "q")
    assert code == 2
    code, _ = run_cli("eval", "--m", "0", "--r", "1", "--n", "1", "--method", "det")
    assert code == 2
    code, out = run_cli("eval", "--m", "2", "--r", "0", "--n", "1", "--method", "chain")
    assert code == 2 and out == ""
    code, out = run_cli("eval", "--m", "0", "--r", "1", "--n", "1", "--method", "lemma")
    assert code == 2 and out == ""


@pytest.mark.parametrize("method", hypersum.ROUTES)
def test_eval_refuses_exactly_where_the_route_does(method):
    # the CLI keeps no copy of a route's domain: the route's own DomainError is the refusal
    for m in range(4):
        for r in range(4):
            try:
                hypersum.ROUTES[method](m, r)
                refused = False
            except DomainError:
                refused = True
            argv = ("eval", "--m", str(m), "--r", str(r), "--n", "5", "--method", method)
            code, out, err = run_cli_full(*argv)
            if refused:
                assert (code, out) == (2, ""), (m, r)
                assert err.count("\n") == 1 and err.startswith("error: ")
            else:
                assert (code, int(out)) == (0, hyper_sum_newton(m, r, 5)), (m, r)


def test_the_lemma_refusal_names_the_requested_m():
    # the message names the flag the user typed, not the family's parameter m_max
    argv = ("eval", "--m", "0", "--r", "2", "--n", "5", "--method", "lemma")
    assert run_cli_full(*argv) == (2, "", "error: need m >= 1 and r >= 0, got (0, 2)\n")


def test_bruteforce_n_cap_exit_2():
    too_big = str(MAX_BRUTEFORCE_N + 1)
    assert MAX_BRUTEFORCE_N == 10**6
    argv = ("eval", "--m", "1", "--r", "0", "--n", str(MAX_BRUTEFORCE_N), "--method", "bruteforce")
    assert run_cli(*argv) == (0, f"{MAX_BRUTEFORCE_N}\n")  # the cap itself is admitted
    code, out = run_cli("eval", "--m", "5", "--r", "4", "--n", too_big, "--method", "bruteforce")
    assert code == 2 and out == ""
    code, out = run_cli("table", "--n", too_big)
    assert code == 2 and out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
# the largest n with (r + 1)(n + 1)(m + r) d <= 10^8 for the d digits of n + r
@pytest.mark.parametrize("m, r, n", [(200, 200, 413), (0, 200, 799)])
def test_bruteforce_work_budget_exit_2_before_computing(monkeypatch, fmt, m, r, n):
    assert MAX_BRUTEFORCE_WORK == 10**8
    argv = ["eval", "--m", str(m), "--r", str(r), "--method", "bruteforce", "--format", fmt]
    code, out = run_cli(*argv, "--n", str(n))
    assert code == 0
    value = int(out) if fmt == "text" else int(json.loads(out)["value"][0])
    assert value == hyper_sum_newton(m, r, n)
    monkeypatch.setattr("hypersums.hypersum.value_table", lambda *a: pytest.fail("computed"))
    code, out, err = run_cli_full(*argv, "--n", str(n + 1))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"<= {MAX_BRUTEFORCE_WORK}" in err


# Python prints no int of more than 4300 digits; both values have more (the first 4306)
TOO_LONG = {
    "eval": ("eval", "--m", "200", "--r", "200", "--n", str(10**12)),
    "det": ("det", "--m", "200", "--r", "200", "--at", str(10**30)),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", TOO_LONG)
def test_values_too_long_to_print_exit_2_before_evaluating(monkeypatch, kind, fmt):
    monkeypatch.setattr(RatPoly, "eval", lambda *args: pytest.fail("evaluated"))
    code, out, err = run_cli_full(*TOO_LONG[kind], "--format", fmt)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "could pass 4300 digits" in err


def test_the_largest_n_the_digit_bound_admits_still_prints():
    # (m + r) d + 1 <= 4300 digits for n + r of d <= 21 digits at (200, 1)
    n = 10**21 - 2
    argv = ("eval", "--m", "200", "--r", "1", "--n", str(n), "--format")
    for fmt in ("text", "json"):
        code, out = run_cli(*argv, fmt)
        assert code == 0
        value = int(out) if fmt == "text" else int(json.loads(out)["value"][0])
        assert value == hyper_sum_newton(200, 1, n) and len(str(value)) > 4200
    assert run_cli("eval", "--m", "200", "--r", "1", "--n", str(n + 1)) == (2, "")


@pytest.mark.parametrize("m, r", [(1, 0), (43, 0), (20, 23)])
def test_the_digit_bound_is_tight_where_m_plus_r_divides_4300(m, r):
    # (m + r) d + 1 <= 4300 digits admits d = 4300 / (m + r) - 1 digits of n + r, not one more
    n = 10 ** (4300 // (m + r) - 1) - 1 - r
    argv = ("eval", "--m", str(m), "--r", str(r), "--n")
    assert run_cli(*argv, str(n)) == (0, f"{hyper_sum_newton(m, r, n)}\n")
    assert run_cli(*argv, str(n + 1)) == (2, "")


# the bound adds (m - 1) digits(m + r) for the factor (r+2)...(r+m): n + r < 10^d admitted,
# at (3, 4) d = (4299 - 2) // 7 = 613, which a factor of one digit fewer would make 614
@pytest.mark.parametrize("m, r, d", [(30, 1, 136), (3, 4, 613)])
def test_the_largest_at_the_digit_bound_admits_still_prints(m, r, d):
    n = 10**d - 1 - r
    code, out = run_cli("det", "--m", str(m), "--r", str(r), "--at", str(n))
    assert code == 0
    value = Fraction(out.splitlines()[-1].removeprefix("det value = "))
    assert value == sign_pow(m - 1) * rising_factorial(r + 2, m - 1) * Fraction(
        hyper_sum_newton(m, r, n), math.comb(n + r, r + 1)
    )
    assert run_cli("det", "--m", str(m), "--r", str(r), "--at", str(n + 1)) == (2, "")


@pytest.mark.parametrize("m", [2, 7, 20, 41])
def test_the_det_digit_bound_holds_at_n_0(m):
    # the bound's factor rests on S(m, r, n) = C(n+r, r+1) G(n + r/2), empty at n = 0
    for r in range(1, 31):
        value = leading_minor(m - 1, r).eval(Fraction(r, 2))
        bound = (m + r) * len(str(r)) + 1 + (m - 1) * len(str(m + r))
        assert len(str(abs(value.numerator))) <= bound and len(str(value.denominator)) <= bound


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--m", "201", "--r", "0", "--n", "1"),
        ("eval", "--m", "0", "--r", "201", "--n", "1"),
        ("eval", "--m", "400", "--r", "200", "--n", "5"),
        ("poly", "--m", "201", "--r", "1"),
        ("poly", "--m", "1", "--r", "201"),
        ("det", "--m", "201", "--r", "1"),
        ("det", "--m", "1", "--r", "201"),
        ("verify", "--max-m", "31"),
        ("verify", "--max-r", "16"),
        ("verify", "--max-n", "101"),
        ("table", "--max-m", "101", "--n", "1"),
        ("table", "--max-r", "101", "--n", "1"),
        ("table", "--max-m", "100", "--max-r", "10000", "--n", "1000"),
    ],
)
def test_m_r_and_grid_caps_exit_2(argv):
    assert run_cli(*argv) == (2, "")


def test_caps_accept_the_boundary():
    parser = build_parser()
    at_cap = ["--m", "200", "--r", "200"]
    for argv in (["eval", *at_cap, "--n", "0"], ["poly", *at_cap], ["det", *at_cap]):
        args = parser.parse_args(argv)
        assert (args.m, args.r) == (200, 200)
    args = parser.parse_args(["verify", "--max-m", "30", "--max-r", "15", "--max-n", "100"])
    assert (args.max_m, args.max_r, args.max_n) == (30, 15, 100)
    # a grid bound left out is filled in from verify.DEFAULT_GRID when the command runs
    args = parser.parse_args(["verify"])
    assert (args.max_m, args.max_r, args.max_n) == (None, None, None)
    assert MAX_TABLE_M_R == 100
    args = parser.parse_args(["table", "--max-m", "100", "--max-r", "100", "--n", "1"])
    assert (args.max_m, args.max_r) == (100, 100)


# -- poly ---------------------------------------------------------------------


def test_poly_text_default_var():
    code, out = run_cli("poly", "--m", "1", "--r", "1")
    assert code == 0
    assert out.strip() == "1/2*n^2 + 1/2*n"
    assert run_cli("poly", "--m", "4", "--r", "1") == (
        0,
        "1/5*n^5 + 1/2*n^4 + 1/3*n^3 - 1/30*n\n",
    )
    # the default frame is served from the proved Newton factor, and the JSON says so
    code, out = run_cli("poly", "--m", "4", "--r", "1", "--format", "json")
    assert code == 0 and '"method": "newton"' in out


def test_poly_centered_and_factored():
    code, out = run_cli("poly", "--m", "5", "--r", "7", "--var", "N")
    assert code == 0
    assert out.strip() == "1/99*N^4 - 35/198*N^2 + 7/16"
    code, out = run_cli("poly", "--m", "5", "--r", "7", "--var", "N", "--factored")
    assert code == 0
    assert out.strip() == "(1/1584) * binomial(n+7, 8) * [16*N^4 - 280*N^2 + 693]"
    code, out = run_cli("poly", "--m", "6", "--r", "7", "--var", "N", "--factored")
    assert out.strip() == "(1/10296) * binomial(n+7, 8) * [48*N^5 - 1176*N^3 + 6419*N]"


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_poly_factored_reads_the_centered_factor_once(monkeypatch, fmt):
    calls = []
    real = newton.newton_factor
    monkeypatch.setattr(newton, "newton_factor", lambda m, r: calls.append((m, r)) or real(m, r))
    argv = ("poly", "--m", "5", "--r", "7", "--var", "N", "--factored", "--format", fmt)
    code, out = run_cli(*argv)
    assert code == 0 and out
    assert calls == [(5, 7)]


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("var", ["n", "u"])
def test_poly_factored_without_var_N_exit_2(var, fmt):
    argv = ("poly", "--m", "3", "--r", "1", "--var", var, "--format", fmt, "--factored")
    code, out, err = run_cli_full(*argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--factored requires --var N" in err


def test_poly_latex():
    code, out = run_cli("poly", "--m", "5", "--r", "7", "--var", "N", "--format", "latex")
    assert code == 0
    assert out.strip() == "\\frac{N_{7}^{4}}{99} - \\frac{35 N_{7}^{2}}{198} + \\frac{7}{16}"


@pytest.mark.parametrize(
    "m, latex",
    [
        (5, "\\frac{1}{1584} \\binom{n+7}{8} \\left[16 N_{7}^{4} - 280 N_{7}^{2} + 693\\right]"),
        (
            6,
            "\\frac{1}{10296} \\binom{n+7}{8} "
            "\\left[48 N_{7}^{5} - 1176 N_{7}^{3} + 6419 N_{7}\\right]",
        ),
    ],
    ids=["m5", "m6"],
)
def test_poly_factored_latex(m, latex):
    # the factored form of the text format, typeset
    argv = ["poly", "--m", str(m), "--r", "7", "--var", "N", "--factored", "--format", "latex"]
    assert run_cli(*argv) == (0, latex + "\n")


def test_poly_eval_consistency():
    # the printed n-frame polynomial evaluates to what eval prints
    code, out = run_cli("poly", "--m", "4", "--r", "2", "--format", "json")
    p = hyper_sum_poly(4, 2)
    assert json.loads(out)["poly"] == poly_to_json(p)
    code, out = run_cli("eval", "--m", "4", "--r", "2", "--n", "3")
    assert p.eval(3) == int(out)


def test_poly_u_form():
    code, out = run_cli("poly", "--m", "5", "--r", "7", "--var", "u", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["prefactor"] == "s1"
    check_poly_blob(blob["poly"])
    for m, r in ((3, 0), (0, 3)):
        assert run_cli("poly", "--m", str(m), "--r", str(r), "--var", "u") == (2, "")


@pytest.mark.parametrize(
    "m, r, var, keys",
    [
        (3, 0, "n", {"method": "newton"}),
        (0, 2, "n", {"method": "newton"}),
        (3, 2, "n", {"method": "newton"}),
        (3, 2, "N", {"method": "newton"}),
        (3, 2, "u", {"prefactor": "s1"}),
        (4, 2, "u", {"prefactor": "s2"}),
        (1, 3, "u", {"prefactor": "s1"}),  # m = 1, the least m with a u-form
    ],
)
def test_poly_json_names_the_served_path(m, r, var, keys):
    # n and N are served from the proved Newton factor, or at m = 0 its closed form
    argv = ("poly", "--m", str(m), "--r", str(r), "--var", var, "--format", "json")
    code, out = run_cli(*argv)
    blob = json.loads(out)
    assert code == 0
    assert {k: blob[k] for k in blob.keys() & {"method", "prefactor"}} == keys


@pytest.mark.parametrize("r", [0, 1, 4])
def test_poly_at_m_0_is_the_binomial_closed_form(r):
    # S(0, r, n) = C(n+r-1, r), and 1 at r = 0: served without the Newton factor
    code, out = run_cli("poly", "--m", "0", "--r", str(r), "--format", "json")
    assert (code, json.loads(out)["poly"]) == (0, poly_to_json(hyper_sum_poly(0, r)))


def test_a_frame_mismatch_is_not_a_refusal(monkeypatch):
    # mixing frames is a bug, not an argument outside a domain: it must not read as exit 2
    monkeypatch.setattr(newton, "newton_factor", lambda m, r: RatPoly([1]) * RatPoly([1], "N", r))
    with pytest.raises(ValueError) as exc:
        main(["poly", "--m", "3", "--r", "1", "--var", "N"])
    assert not isinstance(exc.value, DomainError)


# -- det ----------------------------------------------------------------------


# sha256 of the det stdout bytes, taken before the matrix was rendered once per distinct entry
DET_DIGESTS = [
    (
        (59, 5, None, "text"),
        "d922915625dda0a78641afde1b3a593b0f2d263de2522367b6707e7fa290009f",
    ),
    (
        (59, 5, None, "json"),
        "9e2a933a99bd801a2abf8165a2ce21a7ef593861d2119347089e71fa5890bd1d",
    ),
    (
        (59, 5, "123456789", "text"),
        "983b1276745f691d69963e52a6625343dce50c66eb2aeaf8ba08611b64ab083e",
    ),
    (
        (59, 5, "123456789", "json"),
        "8c303981908bf837f3116bbea3227140928c1bf6ea738dd17418c18605761f05",
    ),
    (
        (51, 25, None, "text"),
        "39d2cdf064c70c41bb8a856b214c472c2d30d0389a4d27f21ccb4a8013817982",
    ),
    (
        (51, 25, None, "json"),
        "a70ee28a40f02ac4ffdaae42b03a4c77456f69e178cf7a31fba7bb9ba379039c",
    ),
    (
        (51, 25, "123456789", "text"),
        "ab0c9ffb90d652913a59269160ec20986b1947a3fc1777bd6a8e6dcd7448c56e",
    ),
    (
        (51, 25, "123456789", "json"),
        "a611044ba34842e6b3f8704845e48ba90dd049ce7f0ec43629c37fb09ba2d01b",
    ),
    (
        (1, 0, None, "text"),
        "bc54d1a8614dad78f35989588e646da11fec4e48dc522525dc2d9a1e2bbba03c",
    ),
    (
        (1, 0, None, "json"),
        "2822e97572470ebcfa8c868b52a88b5c564147a15c25b9bbff1d844e933ccb39",
    ),
    (
        (1, 0, "123456789", "text"),
        "06378113224466776d63b218f70d9af4ca14ae07d1bfc45790b471b4d39ecd55",
    ),
    (
        (1, 0, "123456789", "json"),
        "61ec2081913783bc61bc623e72940af4fa7d4008baf807a53037869770a7c60d",
    ),
    # taken before the r = 0 matrix was re-labelled once per distinct entry
    (
        (59, 0, None, "text"),
        "5eca117989de33e12bfaa4dec7f2a1b25bee0a371c9acfe2b74d1038dd9e85b8",
    ),
    (
        (59, 0, None, "json"),
        "d4f773adce5955f5ef44cdc2d3356bb3ee789d9cdaec32e35542fbdbdfd0d592",
    ),
    (
        (59, 0, "123456789", "text"),
        "454546da117d18b87645cb9d5e9decbfcb0124ea5fa1343835dbfba8724b3087",
    ),
    (
        (59, 0, "123456789", "json"),
        "9d39d2bf9d87046345df99eec010bffc0dc05eaacb610da1e4a66d2e8f12f51c",
    ),
    (
        (2, 0, None, "text"),
        "ff8dc16ffee3923a84587c51b85c7e33fd91397612bd6a4d16580830e7c6fa6a",
    ),
    (
        (2, 0, None, "json"),
        "1d13677f6eab944267ed509933a8cf0248900a47a714d470c86236b07cb58969",
    ),
    (
        (2, 0, "123456789", "text"),
        "4e7fe7afc6fdef8fbdb39d9e72d81d539a3991dabedfe6dbe3c48b0bbe834df8",
    ),
    (
        (2, 0, "123456789", "json"),
        "c2518655e5f2ec5faa21527bc436ee5ca8725ef5b3dd32e9108ae8d0ff82bec2",
    ),
]


@pytest.mark.parametrize("cell, digest", DET_DIGESTS)
def test_det_output_is_unchanged(cell, digest):
    m, r, at, fmt = cell
    argv = ["det", "--m", str(m), "--r", str(r), "--format", fmt]
    code, out = run_cli(*argv, *(() if at is None else ("--at", at)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_det_renders_each_distinct_entry_once(monkeypatch):
    matrix = build_matrix(59, 5)
    distinct = {e for row in matrix.entries for e in row}
    assert len(distinct) < matrix.order**2 // 2
    calls = []

    def counted(fn):
        return lambda e, *args: calls.append(e) or fn(e, *args)

    monkeypatch.setattr(hessenberg, "poly_to_json", counted(hessenberg.poly_to_json))
    monkeypatch.setattr(hessenberg, "to_text", counted(hessenberg.to_text))
    monkeypatch.setattr(RatPoly, "eval", counted(RatPoly.eval))
    hessenberg.matrix_to_json(matrix)
    hessenberg.matrix_to_text(matrix)
    hessenberg.matrix_to_text(matrix, Fraction(7, 2))
    assert len(calls) == 3 * len(distinct)


def test_det_at_r0_relabels_each_distinct_entry_once(monkeypatch):
    matrix = build_matrix(59, 0)
    distinct = {e for row in matrix.entries for e in row}
    assert len(distinct) < 200 < matrix.order**2
    calls = []
    relabel = cli.to_n_frame
    monkeypatch.setattr(cli, "to_n_frame", lambda p: calls.append(p) or relabel(p))
    code, _ = run_cli("det", "--m", "59", "--r", "0", "--format", "json")
    assert code == 0
    assert len(calls) <= len(distinct) + 1  # plus the determinant


def test_the_matrix_zeros_are_one_shared_polynomial():
    for m, r in ((59, 0), (59, 5), (12, 3)):
        matrix = build_matrix(m, r)
        zeros = {id(e) for row in matrix.entries for e in row if e.is_zero()}
        assert len(zeros) == 1, (m, r)


DET_TEXT = {
    ("--m", "5", "--r", "7"): """\
matrix of order 4 (m=5, r=7):
( -2*N     9     0     0 )
(  7/2  -3*N    10     0 )
(    0     7  -4*N    11 )
( -7/6     0  35/3  -5*N )
det = 120*N^4 - 2100*N^2 + 10395/2
""",
    ("--m", "5", "--r", "7", "--at", "5"): """\
matrix of order 4 (m=5, r=7):
( -2*N     9     0     0 )
(  7/2  -3*N    10     0 )
(    0     7  -4*N    11 )
( -7/6     0  35/3  -5*N )
det = 120*N^4 - 2100*N^2 + 10395/2
at n = 5 (N = 17/2):
(  -17      9     0      0 )
(  7/2  -51/2    10      0 )
(    0      7   -34     11 )
( -7/6      0  35/3  -85/2 )
det value = 479880
""",
    ("--m", "1", "--r", "3", "--at", "4"): """\
matrix of order 0 (m=1, r=3):
( )  # empty matrix, order 0
det = 1
at n = 4 (N = 11/2):
det value = 1
""",
    ("--m", "4", "--r", "1", "--at", "5"): """\
matrix of order 3 (m=4, r=1):
( -2*N     3     0 )
(  1/2  -3*N     4 )
(    0     1  -4*N )
det = -24*N^3 + 14*N
at n = 5 (N = 11/2):
( -11      3    0 )
( 1/2  -33/2    4 )
(   0      1  -22 )
det value = -3916
""",
    ("--m", "4", "--r", "0", "--at", "3"): """\
matrix of order 3 (m=4, r=0):
( -2*n     2     0 )
(    0  -3*n     3 )
(    0     0  -4*n )
det = -24*n^3
at n = 3 (N = 3):
( -6   2    0 )
(  0  -9    3 )
(  0   0  -12 )
det value = -648
""",
}


@pytest.mark.parametrize("argv", DET_TEXT, ids=[" ".join(a) for a in DET_TEXT])
def test_det_text_exact(argv):
    """The whole text layout, symbolic and evaluated grids alike, byte for byte."""
    assert run_cli("det", *argv) == (0, DET_TEXT[argv])


def test_det_m0_rejected():
    code, _ = run_cli("det", "--m", "0", "--r", "1")
    assert code == 2


# -- what poly and det print is checked -----------------------------------------------


def test_a_request_refused_under_a_wrong_newton_weight_exits_2(wrong_newton_weight):
    # the product form needs r >= 1: the refusal comes before the weights are read
    code, out, err = run_cli_full("poly", "--m", "4", "--r", "0", "--var", "u")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


# -- verify ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, grid",
    [((), (10, 6, 15)), (("--max-m", "3"), (3, 6, 15)), (("--max-n", "4"), (10, 6, 4))],
)
def test_verify_grid_defaults_to_the_default_grid(flags, grid):
    code, out = run_cli("verify", *flags, "--format", "json")
    assert code == 0
    assert json.loads(out)["grid"] == dict(zip(("m_max", "r_max", "n_max"), grid))


def test_verify_fault_injection_exit_1(corrupt_bernoulli):
    with corrupt_bernoulli(4, Fraction(1, 31)):
        code, out = run_cli("verify", "--max-m", "3", "--max-r", "2", "--max-n", "4")
    assert code == 1
    assert "FAIL" in out


# -- table ------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_table_matches_the_recursion(n, fmt):
    # each cell m <= 5, r <= 4 in order, in both machine-read formats
    cells = [(m, r, hyper_sum_bruteforce(m, r, n)) for m in range(6) for r in range(5)]
    code, out = run_cli("table", "--max-m", "5", "--max-r", "4", "--n", str(n), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert out.splitlines() == ["m,r,value", *(f"{m},{r},{v}" for m, r, v in cells)]
    else:
        assert json.loads(out) == {
            "n": n,
            "cells": [{"m": m, "r": r, "value": str(v)} for m, r, v in cells],
        }


@pytest.mark.parametrize("max_m, max_r, n", [(0, 0, 0), (2, 3, 2), (4, 1, 9)])
def test_table_text_has_one_aligned_row_per_m(max_m, max_r, n):
    argv = ("table", "--max-m", str(max_m), "--max-r", str(max_r), "--n", str(n))
    (code, out), cols = run_cli(*argv), range(max_r + 1)
    title, header, *rows = out.splitlines()
    assert code == 0 and title == f"S(m, r, {n}) for m <= {max_m}, r <= {max_r}"
    assert header.split() == ["m\\r", *map(str, cols)]
    assert len({len(line) for line in (header, *rows)}) == 1  # right-aligned columns
    values = [[m, *(hyper_sum_bruteforce(m, r, n) for r in cols)] for m in range(max_m + 1)]
    assert [list(map(int, row.split())) for row in rows] == values


def test_bad_format_exit_2():
    code, _ = run_cli("eval", "--m", "1", "--r", "1", "--n", "1", "--format", "xml")
    assert code == 2


# -- no valid request escapes main ----------------------------------------------------


def cli_matrix():
    """Every command at m <= 5, r <= 3: eval by each method, poly in each frame and
    format with and without --factored, det with and without --at."""
    for m in range(6):
        for r in range(4):
            cell = ("--m", str(m), "--r", str(r))
            for method in ("auto", "bruteforce", *hypersum.ROUTES):
                for n in ("0", "7"):
                    yield ("eval", *cell, "--n", n, "--method", method)
            for var in "nNu":
                for fmt in ("text", "json", "latex"):
                    yield ("poly", *cell, "--var", var, "--format", fmt)
                    yield ("poly", *cell, "--var", var, "--format", fmt, "--factored")
            if m >= 1:
                yield ("det", *cell)
                yield ("det", *cell, "--at", "7")


def test_no_valid_request_escapes_main():
    # a refusal exits 2 with one stderr line and empty stdout; the faults of
    # tests/test_fault_matrix.py FAULTS hold the exits 3
    codes = set()
    for argv in cli_matrix():
        code, out, err = run_cli_full(*argv)
        codes.add(code)
        if code:
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1 and err.startswith("error: "), argv
    assert codes == {0, 2}


# -- the JSON printer ----------------------------------------------------------------

JSON_REQUESTS = [
    ("eval", "--m", "3", "--r", "1", "--n", "3"),
    ("poly", "--m", "5", "--r", "7", "--var", "n"),
    ("poly", "--m", "5", "--r", "7", "--var", "N", "--factored"),
    ("poly", "--m", "5", "--r", "7", "--var", "u"),
    ("det", "--m", "1", "--r", "0"),  # an empty matrix
    ("det", "--m", "2", "--r", "0", "--at", "123456789"),
    ("det", "--m", "59", "--r", "5"),
    ("verify", "--max-m", "4", "--max-r", "3", "--max-n", "6"),
    ("table", "--max-m", "0", "--max-r", "0", "--n", "0"),
    ("table", "--max-m", "5", "--max-r", "4", "--n", "7"),
    # documents a reader parses from a pipe, each checked with json.loads below
    ("eval", "--m", "4", "--r", "1", "--n", "30"),
    ("poly", "--m", "6", "--r", "7", "--var", "u"),
    ("det", "--m", "12", "--r", "5", "--at", "3"),
    ("table", "--max-m", "4", "--max-r", "3", "--n", "9"),
    ("verify",),
    ("verify", "--max-m", "30", "--max-r", "15", "--max-n", "100"),  # the cap
]


def run_json(monkeypatch, *argv: str) -> tuple[int, str, list]:
    """Run a JSON request, recording each payload handed to the printer."""
    payloads = []
    printer = cli._print_json
    monkeypatch.setattr(cli, "_print_json", lambda p: payloads.append(p) or printer(p))
    code, out = run_cli(*argv, "--format", "json")
    return code, out, payloads


@pytest.mark.parametrize("argv", JSON_REQUESTS, ids=" ".join)
def test_the_json_printer_writes_the_bytes_of_json_dumps(monkeypatch, argv):
    code, out, payloads = run_json(monkeypatch, *argv)
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0]) + "\n"
    json.loads(out)


def test_the_json_printer_writes_a_failing_report_as_json_dumps(
    monkeypatch, corrupt_bernoulli
):
    # the failure details hold quotes and serialized polynomials
    with corrupt_bernoulli(2, Fraction(1, 7)):
        code, out, payloads = run_json(
            monkeypatch, "verify", "--max-m", "4", "--max-r", "3", "--max-n", "6"
        )
    assert code == 1 and len(payloads) == 1
    assert payloads[0]["failures"] and '\\"' in out
    assert out == json.dumps(payloads[0]) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{}, {"a": []}, {"a": [[], [1, [2]], {"b": "\u00e9\"\\"}], "c": 1.5, "d": None, "e": (1, 2)}],
)
def test_the_json_printer_matches_json_dumps_on_other_values(capsys, payload):
    cli._print_json(payload)
    assert capsys.readouterr().out == json.dumps(payload) + "\n"


def test_det_json_holds_one_row_encoding_at_a_time(tmp_path):
    # encoded in one piece, the 148 KB document needs 2.3-2.7 MB; one row at a time, about 1 MB
    exactnum.clear_derived_caches()
    path = tmp_path / "det.json"
    with path.open("w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["det", "--m", "59", "--r", "5", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert json.loads(path.read_text())["order"] == 58
    assert peak < 1.6e6


# -- environment and real process ----------------------------------------------------


def test_table_file_in_environment_is_ignored(tmp_path, monkeypatch):
    # a tables.json with a wrong B_2 once served 21097887/4 here with exit 0
    poisoned = json.dumps({"bernoulli": [["1", "1"], ["-1", "2"], ["1", "7"]]})
    (tmp_path / "tables.json").write_text(poisoned)
    monkeypatch.setenv("HYPERSUM_CACHE_DIR", str(tmp_path))
    code, out = run_cli("eval", "--m", "4", "--r", "1", "--n", "30")
    assert (code, out) == (0, "5273999\n")
    assert (tmp_path / "tables.json").read_text() == poisoned
    assert [p.name for p in tmp_path.iterdir()] == ["tables.json"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_stdout_closed_mid_write_exits_141_without_a_traceback(fmt):
    # the 131 KB table outgrows a 64 KiB pipe buffer, so the close always lands mid-write
    argv = ["table", "--max-m", "30", "--max-r", "30", "--n", "1000", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypersums.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")  # 128 + SIGPIPE, as for `yes | head`


def run_into_a_closed_pipe(argv: list[str], unbuffered: bool = False):
    """The command with stdout a pipe whose read end is closed before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "hypersums.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_gone_before_the_exit_flush_exits_141(unbuffered):
    # a short answer waits in stdout's buffer for the interpreter's exit flush unless
    # PYTHONUNBUFFERED is set; that flush once failed with exit 120 and a message
    proc = run_into_a_closed_pipe(["eval", "--m", "3", "--r", "1", "--n", "3"], unbuffered)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]], ids=["top", "eval"])
def test_help_into_a_closed_stdout_exits_141(argv):
    # argparse prints the help and exits inside parse_args, so the flush that fails
    # must come before the interpreter's exit flush
    proc = run_into_a_closed_pipe(argv)
    assert (proc.returncode, proc.stderr) == (141, b"")
