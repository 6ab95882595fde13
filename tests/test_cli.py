"""CLI contract: output formats, schemas, exit codes."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from hypersums.cli import MAX_BRUTEFORCE_N, build_parser, main
from hypersums.hessenberg import build_matrix, det
from hypersums.hypersum import faulhaber_det, hyper_sum_bruteforce
from hypersums.polyring import poly_from_json


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr().out
    return code, out


def check_rational_blob(blob) -> Fraction:
    """Validate the documented scalar schema: canonical ["num", "den"]."""
    assert isinstance(blob, list) and len(blob) == 2
    num, den = int(blob[0]), int(blob[1])
    assert den >= 1
    assert math.gcd(abs(num), den) == 1
    return Fraction(num, den)


def check_poly_blob(blob) -> None:
    assert set(blob) == {"var", "r", "coeffs"}
    assert blob["var"] in ("n", "N", "u")
    assert isinstance(blob["r"], int) and blob["r"] >= 0
    for pair in blob["coeffs"]:
        check_rational_blob(pair)
    if blob["coeffs"]:
        assert Fraction(int(blob["coeffs"][-1][0]), int(blob["coeffs"][-1][1])) != 0


# -- eval ---------------------------------------------------------------------


def test_eval_examples(capsys):
    assert run_cli(capsys, "eval", "--m", "3", "--r", "1", "--n", "3") == (0, "36\n")
    assert run_cli(capsys, "eval", "--m", "5", "--r", "0", "--n", "2") == (0, "32\n")
    assert run_cli(capsys, "eval", "--m", "2", "--r", "2", "--n", "3") == (0, "20\n")


def test_eval_methods_agree(capsys):
    for m in range(1, 7):
        for r in range(1, 7):
            for n in ("0", "10"):
                expected = None
                for method in ("auto", "bruteforce", "det", "q", "c", "chain", "lemma"):
                    code, out = run_cli(
                        capsys,
                        "eval", "--m", str(m), "--r", str(r), "--n", n,
                        "--method", method,
                    )
                    assert code == 0
                    if expected is None:
                        expected = out
                    assert out == expected, (m, r, n, method)


def test_eval_lemma_accepts_r0(capsys):
    code, out = run_cli(
        capsys, "eval", "--m", "4", "--r", "0", "--n", "3", "--method", "lemma"
    )
    assert code == 0 and out.strip() == "81"


def test_eval_json_schema(capsys):
    code, out = run_cli(
        capsys, "eval", "--m", "4", "--r", "2", "--n", "6", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["m"] == 4 and blob["r"] == 2 and blob["n"] == 6
    value = check_rational_blob(blob["value"])
    assert value == hyper_sum_bruteforce(4, 2, 6)


def test_eval_crosscheck_mismatch_exit_3(capsys, corrupt_bernoulli):
    with corrupt_bernoulli(2, Fraction(1, 7)):
        code, _ = run_cli(capsys, "eval", "--m", "4", "--r", "2", "--n", "5")
    assert code == 3
    code, out = run_cli(capsys, "eval", "--m", "4", "--r", "2", "--n", "5")
    assert code == 0 and out.strip() == str(hyper_sum_bruteforce(4, 2, 5))


def test_eval_invalid_arguments_exit_2(capsys):
    code, _ = run_cli(capsys, "eval", "--m", "-1", "--r", "0", "--n", "1")
    assert code == 2
    code, _ = run_cli(capsys, "eval", "--m", "2", "--r", "0", "--n", "1", "--method", "q")
    assert code == 2
    code, _ = run_cli(capsys, "eval", "--m", "0", "--r", "1", "--n", "1", "--method", "det")
    assert code == 2
    code, out = run_cli(
        capsys, "eval", "--m", "2", "--r", "0", "--n", "1", "--method", "chain"
    )
    assert code == 2 and out == ""
    code, out = run_cli(
        capsys, "eval", "--m", "0", "--r", "1", "--n", "1", "--method", "lemma"
    )
    assert code == 2 and out == ""


def test_bruteforce_n_cap_exit_2(capsys):
    too_big = str(MAX_BRUTEFORCE_N + 1)
    assert MAX_BRUTEFORCE_N == 10**6
    code, out = run_cli(
        capsys, "eval", "--m", "5", "--r", "4", "--n", too_big, "--method", "bruteforce"
    )
    assert code == 2 and out == ""
    code, out = run_cli(capsys, "table", "--n", too_big)
    assert code == 2 and out == ""


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
    ],
)
def test_m_r_and_grid_caps_exit_2(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "")


def test_caps_accept_the_boundary():
    parser = build_parser()
    at_cap = ["--m", "200", "--r", "200"]
    for argv in (["eval", *at_cap, "--n", "0"], ["poly", *at_cap], ["det", *at_cap]):
        args = parser.parse_args(argv)
        assert (args.m, args.r) == (200, 200)
    args = parser.parse_args(["verify", "--max-m", "30", "--max-r", "15", "--max-n", "100"])
    assert (args.max_m, args.max_r, args.max_n) == (30, 15, 100)
    args = parser.parse_args(["verify"])
    assert (args.max_m, args.max_r, args.max_n) == (10, 6, 15)


# -- poly ---------------------------------------------------------------------


def test_poly_text_default_var(capsys):
    code, out = run_cli(capsys, "poly", "--m", "1", "--r", "1")
    assert code == 0
    assert out.strip() == "1/2*n^2 + 1/2*n"


def test_poly_centered_and_factored(capsys):
    code, out = run_cli(capsys, "poly", "--m", "5", "--r", "7", "--var", "N")
    assert code == 0
    assert out.strip() == "1/99*N^4 - 35/198*N^2 + 7/16"
    code, out = run_cli(capsys, "poly", "--m", "5", "--r", "7", "--var", "N", "--factored")
    assert code == 0
    assert out.strip() == "(1/1584) * binomial(n+7, 8) * [16*N^4 - 280*N^2 + 693]"
    code, out = run_cli(capsys, "poly", "--m", "6", "--r", "7", "--var", "N", "--factored")
    assert out.strip() == "(1/10296) * binomial(n+7, 8) * [48*N^5 - 1176*N^3 + 6419*N]"


def test_poly_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "poly", "--m", "5", "--r", "7", "--var", "N", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    check_poly_blob(blob["poly"])
    assert poly_from_json(blob["poly"]) == faulhaber_det(5, 7).poly


def test_poly_latex(capsys):
    code, out = run_cli(
        capsys, "poly", "--m", "5", "--r", "7", "--var", "N", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "\\frac{N_{7}^{4}}{99} - \\frac{35 N_{7}^{2}}{198} + \\frac{7}{16}"


def test_poly_eval_consistency(capsys):
    # the printed n-frame polynomial evaluates to what eval prints
    code, out = run_cli(
        capsys, "poly", "--m", "4", "--r", "2", "--format", "json"
    )
    p = poly_from_json(json.loads(out)["poly"])
    code, out = run_cli(capsys, "eval", "--m", "4", "--r", "2", "--n", "3")
    assert p.eval(3) == int(out)


def test_poly_u_form(capsys):
    code, out = run_cli(
        capsys, "poly", "--m", "5", "--r", "7", "--var", "u", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["prefactor"] == "s1"
    check_poly_blob(blob["poly"])
    code, _ = run_cli(capsys, "poly", "--m", "3", "--r", "0", "--var", "u")
    assert code == 2


# -- det ----------------------------------------------------------------------


def test_det_showcase_matrix(capsys):
    code, out = run_cli(capsys, "det", "--m", "5", "--r", "7")
    assert code == 0
    assert "-2*N" in out and "35/3" in out and "-7/6" in out
    assert "120*N^4 - 2100*N^2 + 10395/2" in out


def test_det_empty(capsys):
    code, out = run_cli(capsys, "det", "--m", "1", "--r", "3")
    assert code == 0
    assert "det = 1" in out


def test_det_r0_closed_form(capsys):
    code, out = run_cli(capsys, "det", "--m", "4", "--r", "0")
    assert code == 0
    assert "det = -24*n^3" in out


def test_det_json_matches_library(capsys):
    code, out = run_cli(capsys, "det", "--m", "3", "--r", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == 2
    for row in blob["entries"]:
        for cell in row:
            check_poly_blob(cell)
    assert poly_from_json(blob["det"]) == det(build_matrix(3, 2))


def test_det_at_value(capsys):
    code, out = run_cli(capsys, "det", "--m", "5", "--r", "7", "--at", "5")
    assert code == 0
    assert "det value = 479880" in out
    assert "N = 17/2" in out


def test_det_m0_rejected(capsys):
    code, _ = run_cli(capsys, "det", "--m", "0", "--r", "1")
    assert code == 2


# -- verify ---------------------------------------------------------------------


def test_verify_small_grid_exit_0(capsys):
    code, out = run_cli(
        capsys, "verify", "--max-m", "2", "--max-r", "1", "--max-n", "3"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_json_report(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--max-m", "2", "--max-r", "1", "--max-n", "3", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "pass"
    assert blob["failures"] == []


def test_verify_fault_injection_exit_1(capsys, corrupt_bernoulli):
    with corrupt_bernoulli(4, Fraction(1, 31)):
        code, out = run_cli(
            capsys, "verify", "--max-m", "3", "--max-r", "2", "--max-n", "4"
        )
    assert code == 1
    assert "FAIL" in out


# -- table ------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out = run_cli(
        capsys, "table", "--max-m", "2", "--max-r", "2", "--n", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,r,value"
    assert "1,2,10" in lines and "2,2,20" in lines


def test_table_all_ones_at_n_1(capsys):
    code, out = run_cli(
        capsys, "table", "--max-m", "3", "--max-r", "4", "--n", "1", "--format", "csv"
    )
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for m, r, v in rows:
        if int(m) >= 1 or int(r) >= 1:
            assert v == "1", (m, r)


def test_table_binomial_column(capsys):
    code, out = run_cli(
        capsys, "table", "--max-m", "1", "--max-r", "4", "--n", "4", "--format", "csv"
    )
    rows = {(int(m), int(r)): int(v) for m, r, v in
            (line.split(",") for line in out.strip().splitlines()[1:])}
    for r in range(5):
        assert rows[1, r] == math.comb(4 + r, r + 1)


def test_table_json(capsys):
    code, out = run_cli(
        capsys, "table", "--max-m", "1", "--max-r", "1", "--n", "2", "--format", "json"
    )
    blob = json.loads(out)
    assert {"m": 1, "r": 1, "value": "3"} in blob["cells"]


def test_bad_format_exit_2(capsys):
    code, _ = run_cli(capsys, "eval", "--m", "1", "--r", "1", "--n", "1", "--format", "xml")
    assert code == 2


# -- environment and real process ----------------------------------------------------


def test_table_file_in_environment_is_ignored(tmp_path, capsys, monkeypatch):
    # a tables.json with a wrong B_2 once served 21097887/4 here with exit 0
    poisoned = json.dumps({"bernoulli": [["1", "1"], ["-1", "2"], ["1", "7"]]})
    (tmp_path / "tables.json").write_text(poisoned)
    monkeypatch.setenv("HYPERSUM_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "eval", "--m", "4", "--r", "1", "--n", "30")
    assert (code, out) == (0, "5273999\n")
    assert (tmp_path / "tables.json").read_text() == poisoned
    assert [p.name for p in tmp_path.iterdir()] == ["tables.json"]


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hypersums.cli", "eval", "--m", "3", "--r", "1", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "36"
