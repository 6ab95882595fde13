"""The package's public names, resolved lazily from their modules."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

from hypersums import build_matrix, hyper_sum_det, run_grid
from hypersums.hessenberg import HessenbergMatrix
from hypersums.polyring import RatPoly

PUBLIC = (
    "HessenbergMatrix HyperSumPoly RatPoly Rational VerifyReport bernoulli "
    "build_matrix coffey_residual det faulhaber_det "
    "faulhaber_r1 faulhaber_u_form golden_fixtures hyper_sum_bruteforce "
    "hyper_sum_det hyper_sum_newton hyper_sum_poly hyper_sum_poly_c hyper_sum_poly_chain "
    "hyper_sum_poly_q lemma_recurrence_family monomial newton_factor power_sum_poly q_poly "
    "r_stirling1 rising_factorial run_all run_grid s1_poly stirling1_unsigned "
    "sum_of_products to_N_frame to_latex to_n_frame to_text to_u_form"
).split()

# runs in a fresh interpreter, so that nothing but a bare `import hypersums` precedes it
PROBE = """
import sys
import hypersums

assert [m for m in sys.modules if m.startswith("hypersums.")] == [], "bare import loads modules"
from hypersums import polyring  # a submodule not yet imported is found past __getattr__
assert polyring is sys.modules["hypersums.polyring"]
names = sys.argv[1:]
for name in names:
    namespace = {}
    exec(f"from hypersums import {name}", namespace)
    assert namespace[name] is getattr(hypersums, name), name
assert sorted(hypersums.__all__) == sorted(names), sorted(hypersums.__all__)
"""


def test_public_names_resolve_after_bare_import():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *PUBLIC], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_deleted_helpers_are_gone():
    import hypersums
    import hypersums.cli

    assert not hasattr(hypersums, "from_u_form")
    assert not hasattr(hypersums, "coeff_recurrence_step")
    assert not hasattr(hypersums, "divide_exact")
    assert not hasattr(hypersums, "stirling_product_form")
    assert not hasattr(hypersums.hypersum, "stirling_product_form")
    assert not hasattr(hypersums, "FaulhaberPoly")
    assert not hasattr(hypersums.hypersum, "FaulhaberPoly")
    assert not hasattr(hypersums.cli, "_factored_parts")
    assert not hasattr(hypersums, "faulhaber_rec")
    assert not hasattr(hypersums.hypersum, "faulhaber_rec")
    for name in ("poly", "constant", "zero"):  # RatPoly(...) builds every polynomial
        assert not hasattr(hypersums, name)
        assert not hasattr(hypersums.polyring, name)
    for name in ("binomial", "rational_from_json"):
        assert not hasattr(hypersums, name)
        assert not hasattr(hypersums.exactnum, name)
    assert not hasattr(hypersums.polyring, "poly_from_json")
    assert not hasattr(hypersums.polyring.RatPoly, "leading_coefficient")
    assert not hasattr(hypersums.hessenberg.HessenbergMatrix, "entry")
    assert not hasattr(hypersums.hypersum, "_centered_factor_rec")
    for name in ("s1_closed", "s2_closed"):
        assert not hasattr(hypersums, name)
        assert not hasattr(hypersums.hypersum, name)
    # of the names that moved to newton, hypersum keeps s1_poly alone, for the benchmark probe
    for name in (
        "det_to_factor",
        "expand_factor",
        "faulhaber_u_form",
        "hyper_sum_newton",
        "newton_factor",
        "newton_weights",
    ):
        assert not hasattr(hypersums.hypersum, name)
    assert not hasattr(hypersums.hessenberg, "_leading")
    assert hypersums.hypersum.HyperSumPoly._fields == ("m", "r", "poly")  # no route tag


# runs in a fresh interpreter: what a cold CLI request loads beyond what the
# interpreter had already loaded at start-up (site hooks included); with arguments,
# after cli.main has served them with stdout captured
IMPORT_PROBE = """
import io, sys
before = set(sys.modules)
import hypersums.cli
if sys.argv[1:]:
    sys.stdout, stdout = io.StringIO(), sys.stdout
    code = hypersums.cli.main(sys.argv[1:])
    sys.stdout = stdout
    assert code == 0, code
print(" ".join(sorted(set(sys.modules) - before)))
"""

HESSENBERG, HYPERSUM = "hypersums.hessenberg", "hypersums.hypersum"
# request -> the modules of WATCHED it loads: the Newton path serves eval, poly and table,
# det reads the matrix, only a route asked for by name loads the routes, and the recursion
# that checks eval --method bruteforce is in exactnum, which every request loads
COLD_LOADS = {
    "": set(),
    "eval --m 5 --r 3 --n 9": set(),
    "poly --m 5 --r 3 --var n": set(),
    "poly --m 5 --r 3 --var N": set(),
    "poly --m 5 --r 3 --var u": set(),
    "table --max-m 3 --max-r 2 --n 4": set(),
    "det --m 5 --r 3": {HESSENBERG},
    "eval --m 5 --r 3 --n 9 --method q": {HESSENBERG, HYPERSUM},
    "eval --m 5 --r 3 --n 9 --method bruteforce": set(),
}
# json is imported by the JSON output paths alone
WATCHED = {"dataclasses", "inspect", "typing", "json", "hypersums.verify", HESSENBERG, HYPERSUM}


@pytest.mark.parametrize("request_", COLD_LOADS, ids=lambda argv: argv or "import")
def test_the_cli_imports_neither_dataclasses_nor_verify(request_):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *request_.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"hypersums.cli", "hypersums.newton"} <= loaded
    assert loaded & WATCHED == COLD_LOADS[request_]


RECORDS = {
    "HyperSumPoly": lambda: hyper_sum_det(3, 2),
    "HessenbergMatrix": lambda: build_matrix(3, 2),
    "CheckResult": lambda: run_grid(1, 1, 1).checks[0],
}


@pytest.mark.parametrize("name", RECORDS)
def test_the_frozen_records_refuse_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == RECORDS[name]()
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


def test_the_verify_report_is_a_record_by_fields():
    report = run_grid(1, 1, 1)
    same = type(report)(1, 1, 1, list(report.checks), report.wall_time)
    assert report == same and report.passed
    assert repr(report).startswith("VerifyReport(m_max=1, r_max=1, n_max=1, checks=[")
    with pytest.raises(AttributeError):
        report.checks = []


def test_a_hessenberg_matrix_must_be_square_and_zero_above_the_superdiagonal():
    one, zero = RatPoly([1], "N", 0), RatPoly([], "N", 0)
    with pytest.raises(ValueError, match="square"):
        HessenbergMatrix(3, 0, ((one, one), (one,)))
    with pytest.raises(ValueError, match=r"entry \(1, 3\) above the superdiagonal"):
        HessenbergMatrix(4, 0, ((one, one, RatPoly([Fraction(1, 2)], "N", 0)),) + ((one,) * 3,) * 2)
    rows = ((one, one, zero),) + ((one,) * 3,) * 2
    # m and r must agree with the order and the frame of the entries
    with pytest.raises(ValueError, match="order 3 belongs to m = 4, not 7"):
        HessenbergMatrix(7, 3, rows)
    with pytest.raises(ValueError, match=r"entry \(1, 1\) is in frame r = 0, not 3"):
        HessenbergMatrix(4, 3, rows)
    ok = HessenbergMatrix(4, 0, rows)
    assert (ok.m, ok.r, ok.order) == (4, 0, 3)
