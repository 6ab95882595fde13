"""The package's public names, resolved lazily from their modules."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

from hypersums import build_matrix, faulhaber_det, hyper_sum_det, run_grid
from hypersums.hessenberg import HessenbergMatrix
from hypersums.polyring import poly

PUBLIC = (
    "FaulhaberPoly HessenbergMatrix HyperSumPoly RatPoly Rational VerifyReport bernoulli "
    "binomial build_matrix coeff_c coffey_residual constant det faulhaber_det "
    "faulhaber_r1 faulhaber_rec faulhaber_u_form golden_fixtures hyper_sum_bruteforce "
    "hyper_sum_det hyper_sum_newton hyper_sum_poly hyper_sum_poly_c hyper_sum_poly_chain "
    "hyper_sum_poly_q lemma_recurrence_family monomial poly power_sum_poly q_poly r_stirling1 "
    "rising_factorial run_all run_grid s1_closed s1_poly s2_closed stirling1_unsigned "
    "sum_of_products to_N_frame to_latex to_n_frame to_text to_u_form zero"
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

    assert not hasattr(hypersums, "from_u_form")
    assert not hasattr(hypersums, "coeff_recurrence_step")
    assert not hasattr(hypersums, "divide_exact")
    assert not hasattr(hypersums, "stirling_product_form")
    assert not hasattr(hypersums.hypersum, "stirling_product_form")


# runs in a fresh interpreter: what a cold CLI request loads beyond what the
# interpreter had already loaded at start-up (site hooks included)
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import hypersums.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_the_cli_imports_neither_dataclasses_nor_verify():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hypersums.cli" in loaded
    # json is imported by the JSON output paths alone
    assert loaded & {"dataclasses", "inspect", "typing", "json", "hypersums.verify"} == set()


RECORDS = {
    "HyperSumPoly": lambda: hyper_sum_det(3, 2),
    "FaulhaberPoly": lambda: faulhaber_det(3, 2),
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


def test_a_hessenberg_matrix_must_be_square_and_zero_above_the_superdiagonal():
    one, zero = poly([1], "N", 0), poly([], "N", 0)
    with pytest.raises(ValueError, match="square"):
        HessenbergMatrix(3, 0, ((one, one), (one,)))
    with pytest.raises(ValueError, match=r"entry \(1, 3\) above the superdiagonal"):
        HessenbergMatrix(4, 0, ((one, one, poly([Fraction(1, 2)], "N", 0)),) + ((one,) * 3,) * 2)
    ok = HessenbergMatrix(4, 0, ((one, one, zero),) + ((one,) * 3,) * 2)
    assert (ok.m, ok.r, ok.order) == (4, 0, 3)
