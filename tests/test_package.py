"""The package's public names, resolved lazily from their modules."""

from __future__ import annotations

import subprocess
import sys

PUBLIC = (
    "FaulhaberPoly HessenbergMatrix HyperSumPoly RatPoly Rational VerifyReport bernoulli "
    "binomial build_matrix coeff_c coffey_residual constant det faulhaber_det "
    "faulhaber_r1 faulhaber_rec faulhaber_u_form golden_fixtures hyper_sum_bruteforce "
    "hyper_sum_det hyper_sum_newton hyper_sum_poly hyper_sum_poly_c hyper_sum_poly_chain "
    "hyper_sum_poly_q lemma_recurrence_family monomial poly power_sum_poly q_poly r_stirling1 "
    "rising_factorial run_all run_grid s1_closed s1_poly s2_closed stirling1_unsigned "
    "stirling_product_form sum_of_products to_N_frame to_latex to_n_frame to_text to_u_form zero"
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
