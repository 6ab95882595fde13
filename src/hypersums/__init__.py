"""Exact computation of hyper-sums of powers of integers.

S(m, 0, n) = n^m and S(m, r, n) = sum_{i=1}^{n} S(m, r-1, i).  The package
computes these iterated power sums as exact rational polynomials by five
independent methods and cross-verifies them; see :mod:`hypersums.hypersum`
for the routes, :mod:`hypersums.newton` for the Newton-weight path the CLI
serves, :mod:`hypersums.verify` for the equivalence runner, and
:mod:`hypersums.cli` for the command-line interface.

All arithmetic is exact (``fractions.Fraction``); there is no floating
point anywhere.  Bernoulli numbers follow the B_1 = -1/2 convention.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; read on first use (PEP 562)
_EXPORTS = {
    "exactnum": (
        "Rational",
        "bernoulli",
        "r_stirling1",
        "rising_factorial",
        "stirling1_unsigned",
    ),
    "hessenberg": ("HessenbergMatrix", "build_matrix", "det"),
    "hypersum": (
        "HyperSumPoly",
        "coffey_residual",
        "faulhaber_det",
        "faulhaber_r1",
        "hyper_sum_bruteforce",
        "hyper_sum_det",
        "hyper_sum_poly",
        "hyper_sum_poly_c",
        "hyper_sum_poly_chain",
        "hyper_sum_poly_q",
        "lemma_recurrence_family",
        "power_sum_poly",
        "q_poly",
        "s1_closed",
        "s2_closed",
    ),
    "newton": ("faulhaber_u_form", "hyper_sum_newton", "newton_factor", "s1_poly"),
    "polyring": (
        "RatPoly",
        "monomial",
        "sum_of_products",
        "to_N_frame",
        "to_latex",
        "to_n_frame",
        "to_text",
        "to_u_form",
    ),
    "verify": ("VerifyReport", "golden_fixtures", "run_all", "run_grid"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
