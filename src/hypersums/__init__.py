"""Exact computation of hyper-sums of powers of integers.

S(m, 0, n) = n^m and S(m, r, n) = sum_{i=1}^{n} S(m, r-1, i).  The package
computes these iterated power sums as exact rational polynomials by five
independent methods and cross-verifies them; see :mod:`hypersums.hypersum`
for the routes, :mod:`hypersums.verify` for the equivalence runner, and
:mod:`hypersums.cli` for the command-line interface.

All arithmetic is exact (``fractions.Fraction``); there is no floating
point anywhere.  Bernoulli numbers follow the B_1 = -1/2 convention.
"""

from .exactnum import (
    Rational,
    bernoulli,
    binomial,
    r_stirling1,
    rising_factorial,
    stirling1_unsigned,
)
from .hessenberg import HessenbergMatrix, build_matrix, det
from .hypersum import (
    FaulhaberPoly,
    HyperSumPoly,
    coeff_c,
    coeff_recurrence_step,
    coffey_residual,
    faulhaber_det,
    faulhaber_r1,
    faulhaber_rec,
    faulhaber_u_form,
    hyper_sum_bruteforce,
    hyper_sum_det,
    hyper_sum_poly,
    hyper_sum_poly_c,
    hyper_sum_poly_chain,
    hyper_sum_poly_q,
    lemma_recurrence_family,
    power_sum_poly,
    q_poly,
    s1_closed,
    s1_poly,
    s2_closed,
    stirling_product_form,
)
from .polyring import (
    RatPoly,
    constant,
    divide_exact,
    from_u_form,
    monomial,
    poly,
    to_N_frame,
    to_latex,
    to_n_frame,
    to_text,
    to_u_form,
    zero,
)
from .verify import VerifyReport, golden_fixtures, run_all, run_grid

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "RatPoly",
    "HessenbergMatrix",
    "HyperSumPoly",
    "FaulhaberPoly",
    "VerifyReport",
    "bernoulli",
    "binomial",
    "build_matrix",
    "coeff_c",
    "coeff_recurrence_step",
    "coffey_residual",
    "constant",
    "det",
    "divide_exact",
    "faulhaber_det",
    "faulhaber_r1",
    "faulhaber_rec",
    "faulhaber_u_form",
    "from_u_form",
    "golden_fixtures",
    "hyper_sum_bruteforce",
    "hyper_sum_det",
    "hyper_sum_poly",
    "hyper_sum_poly_c",
    "hyper_sum_poly_chain",
    "hyper_sum_poly_q",
    "lemma_recurrence_family",
    "monomial",
    "poly",
    "power_sum_poly",
    "q_poly",
    "r_stirling1",
    "rising_factorial",
    "run_all",
    "run_grid",
    "s1_closed",
    "s1_poly",
    "s2_closed",
    "stirling1_unsigned",
    "stirling_product_form",
    "to_N_frame",
    "to_latex",
    "to_n_frame",
    "to_text",
    "to_u_form",
    "zero",
]
