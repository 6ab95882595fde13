"""Acceptance gate: one test per criterion, exact comparisons (zero tolerance).

The one tier-1 home of the paper's displays and identities that it asserts: no unit
test repeats them.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

from hypersums.exactnum import bernoulli, hyper_sum_bruteforce, r_stirling1, sign_pow
from hypersums.hessenberg import HessenbergMatrix, build_matrix, det
from hypersums.hypersum import (
    ROUTES,
    coffey_residual,
    faulhaber_det,
    faulhaber_r1,
    hyper_sum_det,
    hyper_sum_poly,
    hyper_sum_poly_c,
    q_poly,
)
from hypersums.newton import s1_poly
from hypersums.polyring import RatPoly, monomial, to_n_frame
from conftest import check_poly_blob, check_rational_blob
from test_hypersum import coeff_c_reduced_k1


def report(criterion: int, description: str):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {criterion}: FAIL  {description}")
                raise
            print(f"ACCEPTANCE {criterion}: PASS  {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "centered factors and factored displays for (5,7)/(6,7), < 1 s")
def test_criterion_1_golden_centered_factors():
    start = time.perf_counter()
    assert faulhaber_det(5, 7) == RatPoly(
        [Fraction(7, 16), 0, Fraction(-35, 198), 0, Fraction(1, 99)], "N", 7
    )
    assert faulhaber_det(6, 7) == RatPoly(
        [0, Fraction(6419, 10296), 0, Fraction(-49, 429), 0, Fraction(2, 429)], "N", 7
    )
    bracket5 = RatPoly([693, 0, -280, 0, 16], "N", 7)
    assert hyper_sum_det(5, 7).poly == (s1_poly(7) * to_n_frame(bracket5)).scale(
        Fraction(1, 1584)
    )
    bracket6 = RatPoly([0, 6419, 0, -1176, 0, 48], "N", 7)
    assert hyper_sum_det(6, 7).poly == (s1_poly(7) * to_n_frame(bracket6)).scale(
        Fraction(1, 10296)
    )
    for r in range(5):
        assert faulhaber_det(1, r) == RatPoly([1], "N", r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@report(2, "half-shifted power sums for m = 7, 8 plus value spot checks")
def test_criterion_2_golden_half_shifted():
    assert faulhaber_r1(7) == RatPoly(
        [
            Fraction(17, 2048), 0, Fraction(-31, 384), 0,
            Fraction(49, 192), 0, Fraction(-7, 24), 0, Fraction(1, 8),
        ],
        "N",
        1,
    )
    assert faulhaber_r1(8) == RatPoly(
        [
            0, Fraction(127, 3840), 0, Fraction(-31, 144), 0,
            Fraction(49, 120), 0, Fraction(-1, 3), 0, Fraction(1, 9),
        ],
        "N",
        1,
    )
    assert faulhaber_r1(1) == RatPoly([Fraction(-1, 8), 0, Fraction(1, 2)], "N", 1)
    for m in (7, 8):
        p = faulhaber_r1(m)
        assert p.eval(Fraction(3, 2)) == 1  # n = 1
        assert p.eval(Fraction(5, 2)) == 1 + 2**m  # n = 2


@report(3, "quintic difference identity holds symbolically")
def test_criterion_3_golden_quintic_difference():
    lhs = hyper_sum_poly(5, 4) - hyper_sum_poly(5, 3).scale(Fraction(1, 2))
    prefactor = (
        RatPoly([0, 1]) * RatPoly([1, 1]) * RatPoly([2, 1]) * RatPoly([3, 1]) * RatPoly([3, 2])
    )
    bracket = (
        monomial(4).shift(Fraction(3, 2)).scale(Fraction(5, 126))
        + monomial(2).shift(Fraction(3, 2)).scale(Fraction(-5, 252))
        + RatPoly([Fraction(-859, 2016)])
    )
    assert (lhs - (prefactor * bracket).scale(Fraction(1, 240))).is_zero()
    assert lhs.eval(1) == Fraction(1, 2)  # both summands are 1 at n = 1


@report(4, "five-way equivalence on 1<=m<=10, 1<=r<=6, eval 0<=n<=15, < 60 s")
def test_criterion_4_five_way_equivalence():
    start = time.perf_counter()
    scalar_checks = 0
    for m in range(1, 11):
        for r in range(1, 7):
            produced = [ROUTES[name](m, r).poly for name in ("q", "c", "chain", "lemma", "det")]
            reference = produced[0]
            for p in produced[1:]:
                assert p.coeffs == reference.coeffs, (m, r, p)
                scalar_checks += len(reference.coeffs)
            for n in range(16):
                oracle = hyper_sum_bruteforce(m, r, n)
                for p in produced:
                    assert p.eval(n) == oracle, (m, r, n)
                    scalar_checks += 1
    elapsed = time.perf_counter() - start
    # 4800 evaluations + 2400 coefficient comparisons over the 60 cells
    assert scalar_checks == 7200
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@report(5, "centered-factor structure and leading coefficient, m <= 12, r <= 6")
def test_criterion_5_structure():
    for m in range(1, 13):
        for r in range(1, 7):
            form = faulhaber_det(m, r)
            g = form.coeffs[form.degree % 2 :: 2]
            assert len(g) == (m + 1) // 2
            assert all(c != 0 for c in g), (m, r)
            assert form.parity() == ("even" if m % 2 == 1 else "odd")
            assert all(a * b < 0 for a, b in zip(g, g[1:])), (m, r)
            assert g[-1] > 0
            # leading value forced by the degree m+r coefficient and the
            # binomial prefactor: computed from both pieces, not assumed
            s1 = s1_poly(r)
            leading = hyper_sum_poly_c(m, r).poly.coefficient(m + r)
            forced = leading / s1.coefficient(s1.degree)
            assert forced == Fraction(factorial(r + 1) * factorial(m), factorial(m + r))
            assert g[-1] == forced, (m, r)


@report(6, "identity suite over the stated grids, zero failures")
def test_criterion_6_identity_suite():
    # order lift: S(m, r+1) = ((n+r)/r) S(m, r) - (1/r) S(m+1, r)
    for m in range(0, 9):
        for r in range(1, 6):
            lhs = hyper_sum_poly(m, r + 1)
            rhs = (RatPoly([r, 1]) * hyper_sum_poly(m, r)).scale(Fraction(1, r)) - (
                hyper_sum_poly(m + 1, r).scale(Fraction(1, r))
            )
            assert lhs == rhs, ("order-lift", m, r)
    # centered recurrence and half-step intermediate
    for m in range(2, 9):
        for r in range(0, 5):
            lhs = hyper_sum_poly(m, r).scale(m + r)
            rhs = (RatPoly([Fraction(r, 2), 1]) * hyper_sum_poly(m - 1, r)).scale(m)
            for k in range(1, m - 1):
                rhs = rhs - hyper_sum_poly(k, r).scale(
                    Fraction(r) * comb(m, k) * bernoulli(m - k)
                )
            assert lhs == rhs, ("centered", m, r)
            lhs = hyper_sum_poly(m - 1, r + 1).scale(m)
            rhs = hyper_sum_poly(m, r) + hyper_sum_poly(m - 1, r).scale(Fraction(m, 2))
            for k in range(1, m - 1):
                rhs = rhs + hyper_sum_poly(k, r).scale(
                    Fraction(comb(m, k)) * bernoulli(m - k)
                )
            assert lhs == rhs, ("half-step", m, r)
    # weighted-sum identity, numeric
    for m in range(0, 6):
        for r in range(1, 5):
            for n in range(0, 13):
                left = sum(j * hyper_sum_bruteforce(m, r - 1, j) for j in range(1, n + 1))
                assert left == (n + 1) * hyper_sum_bruteforce(m, r, n) - (
                    hyper_sum_bruteforce(m, r + 1, n)
                ), ("weighted-sum", m, r, n)
    # parity-split lifts
    for e in range(1, 11):
        for r in range(0, 5):
            assert coffey_residual(e, r).is_zero(), ("lift", e, r)
    # weight polynomials vs shifted Stirling numbers
    for r in range(0, 7):
        for i in range(0, r + 1):
            for n in range(0, 9):
                assert q_poly(r, i).eval(n) == r_stirling1(r + n + 1, i + n + 1, n + 1)
    # collapsed linear coefficient, and the leading coefficient of the c route and the
    # provider
    for m in range(0, 7):
        for r in range(1, 5):
            c1 = hyper_sum_poly_c(m, r).poly.coefficient(1)
            assert c1 == coeff_c_reduced_k1(m, r), ("c1", m, r)
    for m in range(0, 9):
        for r in range(1, 6):
            leading = Fraction(factorial(m), factorial(m + r))
            assert hyper_sum_poly_c(m, r).poly.coefficient(m + r) == leading, ("c", m, r)
            assert hyper_sum_poly(m, r).coefficient(m + r) == leading, ("provider", m, r)


@report(7, "determinant equals naive cofactor expansion (random + built matrices)")
def test_criterion_7_determinant_oracle():
    def cofactor(rows: list[list[RatPoly]], frame_r: int) -> RatPoly:
        if not rows:
            return RatPoly([1], "N", frame_r)
        if len(rows) == 1:
            return rows[0][0]
        acc = None
        for j in range(len(rows)):
            sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = (rows[0][j] * cofactor(sub, frame_r)).scale(sign_pow(j))
            acc = term if acc is None else acc + term
        return acc

    rng = random.Random(477201)
    for _ in range(100):
        order = rng.randint(1, 6)
        rows = []
        for i in range(order):
            row = []
            for j in range(order):
                if j > i + 1:
                    row.append(RatPoly([], "N", 0))
                else:
                    row.append(
                        RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 2))], "N", 0)
                    )
            rows.append(tuple(row))
        h = HessenbergMatrix(order + 1, 0, tuple(rows))
        assert det(h) == cofactor([list(r) for r in h.entries], 0)
    for m in range(1, 8):
        for r in range(0, 5):
            h = build_matrix(m, r)
            assert det(h) == cofactor([list(row) for row in h.entries], r), (m, r)


@report(8, "CLI contract: verify exits 0, eval prints 36, JSON validates")
def test_criterion_8_cli_contract():
    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "hypersums.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
        )

    proc = run("verify")
    assert proc.returncode == 0 and "PASS" in proc.stdout, proc.stdout + proc.stderr
    proc = run("eval", "--m", "3", "--r", "1", "--n", "3")
    assert proc.returncode == 0 and proc.stdout.strip() == "36"
    proc = run("eval", "--m", "5", "--r", "3", "--n", "4", "--format", "json")
    blob = json.loads(proc.stdout)
    assert (blob["m"], blob["r"], blob["n"]) == (5, 3, 4)
    assert check_rational_blob(blob["value"]) == hyper_sum_bruteforce(5, 3, 4)
    proc = run("poly", "--m", "6", "--r", "7", "--var", "N", "--format", "json")
    # G(6, 7) of criterion 1, whose leading coefficient is 2/429
    assert check_poly_blob(json.loads(proc.stdout)["poly"]) == faulhaber_det(6, 7)
    proc = run("verify", "--max-m", "2", "--max-r", "1", "--max-n", "2", "--format", "json")
    blob = json.loads(proc.stdout)
    assert (proc.returncode, blob["status"], blob["failures"]) == (0, "pass", [])
