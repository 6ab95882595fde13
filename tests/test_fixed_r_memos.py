"""The grown tables per r behind the lemma route and the centered factors.

Both chains in m at fixed r, the centered recurrence and the leading principal
minors of the Hessenberg matrix, are one ``GrownTable`` per r behind a memo of
r.  Their values must not depend on the order in which the cells are asked
for, on other threads asking at the same time, or on a memo that outlived a
change of the Bernoulli table.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import hypersums
from hypersums import cli, exactnum, hessenberg, hypersum, polyring, verify
from hypersums.hypersum import ROUTES, faulhaber_det
from hypersums.newton import hyper_sum_newton, newton_factor
from hypersums.polyring import RatPoly
from conftest import read_in_threads

CELLS = [(m, r) for r in range(9) for m in range(1, 26)]


def build(cells) -> dict:
    """(lemma S(m, r), determinant G(m, r), centered-recurrence G(m, r)) per cell."""
    return {
        (m, r): (ROUTES["lemma"](m, r).poly, faulhaber_det(m, r), hypersum._lemma_table(r)[m - 1])
        for m, r in cells
    }


def test_memos_give_the_same_polynomials_in_any_order():
    exactnum.clear_derived_caches()
    ascending = build(CELLS)
    exactnum.clear_derived_caches()
    descending = build(reversed(CELLS))
    cold = {}
    for cell in CELLS:
        exactnum.clear_derived_caches()
        cold.update(build([cell]))
    assert ascending == descending == cold
    for m, r in CELLS + [(m, r) for r in (0, 1, 29, 31) for m in range(59, 62)]:
        assert hessenberg.leading_minor(m - 1, r) == hessenberg.det(hessenberg.build_matrix(m, r))


def test_leading_minors_multiply_no_polynomials(monkeypatch):
    exactnum.clear_derived_caches()
    calls = []
    real_mul = RatPoly.__mul__
    monkeypatch.setattr(RatPoly, "__mul__", lambda a, b: calls.append(1) or real_mul(a, b))
    assert hessenberg.leading_minor(57, 29).degree == 57
    assert calls == []


def test_the_memos_refuse_their_own_domain_and_keep_no_entry():
    exactnum.clear_derived_caches()
    refusals = [
        (hessenberg.leading_minor, (-1, 3)),
        (hessenberg.leading_minor, (2, -1)),
        (hypersum.lemma_recurrence_family, (3, -1)),
        (hypersum.lemma_recurrence_family, (0, 3)),
    ]
    for fn, args in refusals:
        with pytest.raises(ValueError):
            fn(*args)
    for memo in (hessenberg._minor_table, hypersum._lemma_table):
        assert memo.cache_info().currsize == 0, memo


def test_a_step_that_raises_leaves_no_entry_in_the_minor_table(monkeypatch):
    expected = hessenberg.det(hessenberg.build_matrix(7, 3))
    exactnum.clear_derived_caches()
    real_row, calls = hessenberg.bernoulli_row, []

    def row_failing_once(n: int):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("no row")
        return real_row(n)

    monkeypatch.setattr(hessenberg, "bernoulli_row", row_failing_once)
    with pytest.raises(RuntimeError):
        hessenberg.leading_minor(6, 3)
    # p_0, p_1 and p_2: the step of p_3 raised, and the next read runs it again
    assert len(hessenberg._minor_table(3)) == 3
    assert hessenberg.leading_minor(6, 3) == expected
    assert calls == [2, 3, 4, 4, 5, 6, 7]


def test_a_step_that_raises_leaves_no_entry_in_the_lemma_table(monkeypatch):
    expected = hypersum.hyper_sum_det(7, 3)
    exactnum.clear_derived_caches()
    real_row, calls = hypersum.bernoulli_row, []

    def row_failing_once(n: int):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("no row")
        return real_row(n)

    monkeypatch.setattr(hypersum, "bernoulli_row", row_failing_once)
    with pytest.raises(RuntimeError):
        hypersum.lemma_recurrence_family(7, 3)
    # G(1), G(2) and G(3): the step of G(4) raised, and the next read runs it again
    assert len(hypersum._lemma_table(3)) == 3
    assert hypersum.lemma_recurrence_family(7, 3)[6] == expected
    assert calls == [2, 3, 4, 4, 5, 6, 7]


@pytest.mark.parametrize("m_max", [1, 2, 7])
def test_the_lemma_family_grows_its_table_to_m_max_in_the_call(monkeypatch, m_max):
    exactnum.clear_derived_caches()
    real_row, calls = hypersum.bernoulli_row, []
    monkeypatch.setattr(hypersum, "bernoulli_row", lambda n: calls.append(n) or real_row(n))
    hypersum.lemma_recurrence_family(m_max, 3)
    # each step G(2) ... G(m_max) has run, so a step that fails raises in the call
    assert calls == list(range(2, m_max + 1)) and len(hypersum._lemma_table(3)) == m_max


def test_a_sweep_over_m_pays_each_lemma_step_once(monkeypatch):
    exactnum.clear_derived_caches()
    real_row, calls = hypersum.bernoulli_row, []
    monkeypatch.setattr(hypersum, "bernoulli_row", lambda n: calls.append(n) or real_row(n))
    for m in [*range(1, 21), *range(20, 0, -1)]:
        assert ROUTES["lemma"](m, 5) == hypersum.hyper_sum_det(m, 5), m
    # one Bernoulli row per step: G(2, 5) ... G(20, 5), each once
    assert calls == list(range(2, 21))
    exactnum.clear_derived_caches()
    ROUTES["lemma"](20, 5)
    assert calls == [*range(2, 21), *range(2, 21)]


def test_reading_one_member_of_a_cold_lemma_family_converts_one_factor(monkeypatch):
    expected = hypersum.hyper_sum_det(30, 7)
    exactnum.clear_derived_caches()
    calls = []
    real_to_n_frame = polyring.to_n_frame
    monkeypatch.setattr(polyring, "to_n_frame", lambda g: calls.append(g) or real_to_n_frame(g))
    family = hypersum.lemma_recurrence_family(30, 7)
    assert calls == []
    assert family[29] == expected
    assert calls == [faulhaber_det(30, 7)]


def test_the_lemma_route_multiplies_no_polynomial_longer_than_its_factor(monkeypatch):
    # the widest factor is G(57, 29), with 57 numerators; the same recurrence run
    # on S itself would multiply S(57, 29), with 87
    exactnum.clear_derived_caches()
    widths = []
    real_sum_of_products = hypersum.sum_of_products

    def spy(pairs, *frame):
        pairs = list(pairs)
        widths.extend(len(f.numerators) for pair in pairs for f in pair if f.__class__ is RatPoly)
        return real_sum_of_products(pairs, *frame)

    monkeypatch.setattr(hypersum, "sum_of_products", spy)
    assert ROUTES["lemma"](58, 29).poly.degree == 87
    assert max(widths) == 57


@pytest.mark.parametrize(
    "j, value",
    [(2, Fraction(1, 7)), (3, Fraction(1, 5)), (4, Fraction(1, 31))],
    ids=["B2", "B3", "B4"],
)
def test_the_lemma_factor_reads_each_bernoulli_number_and_the_newton_factor_none(
    corrupt_bernoulli, j, value
):
    exactnum.clear_derived_caches()
    lemma = {(m, r): hypersum._lemma_table(r)[m - 1] for m, r in CELLS}
    newton = {cell: newton_factor(*cell) for cell in CELLS}
    assert all(lemma[cell] == faulhaber_det(*cell) == newton[cell] for cell in CELLS)
    # B_j enters the centered recurrence at m = j + 1, with the weight r; zero Bernoulli
    # numbers are skipped by value, so the odd B_3 is read too
    with corrupt_bernoulli(j, value):
        for m, r in CELLS:
            changed = hypersum._lemma_table(r)[m - 1] != lemma[m, r]
            assert changed == (m > j and r >= 1), (m, r)
            assert newton_factor(m, r) == newton[m, r], (m, r)


def test_det_of_the_built_matrix_multiplies_no_polynomials(monkeypatch):
    exactnum.clear_derived_caches()
    matrix = hessenberg.build_matrix(58, 29)
    calls = []
    real_mul = RatPoly.__mul__
    monkeypatch.setattr(RatPoly, "__mul__", lambda a, b: calls.append(1) or real_mul(a, b))
    determinant = hessenberg.det(matrix)
    assert calls == []
    assert determinant == hessenberg.leading_minor(57, 29)


def test_one_row_function_feeds_both_determinants(monkeypatch):
    before = hessenberg.det(hessenberg.build_matrix(5, 2))
    real_row = hessenberg._row

    def row_with_h31_raised(i: int, r: int):
        row, den = real_row(i, r)
        # h[3, 1] = r C(4, 1) B_3 = 0 reads 1
        return ((row[0] + den, *row[1:]) if i == 3 else row), den

    def row_with_h23_raised(i: int, r: int):
        row, den = real_row(i, r)
        # the superdiagonal h[2, 3] = r + 3 reads r + 4
        return ((*row[:-1], row[-1] + 1) if i == 2 else row), den

    for changed_row in (row_with_h31_raised, row_with_h23_raised):
        monkeypatch.setattr(hessenberg, "_row", changed_row)
        exactnum.clear_derived_caches()
        try:
            changed = hessenberg.det(hessenberg.build_matrix(5, 2))
            minor = hessenberg.leading_minor(4, 2)
        finally:
            exactnum.clear_derived_caches()
        assert changed != before, changed_row.__name__
        assert minor == changed, changed_row.__name__


def test_the_flush_empties_every_memo_of_the_package():
    verify.run_all(4, 2, 4)
    hyper_sum_newton(3, 2, 9)
    cli.build_parser()
    modules = [
        importlib.import_module(f"hypersums.{info.name}")
        for info in pkgutil.iter_modules(hypersums.__path__)
    ]
    memos = {
        f"{module.__name__}.{name}": fn
        for module in modules
        for name, fn in vars(module).items()
        if callable(getattr(fn, "cache_info", None))
    }
    # every memo registered with the flush is one of them
    assert {id(clear.__self__) for clear in exactnum._DERIVED_CACHES} == set(map(id, memos.values()))
    assert {"hypersums.hypersum.hyper_sum_poly_q"} <= set(memos)
    assert [name for name, fn in memos.items() if not fn.cache_info().currsize] == []
    exactnum.clear_derived_caches()
    assert [name for name, fn in memos.items() if fn.cache_info().currsize] == []


def test_a_changed_bernoulli_number_reaches_every_filled_memo(corrupt_bernoulli):
    good = build(CELLS)
    with corrupt_bernoulli(4, Fraction(1, 31)):
        bad = build(CELLS)
    assert build(CELLS) == good
    for (m, r), polys in good.items():
        if m >= 5 and r >= 1:  # B_4 enters at m = 5, with the weight r
            assert all(p != q for p, q in zip(polys, bad[m, r])), (m, r)
        else:
            assert polys == bad[m, r], (m, r)


@pytest.mark.parametrize(
    "table", [hypersum._lemma_table, hessenberg._minor_table], ids=["lemma", "minor"]
)
def test_threads_reading_a_cold_table_of_r_match_one_thread(table):
    exactnum.clear_derived_caches()
    one_thread = table(3)
    expected = {k: one_thread[k] for k in range(40)}
    exactnum.clear_derived_caches()  # the threads read a cold table, index by index
    orders = [list(range(40)), list(range(40))[::-1]]
    orders += [random.Random(i).sample(range(40), 40) for i in range(6)]
    assert all(result == expected for result in read_in_threads(table(3).__getitem__, orders))
