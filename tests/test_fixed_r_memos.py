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
from hypersums import cli, exactnum, hessenberg, hypersum, newton, verify
from hypersums.hypersum import ROUTES, faulhaber_det
from hypersums.newton import hyper_sum_newton, newton_factor
from hypersums.polyring import RatPoly
from conftest import read_in_threads, spy, table_fault

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


@pytest.mark.parametrize(
    "minor",
    [
        lambda: hessenberg.leading_minor(57, 29),
        lambda: hessenberg.det(hessenberg.build_matrix(58, 29)),
    ],
    ids=["table", "det"],
)
def test_the_minors_multiply_no_polynomials(monkeypatch, minor):
    exactnum.clear_derived_caches()
    products = spy(monkeypatch, RatPoly, "__mul__")
    assert minor().degree == 57
    assert products == []


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


# per table of r = 3: the module that reads the Bernoulli rows, the table, its entry 6
# read, and that entry built another way
RAISING = {
    "minor": (
        hessenberg,
        hessenberg._minor_table,
        lambda: hessenberg.leading_minor(6, 3),
        lambda: hessenberg.det(hessenberg.build_matrix(7, 3)),
    ),
    "lemma": (
        hypersum,
        hypersum._lemma_table,
        lambda: hypersum.lemma_recurrence_family(7, 3)[6],
        lambda: hypersum.hyper_sum_det(7, 3),
    ),
}


@pytest.mark.parametrize("name", RAISING)
def test_a_step_that_raises_leaves_no_entry_in_the_table(monkeypatch, name):
    module, table, read, built = RAISING[name]
    expected = built()
    exactnum.clear_derived_caches()
    real_row, calls = module.bernoulli_row, []

    def row_failing_once(n: int):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("no row")
        return real_row(n)

    monkeypatch.setattr(module, "bernoulli_row", row_failing_once)
    with pytest.raises(RuntimeError):
        read()
    # entries 0, 1 and 2: the step of entry 3 raised, and the next read runs it again
    assert len(table(3)) == 3
    assert read() == expected
    assert calls == [2, 3, 4, 4, 5, 6, 7]


@pytest.mark.parametrize("m_max", [1, 2, 7, 20])
def test_the_lemma_family_grows_its_table_to_m_max_in_the_call(monkeypatch, m_max):
    exactnum.clear_derived_caches()
    rows = spy(monkeypatch, hypersum, "bernoulli_row")
    hypersum.lemma_recurrence_family(m_max, 3)
    # each step G(2) ... G(m_max) has run, so a step that fails raises in the call
    assert rows == [(n,) for n in range(2, m_max + 1)]
    assert len(hypersum._lemma_table(3)) == m_max


def test_reading_one_member_of_a_cold_lemma_family_converts_one_factor(monkeypatch):
    expected = hypersum.hyper_sum_det(30, 7)
    exactnum.clear_derived_caches()
    expansions = spy(monkeypatch, newton, "expand_factor")
    family = hypersum.lemma_recurrence_family(30, 7)
    assert expansions == []
    assert family[29] == expected
    assert expansions == [(faulhaber_det(30, 7),)]


def test_the_lemma_and_det_routes_expand_their_equal_factor_once(monkeypatch):
    exactnum.clear_derived_caches()
    normalised = spy(monkeypatch, newton, "det_to_factor")
    assert ROUTES["lemma"](9, 4) == ROUTES["det"](9, 4)
    info = newton.expand_factor.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the centered-factor check reads the det route's factor again
    assert faulhaber_det(9, 4) == hypersum._lemma_table(4)[8]
    assert len(normalised) == 1


def test_the_lemma_route_multiplies_no_polynomial_longer_than_its_factor(monkeypatch):
    # the widest factor is G(57, 29), with 57 numerators; the same recurrence run
    # on S itself would multiply S(57, 29), with 87
    exactnum.clear_derived_caches()
    calls = spy(monkeypatch, hypersum, "sum_of_products")
    assert ROUTES["lemma"](58, 29).poly.degree == 87
    factors = [f for pairs, *_ in calls for pair in pairs for f in pair]
    assert max(len(f.numerators) for f in factors if f.__class__ is RatPoly) == 57


@pytest.mark.parametrize(
    "j, value",
    [
        (2, Fraction(1, 7)),
        (3, Fraction(1, 5)),
        (4, Fraction(1, 31)),
        (5, Fraction(1, 11)),
        (6, Fraction(1, 43)),
        (7, Fraction(1, 13)),
    ],
    ids=["B2", "B3", "B4", "B5", "B6", "B7"],
)
def test_the_lemma_factor_reads_each_bernoulli_number_and_the_newton_factor_none(j, value):
    exactnum.clear_derived_caches()
    lemma = {(m, r): hypersum._lemma_table(r)[m - 1] for m, r in CELLS}
    newton = {cell: newton_factor(*cell) for cell in CELLS}
    assert all(lemma[cell] == faulhaber_det(*cell) == newton[cell] for cell in CELLS)
    # B_j enters the centered recurrence and the matrix at m = j + 1, with the weight r;
    # zero Bernoulli numbers are skipped by value, so the odd ones are read too
    with table_fault(j, value):
        for m, r in CELLS:
            read = m > j and r >= 1
            assert (hypersum._lemma_table(r)[m - 1] != lemma[m, r]) == read, (m, r)
            assert (faulhaber_det(m, r) != lemma[m, r]) == read, (m, r)
            assert newton_factor(m, r) == newton[m, r], (m, r)


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
    assert {
        "hypersums.hypersum.hyper_sum_poly_q",
        "hypersums.hypersum.faulhaber_det",
        "hypersums.newton.expand_factor",
    } <= set(memos)
    assert [name for name, fn in memos.items() if not fn.cache_info().currsize] == []
    exactnum.clear_derived_caches()
    assert [name for name, fn in memos.items() if fn.cache_info().currsize] == []


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
