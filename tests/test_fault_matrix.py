"""The fault matrix behind ``verify.GRID_CHECKS`` and the CLI.

Every fault below fails at least one check of the default grid, so no family
that is not run would have been the only one to see it, and each family that
is run is the only one to see one fault.  Under every fault, each request the
CLI serves prints the bytes it prints without the fault, or exits 3 with empty
stdout.

The half-step and centered recurrences are not run.  The half-step defect is
H = m L - Odd: m times the parity-lift defect at m - 1, minus odd-index
Bernoulli terms that are zero unless a Bernoulli row is wrong, and then route
equality fails.  The centered defect is m r times the order-lift defect at
m - 1 minus r H, so through H it reaches the families that are run.  The last
tests pin both identities.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction

import pytest

from hypersums import exactnum, hessenberg, hypersum, newton, polyring
from hypersums.exactnum import bernoulli, bernoulli_row
from hypersums.polyring import RatPoly, monomial, sum_of_products
from hypersums.verify import DEFAULT_GRID, GRID_CHECKS, run_all
from conftest import run_main, table_fault


def value_table_off_by_one(m: int, r_max: int, n_max: int, real=exactnum.value_table):
    """The recursion table with the one entry S(3, 2, 4) one too large."""
    for r, row in enumerate(real(m, r_max, n_max)):
        if (m, r) == (3, 2):
            row = [v + 1 if n == 4 else v for n, v in enumerate(row)]
        yield row


def minor_step_with_a_sign_flipped(k_min: int, real=hessenberg._minor):
    """The one minor step of ``det`` and the minor tables, with the signed superdiagonal
    product of column 1 negated in each row k >= k_min: h[1,2] is negated there, and it
    is a factor of that product alone."""

    def wrong(minors: list, row, den: int, sup) -> RatPoly:
        if len(minors) >= k_min:
            sup = [-sup[0], *sup[1:]]
        return real(minors, row, den, sup)

    return wrong


def normaliser_negated(d: RatPoly, m: int, real=newton.det_to_factor) -> RatPoly:
    """The one determinant-to-G normalisation of the det route and ``det``, negated."""
    return real(d, m).scale(-1)


def changed_at(fn, cell: tuple[int, ...], change):
    """``fn(*args)``, with ``change`` applied to its value at ``args == cell`` alone."""

    def wrong(*args: int):
        value = fn(*args)
        return change(value) if args == cell else value

    return wrong


FAULTS = (
    [("bernoulli", j) for j in range(2, 17)]  # B_j + 1/3
    + [("stirling", m) for m in range(3, 8)]
    + [("newton-weight", 4), ("value-table", 2)]
    + [("route", name) for name in hypersum.ROUTES]  # the sign flipped at (3, 2)
    + [("provider", cell) for cell in ((1, 1), (4, 0), (5, 3), (10, 6), (0, 3))]  # doubled there
    + [("r-stirling", (5, 2)), ("bernoulli-row", (6, 3)), ("stirling-weight", (4, 1))]
    + [("spurious-term", "q"), ("minor-step", 3), ("normaliser", "negated")]
    + [("newton-factor", "no-parity")]
)
# the faults that one family alone catches, with the checks that fail under each
ALONE = {
    ("bernoulli", 16): {"parity-lift[even]"},
    ("newton-weight", 4): {"centered-factor[det=newton]"},
    ("value-table", 2): {f"eval-vs-recursion[{name}]" for name in hypersum.ROUTES},
    # only the order lift reads the provider at m = 0
    ("provider", (0, 3)): {"order-lift-recurrence"},
    # only the weights check reads the r-Stirling tables of r >= 1
    ("r-stirling", (5, 2)): {"weights-vs-r-stirling"},
    # and only the centered-factor check reads the Newton factor
    ("newton-factor", "no-parity"): {"centered-factor[det=newton]"},
}
# a check that fails under a fault at the cell given, with a part of its detail: B_3 read
# nonzero in row 6 alone is an odd term of the half-step defect H(6, r), which the parity
# lift drops by index, but it makes power_sum_poly(5) and so q wrong at (5, 1), where
# lemma reads rows <= 5 only.  A term n^6 added to q at (3, 2) leaves its n^5 coefficient
# right, and the degree says so.  The minor step is shared by det and the minor tables,
# so the Newton factor is what catches it; h[4,1] is the first nonzero entry it reaches.
# The normalisation of a determinant to G is shared by the det route and ``det``, so
# again the Newton factor is what catches it there.  The q and c routes and q_poly read
# one Stirling weight table, and c is q at -x with its signs restored, so a wrong weight
# leaves them equal: the r-Stirling numbers and the other routes catch it.
FAILS_AT = {
    ("bernoulli-row", (6, 3)): ("route-equality[q=lemma]", {"m": 5, "r": 1}, ""),
    ("stirling-weight", (4, 1)): ("weights-vs-r-stirling", {"r": 3, "i": 1}, "n=0"),
    ("spurious-term", "q"): ("leading-coefficient", {"m": 3, "r": 2}, "degree 6"),
    ("minor-step", 3): ("centered-factor[det=newton]", {"m": 5, "r": 1}, ""),
    ("normaliser", "negated"): ("centered-factor[det=newton]", {"m": 4, "r": 2}, ""),
}


def inject(kind: str, where, request, monkeypatch):
    """Put one fault of ``FAULTS`` in place; the context manager returned undoes it on exit."""
    if kind == "bernoulli":
        return table_fault(where, bernoulli(where) + Fraction(1, 3))
    if kind in ("stirling", "r-stirling"):  # entry 2 of row m of the r-Stirling table + 1
        m, r = (where, 0) if kind == "stirling" else where
        row = exactnum._stirling_row(m, r)  # the table of r is made on its first read
        wrong = row[:2] + (row[2] + 1,) + row[3:]
        return table_fault(m - r, wrong, lambda: exactnum._STIRLING[r])
    if kind == "bernoulli-row":  # entry k of row n raised by the row's D: C(n, k) B_(n-k) + 1
        n, k = where
        row, den = bernoulli_row(n)
        wrong = (row[:k] + (row[k] + den,) + row[k + 1 :], den)
        return table_fault(n, wrong, exactnum._bernoulli_rows)
    if kind == "newton-weight":
        request.getfixturevalue("wrong_newton_weight")
    elif kind == "value-table":
        monkeypatch.setattr(exactnum, "value_table", value_table_off_by_one)
    elif kind == "stirling-weight":  # entry 0 of row i of the weight table of r raised by 1
        r, i = where
        raised = changed_at(
            hypersum._stirling_weights,
            (r,),
            lambda rows: (*rows[:i], (rows[i][0] + 1, *rows[i][1:]), *rows[i + 1 :]),
        )
        monkeypatch.setattr(hypersum, "_stirling_weights", raised)
    elif kind == "route":
        flipped = changed_at(
            hypersum.ROUTES[where], (3, 2), lambda h: h._replace(poly=h.poly.scale(-1))
        )
        monkeypatch.setitem(hypersum.ROUTES, where, flipped)
    elif kind == "spurious-term":
        raised = changed_at(
            hypersum.ROUTES[where], (3, 2), lambda h: h._replace(poly=h.poly + monomial(6))
        )
        monkeypatch.setitem(hypersum.ROUTES, where, raised)
    elif kind == "minor-step":
        monkeypatch.setattr(hessenberg, "_minor", minor_step_with_a_sign_flipped(where))
    elif kind == "normaliser":
        monkeypatch.setattr(newton, "det_to_factor", normaliser_negated)
    elif kind == "newton-factor":
        request.getfixturevalue("newton_factor_without_parity")()
    else:
        doubled = changed_at(hypersum.hyper_sum_poly, where, lambda p: p.scale(2))
        monkeypatch.setattr(hypersum, "hyper_sum_poly", doubled)
    return nullcontext()  # monkeypatch and the fixture undo the rest


@pytest.mark.parametrize("kind, where", FAULTS, ids=[f"{k}-{w}" for k, w in FAULTS])
def test_the_default_grid_fails_under_every_fault(kind, where, request, monkeypatch):
    exactnum.clear_derived_caches()  # no value built before the fault can hide it
    try:
        with inject(kind, where, request, monkeypatch):
            report = run_all(*DEFAULT_GRID)
    finally:
        exactnum.clear_derived_caches()  # and none built under it outlives it
    assert report.failures
    if (kind, where) in ALONE:
        assert {c.name for c in report.failures} == ALONE[kind, where]
    if (kind, where) in FAILS_AT:
        name, cell, detail = FAILS_AT[kind, where]
        assert any(
            c.name == name and c.params == cell and detail in c.detail for c in report.failures
        )


def test_every_family_alone_catches_a_fault():
    # a family added without a fault that it alone catches would check a fact twice
    for family in GRID_CHECKS:
        names = {c.name for c in family(2, 2, 2)}  # read off a small grid
        assert any(failed <= names for failed in ALONE.values()), family.__name__


def test_a_wrong_shift_at_odd_r_fails_both_routes_that_expand(monkeypatch):
    # the lemma and det routes share one memoised expansion, which runs the one Taylor
    # shift: a wrong shift must fail both routes, not hide behind the memo
    real = polyring._taylor_shift

    def wrong_at_half_steps(nums, s: int, q: int):
        h, q_d = real(nums, s, q)
        if q == 2 and h:  # a shift by r/2 at odd r
            h[0] += q_d
        return h, q_d

    exactnum.clear_derived_caches()
    monkeypatch.setattr(polyring, "_taylor_shift", wrong_at_half_steps)
    try:
        report = run_all(*DEFAULT_GRID)
    finally:
        exactnum.clear_derived_caches()
    failed = {c.name for c in report.failures}
    assert {"route-equality[q=lemma]", "route-equality[q=det]"} <= failed


# -- the CLI under every fault -----------------------------------------------------


def served_requests():
    """At (3, 2), (4, 1) and (5, 2): eval by auto and each route at n = 4 and 10^12 and by
    bruteforce at n = 4, poly in each frame and format and --factored, det --at; poly
    --var n and poly --m 0, which read C(n+r, r+1) for r + 1 = 3..7; eval by q and c at
    (3, 4), which read the Stirling weight table of r = 4; one small table."""
    for m, r in ((3, 2), (4, 1), (5, 2)):
        cell = ("--m", str(m), "--r", str(r))
        for fmt in ("text", "json"):
            for n in ("4", str(10**12)):
                yield ("eval", *cell, "--n", n, "--format", fmt)
            yield ("det", *cell, "--at", "5", "--format", fmt)
        yield ("eval", *cell, "--n", "4", "--method", "bruteforce")
        for method in hypersum.ROUTES:
            for n in ("4", str(10**12)):
                yield ("eval", *cell, "--n", n, "--method", method)
        for fmt in ("text", "json", "latex"):
            for var in "nNu":
                yield ("poly", *cell, "--var", var, "--format", fmt)
            yield ("poly", *cell, "--var", "N", "--factored", "--format", fmt)
    for r in range(2, 7):
        yield ("poly", "--m", "2", "--r", str(r))
        yield ("poly", "--m", "0", "--r", str(r + 1))
    for method in ("q", "c"):
        yield ("eval", "--m", "3", "--r", "4", "--n", "4", "--method", method)
    for fmt in ("text", "json", "csv"):
        yield ("table", "--max-m", "4", "--max-r", "2", "--n", "7", "--format", fmt)


SERVED = list(served_requests())
CLEAN = "the clean bytes"


def pinned(kind: str, where, argv: tuple[str, ...]) -> str | None:
    """What ``argv`` must do under the fault where a pin fixes it: CLEAN, or exit 3 with
    the stderr line that this text starts after ``internal error: ``; None leaves it free."""
    command, m = argv[0], int(argv[argv.index("--m" if "--m" in argv else "--max-m") + 1])
    method = argv[argv.index("--method") + 1] if "--method" in argv else "auto"
    if kind == "stirling-weight":  # only the q and c routes read the weight table of r
        r = int(argv[argv.index("--r") + 1]) if "--r" in argv else None
        return "polynomial route" if method in ("q", "c") and r == where[0] else CLEAN
    if kind == "bernoulli":  # only det and the routes read a Bernoulli number, det B_2..B_(m-1)
        if command == "det" and m > where:
            return "the determinant differs from the Newton factor"
        if method in hypersum.ROUTES:
            return "polynomial route" if where == 2 else None
        return CLEAN
    if kind == "newton-weight":  # every reader of the weights of m = 4 proves them
        return "the Newton weights of m = 4 do not give n^m at n <= m" if m == where else CLEAN
    if kind == "newton-factor" and command == "poly" and m:
        return "the centered factor"
    if command == "det" and (kind == "normaliser" or kind == "minor-step" and m > 4):
        return "the determinant differs from the Newton factor"
    return None


def run_served() -> dict:
    """{argv: (exit code, stdout, stderr)} of each request of SERVED, through ``main``."""
    return {argv: run_main(argv) for argv in SERVED}


@pytest.fixture(scope="module")
def clean_runs() -> dict:
    exactnum.clear_derived_caches()
    runs = run_served()
    assert all(code == 0 and out for code, out, _ in runs.values())
    return runs


@pytest.mark.parametrize("kind, where", FAULTS, ids=[f"{k}-{w}" for k, w in FAULTS])
def test_no_served_request_prints_a_wrong_answer_under_any_fault(
    kind, where, request, monkeypatch, clean_runs
):
    exactnum.clear_derived_caches()
    try:
        with inject(kind, where, request, monkeypatch):
            runs = run_served()
    finally:
        exactnum.clear_derived_caches()
    for argv, run in runs.items():
        pin = pinned(kind, where, argv)
        if pin == CLEAN:
            assert run == clean_runs[argv], argv
        elif pin is not None or run != clean_runs[argv]:
            code, out, err = run
            assert (code, out) == (3, "") and err.count("\n") == 1, argv
            assert err.startswith(f"internal error: {pin or ''}"), argv


# -- why the half-step and centered recurrences are not run ------------------------


def tail(m: int, r: int) -> RatPoly:
    """T(m, r) = sum_{k=1}^{m-2} C(m, k) B_{m-k} S(k, r), read by both recurrences."""
    row, den = bernoulli_row(m)
    return sum_of_products(
        (((a,), den), hypersum.hyper_sum_poly(k, r)) for k, a in enumerate(row[1 : m - 1], 1)
    )


def centered_defect(m: int, r: int) -> RatPoly:
    """(m+r) S(m, r) - m (n + r/2) S(m-1, r) + r T(m, r)."""
    s = hypersum.hyper_sum_poly
    return sum_of_products(
        [(m + r, s(m, r)), (((-m * r, -2 * m), 2), s(m - 1, r)), (r, tail(m, r))]
    )


def order_lift_defect(m: int, r: int) -> RatPoly:
    """S(m, r+1) - ((n+r)/r) S(m, r) + (1/r) S(m+1, r), as ``order-lift-recurrence`` reads it."""
    s = hypersum.hyper_sum_poly
    return sum_of_products(
        [(1, s(m, r + 1)), (((-r, -1), r), s(m, r)), (Fraction(1, r), s(m + 1, r))]
    )


def half_step_defect(m: int, r: int) -> RatPoly:
    """H(m, r) = m S(m-1, r+1) - S(m, r) - (m/2) S(m-1, r) - T(m, r), the half-step defect."""
    s = hypersum.hyper_sum_poly
    return sum_of_products(
        [(m, s(m - 1, r + 1)), (-1, s(m, r)), (Fraction(-m, 2), s(m - 1, r)), (-1, tail(m, r))]
    )


def odd_terms(m: int, r: int) -> RatPoly:
    """Odd(m, r), the terms C(m, k) B_{m-k} S(k, r) of T(m, r) with m - k odd, which the
    parity lift drops by index: zero while B_3, B_5, ... read zero in row m."""
    row, den = bernoulli_row(m)
    return sum_of_products(
        (((row[k],), den), hypersum.hyper_sum_poly(k, r)) for k in range(1 + m % 2, m - 1, 2)
    )


def half_steps_from_the_lift() -> list[tuple[RatPoly, RatPoly]]:
    """(H, Odd) per cell 2 <= m <= 11, 0 <= r <= 6, after asserting
    H(m, r) = m L(m-1, r) - Odd(m, r) there, L the ``parity-lift`` defect."""
    pairs = []
    for m in range(2, 12):
        for r in range(0, 7):
            h, odd = half_step_defect(m, r), odd_terms(m, r)
            lift = hypersum.coffey_residual(m - 1, r)
            assert h == sum_of_products([(m, lift), (-1, odd)]), (m, r)
            pairs.append((h, odd))
    return pairs


@pytest.mark.parametrize(
    "corruption",
    [None, (2, Fraction(1, 7)), (3, Fraction(1, 5)), (4, Fraction(1, 31))],
    ids=["clean", "B2", "B3", "B4"],
)
def test_the_half_step_defect_is_m_times_the_parity_lift_minus_the_odd_terms(corruption):
    with table_fault(*corruption) if corruption else nullcontext():
        pairs = half_steps_from_the_lift()
    # the recurrence fails under each corruption, so a lift that vanished would break
    # the identity; the odd terms part the two only under the odd-index B_3
    assert any(not h.is_zero() for h, _ in pairs) == (corruption is not None)
    odd_parted = corruption is not None and corruption[0] == 3
    assert any(not odd.is_zero() for _, odd in pairs) == odd_parted


CELLS = [(m, r) for m in range(2, 11) for r in range(1, 7)]


def centered_defects_from_the_others() -> list[RatPoly]:
    """C(m, r) per cell, after asserting C = m r O(m-1, r) - r H(m, r) there."""
    defects = []
    for m, r in CELLS:
        c = centered_defect(m, r)
        implied = sum_of_products(
            [(m * r, order_lift_defect(m - 1, r)), (-r, half_step_defect(m, r))]
        )
        assert c == implied, (m, r)
        defects.append(c)
    return defects


@pytest.mark.parametrize(
    "corruption", [None, (2, Fraction(1, 7)), (3, Fraction(1, 5))], ids=["clean", "B2", "B3"]
)
def test_the_centered_defect_is_implied_by_the_order_lift_and_half_step_defects(corruption):
    with table_fault(*corruption) if corruption else nullcontext():
        defects = centered_defects_from_the_others()
    # the recurrence fails under each corruption, and the two families fail with it
    assert all(c.is_zero() for c in defects) == (corruption is None)
