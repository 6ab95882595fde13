"""Shared test fixtures, the fault in one entry of a shared table, the call spy, the
in-process CLI runner, the checker of the JSON schema, and the harness that reads a table
from many threads at once."""

from __future__ import annotations

import io
import sys
import threading
from collections.abc import Callable
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest

from hypersums import cli, exactnum, newton
from hypersums.exactnum import GrownTable
from hypersums.polyring import RatPoly


@contextmanager
def table_fault(k: int, entry, table: Callable[[], GrownTable] = lambda: exactnum._BERNOULLI):
    """Entry k of a shared grown table, the Bernoulli numbers unless ``table`` returns
    another, swapped for ``entry``, so that every reader reads it.

    The derived caches are flushed first, so that no value built before the fault hides
    it, and ``table()`` is read after the flush, since a table may be a memo.  The table
    is grown past k, so that no later entry is grown from the swapped one.  On exit the
    entry is put back and the caches are flushed again, also when the body raises.
    """
    exactnum.clear_derived_caches()
    grown = table()
    grown[k + 1]
    original, grown._entries[k] = grown._entries[k], entry
    try:
        yield
    finally:
        grown._entries[k] = original
        exactnum.clear_derived_caches()


def spy(monkeypatch, owner, name: str) -> list[tuple]:
    """The positional arguments of each call of ``owner.name`` from now on; the calls
    run as before, and the original is put back at the end of the test."""
    calls: list[tuple] = []
    real = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.fixture
def wrong_newton_weight(monkeypatch):
    """Make the Newton weight a(4, 2) = 2! {4 2} = 14 one too large, for every reader.

    Unproved, values at m = 4 would read 2422 for 7^4 = 2401; the proof of
    :func:`newton_weights` fails at n = 2, where the row gives 17 for 2^4.  The derived
    caches are flushed on the way in, so that no row proved before the fault hides it,
    and on the way out.
    """
    real = newton._surjection_counts

    def wrong(m: int) -> tuple[int, ...]:
        row = real(m)
        return row[:2] + (row[2] + 1,) + row[3:] if m == 4 else row

    exactnum.clear_derived_caches()
    monkeypatch.setattr(newton, "_surjection_counts", wrong)
    yield
    exactnum.clear_derived_caches()


@pytest.fixture
def newton_factor_without_parity(monkeypatch):
    """Call to make :func:`newton_factor` lose the parity of m - 1, the paper's theorem:
    the even-m factor G(m, r) gains a constant term, and the odd-m one the term N."""
    real = newton.newton_factor

    def wrong(m: int, r: int) -> RatPoly:
        return real(m, r) + RatPoly([1 - m % 2, m % 2], "N", r)

    def patch() -> None:
        monkeypatch.setattr(newton, "newton_factor", wrong)

    return patch


def run_main(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one request served by ``cli.main`` in this process;
    the code of a ``SystemExit``, which argparse and every refusal raise, included."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def check_rational_blob(blob) -> Fraction:
    """The value of a documented JSON rational ["num", "den"]: two canonical decimal
    strings, in lowest terms over a positive denominator."""
    assert isinstance(blob, list) and len(blob) == 2
    num, den = map(int, blob)
    assert blob == [str(num), str(den)]  # strings, with no sign on den and no padding
    assert den >= 1 and gcd(num, den) == 1
    return Fraction(num, den)


def check_poly_blob(blob) -> RatPoly:
    """The polynomial of a documented JSON polynomial {"var", "r", "coeffs"}: a frame that
    ``RatPoly`` admits, and canonical rationals ascending with no trailing zero."""
    assert set(blob) == {"var", "r", "coeffs"}
    coeffs = [check_rational_blob(c) for c in blob["coeffs"]]
    assert coeffs[-1:] != [0]
    return RatPoly(coeffs, blob["var"], blob["r"])


def read_in_threads(read, orders: list[list]) -> list[dict]:
    """{key: read(key) for key in order} for each order, the orders read at once from
    one thread each, with a short switch interval so that the threads interleave."""
    results: list = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def work(i: int) -> None:
        start.wait()
        results[i] = {key: read(key) for key in orders[i]}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results
