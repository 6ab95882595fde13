"""Syntax-tree guards on the package source: no floating point, one memo, one lock.

A true division ``/`` between two ints gives a float in Python, so one stray
``/`` in integer kernel code would silently turn an exact value inexact.
The source is walked as a syntax tree: any ``/`` or ``/=``, float literal or
use of the name ``float`` fails the test; the timing field
``VerifyReport.wall_time`` holds a ``time.perf_counter`` difference and
needs none of them.  The memo and lock guards are described at their tests below.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hypersums

SOURCE = Path(hypersums.__file__).parent


def float_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{path.name}:{node.lineno}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{path.name}:{node.lineno}: the name float")
    return found


def test_source_has_no_floats():
    files = sorted(SOURCE.glob("*.py"))
    assert {p.name for p in files} >= {"polyring.py", "hessenberg.py", "hypersum.py"}
    assert [use for path in files for use in float_uses(path)] == []


def test_guard_catches_each_kind(tmp_path):
    bad = tmp_path / "kernel.py"
    bad.write_text(
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a / b + 0.5 + float(b)\n"
        "class VerifyReport:\n"
        "    wall_time: float = 0.0\n"
    )
    assert sorted(float_uses(bad)) == [
        "kernel.py:2: true division",
        "kernel.py:3: float literal 0.5",
        "kernel.py:3: the name float",
        "kernel.py:3: true division",
        "kernel.py:5: float literal 0.0",
        "kernel.py:5: the name float",
    ]


# -- memo guard ------------------------------------------------------------------------
#
# ``exactnum.memo`` is the one way to memoise: it registers each cache with
# ``clear_derived_caches``, the flush a change of the Bernoulli table relies
# on.  A bare ``lru_cache`` elsewhere would make a memo that misses it.


def lru_cache_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == "lru_cache")
            or (isinstance(node, ast.Attribute) and node.attr == "lru_cache")
            or (isinstance(node, ast.alias) and node.name == "lru_cache")
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_lru_cache_is_named_only_in_exactnum():
    others = sorted(p for p in SOURCE.glob("*.py") if p.name != "exactnum.py")
    assert lru_cache_uses(SOURCE / "exactnum.py") != []
    assert [use for path in others for use in lru_cache_uses(path)] == []


def test_memo_guard_catches_each_spelling(tmp_path):
    bad = tmp_path / "routes.py"
    bad.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(m):\n"
        "    return m\n"
        "g = lru_cache(f)\n"
    )
    assert sorted(lru_cache_uses(bad)) == ["routes.py:2", "routes.py:3", "routes.py:6"]


# -- lock guard ------------------------------------------------------------------------
#
# ``exactnum.GrownTable`` is the one table that grows under a lock: in index order,
# each step once, an entry already grown read without it.  A lock made anywhere else
# is a second copy of that policy.  The one other lock is no table's: the module lock
# of ``cli``, under which the calls of ``main`` in progress are counted, so that the
# process-wide int-to-text limit is raised by the first and restored by the last.


def lock_sites(path: Path) -> list[tuple[str, str | None, int]]:
    """(file, enclosing class or None, line) of each call of Lock or RLock."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("Lock", "RLock"):
                    found.append((path.name, owner, child.lineno))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_a_lock_is_made_only_in_the_grown_table():
    sites = [site for path in sorted(SOURCE.glob("*.py")) for site in lock_sites(path)]
    assert [(name, owner) for name, owner, _ in sites] == [
        ("cli.py", None),
        ("exactnum.py", "GrownTable"),
    ]


def test_lock_guard_catches_each_spelling(tmp_path):
    bad = tmp_path / "tables.py"
    bad.write_text(
        "import threading\n"
        "from threading import Lock, RLock\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "def rows():\n"
        "    return [], Lock()\n"
        "LOCK = RLock()\n"
    )
    assert lock_sites(bad) == [
        ("tables.py", "Table", 5),
        ("tables.py", None, 7),
        ("tables.py", None, 8),
    ]
