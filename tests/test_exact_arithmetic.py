"""No floating point in the package source.

A true division ``/`` between two ints gives a float in Python, so one stray
``/`` in integer kernel code would silently turn an exact value inexact.
The source is walked as a syntax tree: any ``/`` or ``/=``, float literal or
use of the name ``float`` fails the test.  The one allowed use is the timing
field ``VerifyReport.wall_time`` in ``verify.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hypersums

SOURCE = Path(hypersums.__file__).parent

# (file, class, field) whose annotated assignment may hold a float
ALLOWED_FIELDS = {("verify.py", "VerifyReport", "wall_time")}


def _allowed_nodes(path: Path, tree: ast.Module) -> set[int]:
    """ids of every node inside an allowed field's annotated assignment."""
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and (path.name, cls.name, stmt.target.id) in ALLOWED_FIELDS
            ):
                allowed.update(id(node) for node in ast.walk(stmt))
    return allowed


def float_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _allowed_nodes(path, tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
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
