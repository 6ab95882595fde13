"""Every demo script runs to completion and prints the bytes it printed when its
sha256 below was taken."""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# by the number that starts each demo's name
DIGESTS = {
    "01": "41ef3f4209aa76471f85bb80c77da1e01d26141255fc1f0566f5f3a9e1be8da7",
    "02": "eb07554c9f034268b09c6e9a6e6a8ce5f48dc31b4e5e0b76ba2b927c96d06ab4",
    "03": "07b4c1225d288bad70e934636c2710db74d93d34f80f314cd27feb4e2d036d92",
    "04": "b60c44e4a1a075f03f6a63c55216891277de93dedde3e32e0e18335aa2af3e0b",
}


def test_demos_found():
    # a demo added without its digest fails here
    assert [p.name[:2] for p in DEMOS] == sorted(DIGESTS)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[path.name[:2]]
