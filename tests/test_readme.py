"""The README's library tour runs as written."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 6
    assert result.failed == 0
