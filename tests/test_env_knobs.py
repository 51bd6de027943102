"""ROADMAP's "Environment knobs" tables list exactly the ``REPRO_*``
variables the code reads, so neither side can rot."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _documented() -> set[str]:
    """Variable names in the first column of the knob tables."""
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("\n## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M))


def _read_in_code() -> set[str]:
    """Names used as a string literal in ``src/`` or ``benchmarks/``:
    an ``os.environ`` key or the constant one is read through."""
    names = set()
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and KNOB.fullmatch(node.value))
    return names


def test_knob_tables_match_the_code():
    documented, read = _documented(), _read_in_code()
    assert documented, "no knob tables found in ROADMAP.md"
    assert sorted(read - documented) == [], "read but not documented"
    assert sorted(documented - read) == [], "documented but never read"
