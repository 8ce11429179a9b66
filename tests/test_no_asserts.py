"""Library code holds no assert statement, because python -O strips them."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgraphkit"


def test_no_assert_statements_in_package():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "alignment.py" in modules
    hits = []
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        hits += [f"{module.relative_to(SRC)}:{node.lineno}"
                 for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert hits == [], "checks that vanish under python -O: " + ", ".join(hits)
