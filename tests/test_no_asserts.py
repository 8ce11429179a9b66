"""Library code holds no assert statement, because python -O strips them.

The same holds for tests/oracles.py: pytest rewrites the asserts of test
modules only, so an assert in a helper they import would vanish too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgraphkit"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_no_assert_statements_in_package():
    modules = sorted(SRC.rglob("*.py")) + [ORACLES]
    assert SRC / "alignment.py" in modules
    hits = []
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        hits += [f"{module.name}:{node.lineno}"
                 for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert hits == [], "checks that vanish under python -O: " + ", ".join(hits)
