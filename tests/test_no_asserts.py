"""Library code holds no assert statement, because python -O strips them.

The same holds for tests/oracles.py: pytest rewrites the asserts of test
modules only, so an assert in a helper they import would vanish too.  And
the package runs no brute-force referee: those stay in the test suite, apart
from the two in alignment that the benchmark's record script imports.  Every
error type of the package is one some caller in it acts on.
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


def test_only_alignment_refers_to_a_referee():
    hits = []
    for module in sorted(SRC.rglob("*.py")):
        if module.name == "alignment.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            for field in ("id", "attr", "name", "asname", "arg"):
                name = getattr(node, field, None)
                if isinstance(name, str) and (name.endswith("_brute") or name == "OracleMismatch"):
                    hits.append(f"{module.name}:{getattr(node, 'lineno', '?')} {name}")
    assert hits == [], "brute-force referees outside alignment: " + ", ".join(hits)


def _name(node) -> str:
    """The name a class base or an except clause refers to, module prefix dropped."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_error_type_is_caught_by_name():
    """A KGraphError subclass that no except clause of the package names is a
    message no caller tells apart: KGraphError itself carries it."""
    bases, caught = {}, set()
    for module in sorted(SRC.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, kinds))
    errors = {"KGraphError"}
    while True:
        grown = errors | {c for c, b in bases.items() if b & errors}
        if grown == errors:
            break
        errors = grown
    assert {"ParseError", "SeparationSearchExhausted"} <= errors
    uncaught = sorted(errors - caught - {"KGraphError"})
    assert uncaught == [], "error types no except clause names: " + ", ".join(uncaught)
