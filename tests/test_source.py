"""Source-level checks on the koblitz package."""

import ast
from pathlib import Path

import koblitz

SOURCES = sorted(Path(koblitz.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert, so invariants must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
