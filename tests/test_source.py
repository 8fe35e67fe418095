"""Source-level checks on the koblitz package."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy's import alone was most of the CLI's start-up time
    code = "import sys, koblitz.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(koblitz.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
