"""Rules that hold for the package source as a whole."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dynmatch"


def test_no_assert_statements():
    # invariants raise typed errors: python -O strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
