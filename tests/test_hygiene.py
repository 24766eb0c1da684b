"""Source checks: no runtime `assert` statements in the package.

`python -O` strips `assert`, so invariants the package checks at run time
raise AssertionError explicitly instead."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "clustrop").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
