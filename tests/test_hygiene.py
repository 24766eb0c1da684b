"""Source checks: no runtime `assert` statements in the package, and every
module attribute the benchmark tracer wraps still exists.

`python -O` strips `assert`, so invariants the package checks at run time
raise AssertionError explicitly instead."""

import ast
import sys
from pathlib import Path

import pytest

from clustrop import polytopes

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "clustrop").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_bench_tracer_installs_and_uninstalls():
    """bench/spans.py wraps package functions by module attribute name, so a
    refactor that drops one of those names breaks the traced benchmark run;
    install raises KeyError for it here."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    hull = polytopes.hull
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert polytopes.hull is not hull and polytopes.hull.__wrapped__ is hull
    finally:
        tracer.uninstall()
    assert polytopes.hull is hull
