"""Source checks: no runtime `assert` statements in the package, no float
literal or `float(` call in it, no call of `HalfSpace.value` in it, one
vertex format (caller points are cleared to integer rows only in `hull` and
`hull_any`, and rows become Fractions only in the Fraction-returning
`vertices`, `vertices_from_facets` and `crossing_points`), one facet format
(a half-space stores its integer row, and only `halfspace` normalises caller
data to one), a kernel that reads facet rows and not the `normal` view, one
cut of a polytope by a hyperplane (`_cut`), no `fractions` import in
`mutation`, one call into `re` (the numeral rule in `rootsys`), modules that
parse with the grammar of the oldest supported Python, `cli` writes its
output only from `main`, no unused package import that the benchmark tracer
does not wrap, every name in `clustrop.__all__` resolves, every module
attribute the tracer wraps still exists, and the benchmark's self-checks
pass.

`python -O` strips `assert`, so invariants the package checks at run time
raise AssertionError explicitly instead."""

import ast
import dataclasses
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import clustrop
from clustrop import polytopes

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "clustrop").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_floating_point(path):
    """The computational core is exact: no float literal and no `float(`
    call.  Naming `float` to refuse one (`isinstance(x, float)`) is allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
    ]
    assert not lines, f"{path.name} has a float literal or float( call at lines {lines}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_value_calls(path):
    """Sign tests in the package read a half-space's integer row against
    integer homogeneous coordinates; `HalfSpace.value` stays the public
    Fraction accessor, called only from outside the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "value"
    ]
    assert not lines, f"{path.name} calls .value( at lines {lines}"


def _scopes(match, paths=SRC):
    """Each place in the given modules with a node that `match` accepts, as
    module:scope, the scope being the enclosing function or the class
    attribute an assignment binds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif isinstance(node, ast.ClassDef) and isinstance(child, ast.Assign):
                inner = f"{scope}.{child.targets[0].id}"
            if match(child):
                found.add(f"{path.stem}:{scope}")
            visit(child, inner)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def _callers(name):
    """Each place in the package that calls `name`, as module:scope."""
    return _scopes(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name)


def test_one_vertex_format():
    """A polytope stores its vertices only as integer homogeneous rows: caller
    points are cleared to rows only where they enter (`hull`, `hull_any`),
    and rows become Fraction points only in the public Fraction reads (the
    `vertices` view, `vertices_from_facets`, `crossing_points`), so no
    builder round-trips through Fraction."""
    assert _callers("_homog_all") == {"polytopes:hull", "polytopes:hull_any"}
    assert _callers("_fractions") == {
        "polytopes:RationalPolytope.vertices", "polytopes:vertices_from_facets", "polytopes:crossing_points"
    }


def test_one_facet_format():
    """A half-space stores only its primitive integer row.  Caller data is
    normalised to a row only where it enters (`halfspace`, the one caller of
    the normalising `HalfSpace` constructor), and every kernel builder hands
    its rows to the row constructor `_facet` as they are."""
    assert [f.name for f in dataclasses.fields(polytopes.HalfSpace)] == ["row"]
    assert _callers("HalfSpace") == {"polytopes:halfspace"}
    assert _callers("_facet") == {
        "polytopes:facets_from_points", "polytopes:_hull_any", "polytopes:_dual", "polytopes:slice_polytope",
        "polytopes:RationalPolytope.translate", "polytopes:RationalPolytope.scale",
        "tropical:trop_mutate_polytope", "tropical:trop_mutate_polytope.build",
    }


def test_kernel_reads_facet_rows():
    """`polytopes` and `tropical` order, test and map facets on their stored
    rows.  The `normal` view is read only by `HalfSpace`'s Fraction accessors
    (`__repr__`, `value`) and by the public `QGFCertificate.dual_vertices`
    view; the constructor alone orders facets, so no kernel code calls
    `.sort(`; `qgf_solve` checks its identity on the eliminated rows, not on a
    re-cleared center (`_homog`); and the certificate's cap reads the dual's
    rows, not the Fraction `bounding_box`.  (`cli` reads its own
    `args.normal`, so the scan covers these two modules only.)"""
    kernel = [p for p in SRC if p.stem in ("polytopes", "tropical")]

    def reads(attr):
        return _scopes(lambda node: isinstance(node, ast.Attribute) and node.attr == attr, kernel)

    assert reads("normal") == {
        "polytopes:HalfSpace.__repr__", "polytopes:HalfSpace.value", "polytopes:QGFCertificate.dual_vertices"
    }
    assert reads("sort") == set() and reads("bounding_box") == set()
    assert "polytopes:qgf_solve" not in _callers("_homog")


def test_mutation_imports_no_fractions():
    """The mutation layer reads integer data only (exchange-matrix entries
    and d), so it stays integer-only: no import from `fractions`."""
    tree = ast.parse((ROOT / "src" / "clustrop" / "mutation.py").read_text())
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert not lines, f"mutation.py imports from fractions at lines {lines}"


def test_one_cut():
    """One function cuts a polytope by a hyperplane's integer row (`_cut`):
    the slice, the crossings and a built tropical image read it, and no
    cut step is shared out.  A refused tropical image reads a side's facets
    off the rows at that side's vertices by its own rule (`_held`), which
    takes no tight sets."""
    assert _callers("_cut") == {
        "polytopes:crossing_points", "polytopes:slice_polytope", "tropical:trop_mutate_polytope.cut"
    }
    assert _callers("_held") == {"tropical:trop_mutate_polytope"}
    assert list(inspect.signature(polytopes._held).parameters) == ["P", "ix"]
    assert not hasattr(polytopes, "_sides") and not hasattr(polytopes, "_crossings")


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_parses_at_the_oldest_supported_python(path):
    """`pyproject.toml` declares the oldest Python the package supports; every
    module parses with that version's grammar."""
    oldest = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    ast.parse(path.read_text(), filename=str(path), feature_version=tuple(map(int, oldest.groups())))


def test_one_mutation_kernel():
    """Every mutation runs through the one kernel `_mutated_rows`, called only
    by `mutate` (which validates what it builds) and by the beam search (which
    keeps row tuples): no search mutates rows its own way."""
    assert _callers("_mutated_rows") == {"mutation:ExtendedExchangeMatrix.mutate", "mutation:large_entry_search"}


def test_one_numeral_rule():
    """What an integer or rational string looks like is one compiled pattern,
    `rootsys._NUMERAL`, read by the CLI's integer flags and the JSON reader:
    only `rootsys` imports `re`, and the package makes one call into it."""
    importers, calls = [], []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and any(a.name == "re" for a in node.names) or (
                isinstance(node, ast.ImportFrom) and node.module == "re"
            ):
                importers.append(path.name)
            if isinstance(node, ast.Call) and getattr(getattr(node.func, "value", None), "id", None) == "re":
                calls.append(f"{path.name}: re.{node.func.attr}")
    assert importers == ["rootsys.py"], importers
    assert calls == ["rootsys.py: re.compile"], calls


def test_cli_writes_output_only_from_main():
    """Each `cmd_*` handler returns its result; `main` alone calls `_emit`,
    once, so every subcommand shares one output path and its --out rules."""
    tree = ast.parse((ROOT / "src" / "clustrop" / "cli.py").read_text())
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
    ]
    assert callers == ["main"], f"cli.py calls _emit from {callers}"


def _spans():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return spans


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_unused_package_imports_are_bench_bindings(path):
    """A name a module imports from the package but never reads (and does
    not list in `__all__`) is kept only as a binding the tracer wraps there."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    wrapped = {
        name
        for bindings, _count in _spans().BINDINGS.values()
        for owner, name in bindings
        if isinstance(owner, types.ModuleType) and owner.__name__ == f"clustrop.{path.stem}"
    }
    assert imported - used <= wrapped, f"{path.name} imports {sorted(imported - used - wrapped)} unused"


def test_all_names_resolve():
    """A removed export must leave no dangling entry in `__all__`."""
    missing = [name for name in clustrop.__all__ if not hasattr(clustrop, name)]
    assert not missing, f"clustrop.__all__ names {missing}, which the package does not define"
    assert len(set(clustrop.__all__)) == len(clustrop.__all__)


def test_bench_tracer_installs_and_uninstalls():
    """bench/spans.py wraps package functions by module attribute name, so a
    refactor that drops one of those names breaks the traced benchmark run;
    install raises KeyError for it here."""
    spans = _spans()
    hull = polytopes.hull
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert polytopes.hull is not hull and polytopes.hull.__wrapped__ is hull
    finally:
        tracer.uninstall()
    assert polytopes.hull is hull


def test_bench_selftest_passes():
    """The benchmark's own checks (traced counts and digests repeat, each
    workload calls the layers it measures) run against the package here, so
    a change to `mutation` or `polytopes` that breaks them fails pytest."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
