"""Run the committed fixture files against the implementation.

Each fixture is one JSON file under fixtures/ with a `kind` selecting the
comparison; a corrupted file is reported as its own named failure without
affecting the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import glsseed, jsonio
from .mutation import ft_infinite_witness
from .polytopes import qgf_solve
from .rootsys import parse_cartan_type
from .tropical import distinguish_certificate


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    detail: str


def _matrix_diff(actual, expected_obj) -> str:
    exp = jsonio.matrix_from_obj(expected_obj)
    if actual == exp:
        return ""
    lines = []
    if actual.cols != exp.cols:
        lines.append(f"cols {actual.cols} != {exp.cols}")
    if actual.frozen != exp.frozen:
        lines.append(f"frozen {sorted(actual.frozen)} != {sorted(exp.frozen)}")
    if actual.d != exp.d:
        lines.append(f"d {actual.d} != {exp.d}")
    for r in exp.mutable:
        if r in actual.mutable and actual.row(r) != exp.row(r):
            lines.append(f"row {r}: {actual.row(r)} != {exp.row(r)}")
    return "; ".join(lines) or "matrices differ"


def _run_matrix(fx):
    """gls_matrix, restrict and mutate fixtures: the seed matrix of the word,
    restricted to fx["keep"] and mutated along fx["seq"] where given."""
    eps = glsseed.gls_exchange_matrix(parse_cartan_type(fx["type"]), tuple(fx["word"]))
    if "keep" in fx:
        eps = eps.restrict(fx["keep"])
    return _matrix_diff(eps.mutate_seq(fx.get("seq", ())), fx["expected"])


def _run_gls_quiver(fx):
    C = parse_cartan_type(fx["type"])
    q = glsseed.gls_quiver(C, tuple(fx["word"]))
    exp = fx["expected"]
    problems = []
    if sorted(q.frozen) != exp["frozen"]:
        problems.append(f"frozen {sorted(q.frozen)} != {exp['frozen']}")
    expected_arrows = sorted(tuple(a) for a in exp["arrows"])
    if list(q.arrows) != expected_arrows:
        missing = set(expected_arrows) - set(q.arrows)
        extra = set(q.arrows) - set(expected_arrows)
        problems.append(f"arrows differ: missing {sorted(missing)}, extra {sorted(extra)}")
    return "; ".join(problems)


def _run_qgf_pair(fx):
    problems = []
    pos = jsonio.polytope_from_obj(fx["positive"])
    cert, msg = qgf_solve(pos)
    if cert is None:
        problems.append(f"positive example not certified: {msg}")
    else:
        want_center = tuple(jsonio.rat_from_str(x) for x in fx["positive"]["center"])
        if cert.center != want_center or cert.size != fx["positive"]["size"]:
            problems.append(
                f"certificate ({cert.center}, {cert.size}) != ({want_center}, {fx['positive']['size']})"
            )
    neg = jsonio.polytope_from_obj(fx["negative"])
    ncert, _ = qgf_solve(neg)
    if ncert is not None:
        problems.append("negative example unexpectedly certified")
    return "; ".join(problems)


def _run_ft_witness(fx):
    eps = jsonio.matrix_from_obj(fx["matrix"])
    wit = ft_infinite_witness(eps)
    exp = fx["expected"]
    problems = []
    if (wit is not None) != exp["found"]:
        return f"witness found={wit is not None}, expected {exp['found']}"
    if wit is not None:
        if not wit.trace.verify():
            problems.append("witness trace does not replay")
        if not wit.condition():
            problems.append("witness fails the double-arrow condition")
        if exp.get("b1_positive") and not wit.b1 > 0:
            problems.append(f"b1 = {wit.b1} not positive")
        if exp.get("b2_zero") and wit.b2 != 0:
            problems.append(f"b2 = {wit.b2} not zero")
    return "; ".join(problems)


def _run_family(fx):
    fam = jsonio.family_from_obj(fx["family"])
    cert = distinguish_certificate(fam)
    exp = fx["expected"]
    problems = []
    got = {
        "entries": [st.entry for st in cert.stages],
        "lower_bounds": [st.lower_bound for st in cert.stages],
        "segment_counts": [st.segment_count for st in cert.stages],
        "dual_counts": [st.dual_count for st in cert.stages],
        "q": cert.q,
        "center": [jsonio.rat_to_str(x) for x in cert.center] if cert.center else None,
        "size": cert.size,
        "all_valid": cert.all_stages_valid,
        "strictly_increasing": cert.counts_strictly_increasing,
        "pairwise_distinct": cert.pairwise_distinct,
    }
    for key, want in exp.items():
        if got.get(key) != want:
            problems.append(f"{key}: {got.get(key)} != {want}")
    return "; ".join(problems)


_RUNNERS = {
    "gls_matrix": _run_matrix,
    "restrict": _run_matrix,
    "mutate": _run_matrix,
    "gls_quiver": _run_gls_quiver,
    "qgf_pair": _run_qgf_pair,
    "ft_witness": _run_ft_witness,
    "family": _run_family,
}


def fixture_names() -> list[str]:
    root = resources.files(__package__) / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def run_fixture_file(name: str) -> FixtureResult:
    root = resources.files(__package__) / "fixtures"
    try:
        fx = json.loads((root / name).read_text())
        kind = fx["kind"]
        runner = _RUNNERS[kind]
    except (json.JSONDecodeError, KeyError, OSError) as exc:
        return FixtureResult(name, False, f"unreadable fixture: {exc}")
    try:
        detail = runner(fx)
    except Exception as exc:  # a broken fixture must not sink the others
        return FixtureResult(fx.get("name", name), False, f"error: {exc}")
    return FixtureResult(fx.get("name", name), detail == "", detail)


def fixture_suite() -> list[FixtureResult]:
    return [run_fixture_file(name) for name in fixture_names()]
