"""Run the committed fixture files against the implementation.

Each fixture is one JSON file under fixtures/ with a `kind` selecting its
runner.  Every runner returns (got, want), two dicts keyed like the fixture's
`expected`, and one rule decides every fixture: it passes iff both dicts have
the same keys and the same values, and its detail lists `key: got != want`
for each key that differs, in sorted key order (a key missing on one side
reads None there).  A corrupted file is reported as its own named failure
without affecting the rest.
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


def _matrix_keys(m) -> dict:
    rows = {f"row {r}": list(m.row(r)) for r in m.mutable}
    return {"cols": list(m.cols), "frozen": sorted(m.frozen), "d": list(m.d), **rows}


def _run_matrix(fx):
    """gls_matrix, restrict and mutate fixtures: the seed matrix of the word,
    restricted to fx["keep"] and mutated along fx["seq"] where given."""
    eps = glsseed.gls_exchange_matrix(parse_cartan_type(fx["type"]), tuple(fx["word"]))
    if "keep" in fx:
        eps = eps.restrict(fx["keep"])
    return _matrix_keys(eps.mutate_seq(fx.get("seq", ()))), _matrix_keys(jsonio.matrix_from_obj(fx["expected"]))


def _run_gls_quiver(fx):
    q = glsseed.gls_quiver(parse_cartan_type(fx["type"]), tuple(fx["word"]))
    exp = fx["expected"]
    got = {"frozen": sorted(q.frozen), **{f"arrow {i}->{j}": m for i, j, m in q.arrows}}
    return got, {"frozen": exp["frozen"], **{f"arrow {i}->{j}": m for i, j, m in exp["arrows"]}}


def _run_qgf_pair(fx):
    """The positive polytope is certified with the given center and size; the
    negative one is refused."""
    pos = fx["positive"]
    cert, msg = qgf_solve(jsonio.polytope_from_obj(pos))
    ncert, _ = qgf_solve(jsonio.polytope_from_obj(fx["negative"]))
    got = {"positive": msg if cert is None else "certified", "negative": "refused" if ncert is None else "certified"}
    if cert is not None:
        got |= {"center": [jsonio.rat_to_str(x) for x in cert.center], "size": cert.size}
    center = [jsonio.rat_to_str(jsonio.rat_from_str(x)) for x in pos["center"]]
    return got, {"positive": "certified", "negative": "refused", "center": center, "size": pos["size"]}


def _run_ft_witness(fx):
    """A found witness must replay and satisfy the double-arrow condition; the
    b1_positive and b2_zero flags are checked where the fixture gives them."""
    wit = ft_infinite_witness(jsonio.matrix_from_obj(fx["matrix"]))
    got, want = {"found": wit is not None}, dict(fx["expected"])
    if wit is not None:
        flags = {"b1_positive": wit.b1 > 0, "b2_zero": wit.b2 == 0}
        got |= {"replays": wit.trace.verify(), "condition": wit.condition()}
        got |= {k: v for k, v in flags.items() if k in want}
        want |= {"replays": True, "condition": True}
    return got, want


def _run_family(fx):
    cert = distinguish_certificate(jsonio.family_from_obj(fx["family"]))
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
    return got, fx["expected"]


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
        fx = json.loads((root / name).read_text(encoding="utf-8"))
        runner = _RUNNERS[fx["kind"]]
    except (ValueError, LookupError, TypeError, OSError) as exc:  # bad JSON or UTF-8, no such kind
        return FixtureResult(name, False, f"unreadable fixture: {exc}")
    name = fx.get("name", name)
    try:
        got, want = runner(fx)
    except Exception as exc:  # a broken fixture must not sink the others
        return FixtureResult(name, False, f"error: {exc}")
    differ = [k for k in sorted(got.keys() | want.keys()) if k not in got or k not in want or got[k] != want[k]]
    return FixtureResult(name, not differ, "; ".join(f"{k}: {got.get(k)} != {want.get(k)}" for k in differ))


def fixture_suite() -> list[FixtureResult]:
    return [run_fixture_file(name) for name in fixture_names()]
