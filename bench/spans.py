"""Span tracing at the layer boundaries of clustrop, from outside the package.

Each public function is wrapped at every binding a caller uses: `polytopes`
imports `rank` from `linalg`, so `polytopes.rank` is wrapped as well as
`linalg.rank`.  Methods are wrapped on the class.  Spans live in memory as
name, start, end, parent index and job id; counts that belong to a boundary
(points in, rays out, cells scanned, bytes out) are taken there, after the
span has closed, so they add nothing to its duration.
"""

from __future__ import annotations

import gzip
import json
import math
from array import array
from collections import defaultdict
from time import perf_counter

from clustrop import cli, fixture_suite, glsseed, jsonio, linalg, mutation, polytopes, tropical

EEM = mutation.ExtendedExchangeMatrix


def _count_hull(c, args, kwargs, out):
    c["polytopes.hull.points_in"] += len(args[0])
    c["polytopes.hull.vertices_out"] += len(out.vertices)


def _count_dd(c, args, kwargs, out):
    c["polytopes.vertices_from_facets.constraints_in"] += len(args[0]) + 1
    c["polytopes.vertices_from_facets.rays_out"] += len(out)


def _count_lattice(c, args, kwargs, out):
    P = args[0]
    q = args[1] if len(args) > 1 else kwargs.get("q", 1)
    cells = 0
    if not P.is_empty:
        cells = math.prod(max(0, math.floor(hi * q) - math.ceil(lo * q) + 1) for lo, hi in P.bounding_box())
    c["polytopes.lattice_points.cells_scanned"] += cells
    c["polytopes.lattice_points.points_out"] += len(out)


def _count_bfs(c, args, kwargs, out):
    c["mutation.class_bfs.nodes"] += out.class_size
    # every child is either new, the one that broke the entry cap, or a dedup hit
    c["mutation.class_bfs.new_children"] += out.class_size - 1 + (out.status == "entry_exceeded")


def _count_beam(c, args, kwargs, out):
    c["mutation.large_entry_search.found"] += out is not None


def _count_trop(c, args, kwargs, out):
    c["tropical.trop_mutate_polytope.convex"] += out.convex


def _count_preserve(c, args, kwargs, out):
    c["tropical.qgf_preservation_check.accepted"] += 1


def _count_dumps(c, args, kwargs, out):
    c["jsonio.bytes_out"] += len(out.encode())


COUNTS = (
    "polytopes.hull.points_in", "polytopes.hull.vertices_out",
    "polytopes.vertices_from_facets.constraints_in", "polytopes.vertices_from_facets.rays_out",
    "polytopes.lattice_points.cells_scanned", "polytopes.lattice_points.points_out",
    "mutation.class_bfs.nodes", "mutation.class_bfs.new_children", "mutation.large_entry_search.found",
    "tropical.trop_mutate_polytope.convex", "tropical.qgf_preservation_check.accepted", "jsonio.bytes_out",
)

# span name -> (bindings that callers use, boundary counter)
BINDINGS = {
    "mutation.mutate": ([(EEM, "mutate")], None),
    "mutation.construct": ([(EEM, "__init__")], None),
    "mutation.class_bfs": ([(mutation, "mutation_class_bfs"), (cli, "mutation_class_bfs")], _count_bfs),
    "mutation.large_entry_search": ([(mutation, "large_entry_search"), (cli, "large_entry_search")], _count_beam),
    "glsseed.gls_exchange_matrix": ([(glsseed, "gls_exchange_matrix"), (cli, "gls_exchange_matrix")], None),
    "linalg.rref": ([(linalg, "rref"), (polytopes, "rref")], None),
    "linalg.rank": ([(linalg, "rank"), (polytopes, "rank")], None),
    "linalg.solve": ([(linalg, "solve"), (polytopes, "solve")], None),
    "linalg.mat_inverse": ([(linalg, "mat_inverse"), (polytopes, "mat_inverse"), (tropical, "mat_inverse")], None),
    "polytopes.vertices_from_facets": ([(polytopes, "vertices_from_facets")], _count_dd),
    "polytopes.hull": ([(polytopes, "hull"), (tropical, "hull"), (jsonio, "hull"), (cli, "hull")], _count_hull),
    "polytopes.polar_dual": ([(polytopes, "polar_dual"), (cli, "polar_dual")], None),
    "polytopes.qgf_solve": (
        [(polytopes, "qgf_solve"), (tropical, "qgf_solve"), (cli, "qgf_solve"), (fixture_suite, "qgf_solve")],
        None,
    ),
    "polytopes.crossing_points": ([(polytopes, "crossing_points"), (tropical, "crossing_points")], None),
    "polytopes.lattice_points": (
        [(polytopes, "lattice_points"), (tropical, "lattice_points"), (cli, "lattice_points")],
        _count_lattice,
    ),
    "tropical.trop_mutate_polytope": ([(tropical, "trop_mutate_polytope"), (cli, "trop_mutate_polytope")], _count_trop),
    "tropical.qgf_preservation_check": ([(tropical, "qgf_preservation_check")], _count_preserve),
    "tropical.distinguish_certificate": (
        [(tropical, "distinguish_certificate"), (cli, "distinguish_certificate"),
         (fixture_suite, "distinguish_certificate")],
        None,
    ),
    "cli.main": ([(cli, "main")], None),
    "jsonio.dumps": ([(jsonio, "dumps")], _count_dumps),
    "jsonio.matrix_from_obj": ([(jsonio, "matrix_from_obj")], None),
    "jsonio.matrix_to_obj": ([(jsonio, "matrix_to_obj")], None),
    "jsonio.polytope_from_obj": ([(jsonio, "polytope_from_obj")], None),
    "jsonio.polytope_to_obj": ([(jsonio, "polytope_to_obj")], None),
    "jsonio.family_from_obj": ([(jsonio, "family_from_obj")], None),
    "jsonio.certificate_to_obj": ([(jsonio, "certificate_to_obj")], None),
}


class Tracer:
    """Wraps the bindings while installed; records spans only inside `job`.

    Spans are stored column-wise (name, start, end, parent index, job id) in
    arrays that the garbage collector does not traverse, so a traced pass
    with many spans does not slow the collections that run inside jobs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (bindings, counter) in BINDINGS.items():
            for owner, attr in bindings:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, counter))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def reset(self):
        for column in (self.names, self.starts, self.ends, self.parents, self.jobs):
            del column[:]
        self.counts.clear()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span opened by the benchmark itself."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def job(self, job_id, fn):
        if self._job is not None:
            raise RuntimeError("jobs do not nest")
        self._job = job_id
        try:
            return fn()
        finally:
            self._job = None

    def _wrap(self, name, fn, counter):
        names, starts, ends, parents, jobs = self.names, self.starts, self.ends, self.parents, self.jobs
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self._job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """Per-name calls, busy time (outermost spans of the name, or of the
        layer for jsonio) and self time, plus the boundary counts."""
        names, parents = self.names, self.parents
        dur = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        child_s = [0.0] * len(names)
        mutate_children = defaultdict(int)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_s[parent] += dur[i]
                if names[i] == "mutation.mutate":
                    mutate_children[names[parent]] += 1
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += dur[i] - child_s[i]
            in_jsonio = name.startswith("jsonio.")
            outer_name, outer_layer = True, in_jsonio
            p = parents[i]
            while p >= 0 and (outer_name or outer_layer):
                outer_name &= names[p] != name
                outer_layer &= not names[p].startswith("jsonio.")
                p = parents[p]
            if outer_name:
                busy[name] += dur[i]
            if outer_layer:
                busy["jsonio"] += dur[i]
        out: dict[str, float] = {}
        for name in BINDINGS.keys() | {"fixture_suite"}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        out["jsonio.busy_s"] = busy["jsonio"]
        out.update({k: self.counts[k] for k in COUNTS})
        out["mutation.class_bfs.children"] = mutate_children["mutation.class_bfs"]
        out["mutation.large_entry_search.expansions"] = mutate_children["mutation.large_entry_search"]
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i], self.jobs[i]]) + "\n")


def ratio(num, den) -> float:
    return num / den if den else 0.0
