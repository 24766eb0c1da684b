"""The three workloads: seeded job pools, the calls each job times, and the
exact check of each job's output.

A job's `run` is the only part that is timed; it calls clustrop through the
module attribute (`polytopes.hull`, not a local name) so the traced run sees
every call.  `check` raises CheckFailed on a wrong output and `summary` gives
the canonical text that goes into the outputs digest.  A spent search budget
(None, or status "cap_exhausted") and a PreconditionError are outcomes that
the summary records, not failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from clustrop import cli, jsonio, mutation, polytopes, tropical
from clustrop.linalg import dot

import gen


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    summary: Callable[[object], str]


def _pts(points) -> list[list[str]]:
    return [[str(x) for x in p] for p in points]


# ---------------------------------------------------------------------------
# mutation-search

MUTATION_CYCLES = 14
BFS_SMALL_CAP = 2000  # 3 mutable labels: finite classes of 10 to 84 matrices
BFS_LARGE_CAP = 500  # 5 mutable labels: the cap ends almost every search
BFS_ENTRY_CAP = 10**6  # large enough that the node cap, not entry growth, ends a search
SMALL_BEAM = (500, 2, 6)  # budget, target range: usually found within a few layers
LARGE_BEAM = (2500, 8, 30)  # usually spends its budget
# job kind -> the GLS seed its restrictions come from.  One GLS seed per kind
# keeps the cost of each kind, and so the latency mix, the same for every
# benchmark seed; the benchmark seed picks only the restriction.
KIND_GLS_SEED = {"bfs-3": "B3", "beam-4": "D4", "bfs-5": "A5", "beam-5": "A5"}
FT_A22_CAP = 20000
FT_A22_ENTRY_CAP = 64  # the class-bfs default
C3_KEEP = (1, 2, 3, 6, 8)
C3_TARGETS = (8, 40)
C3_BUDGET = 20000


def _class_closed(matrices) -> bool:
    members = set(matrices)
    return all(m.mutate(k) in members for m in matrices for k in m.mutable)


def bfs_job(eps, node_cap, entry_cap, kind) -> Job:
    def run():
        return mutation.mutation_class_bfs(eps, node_cap, entry_cap)

    def check(res):
        if res.status == "finite":
            require(res.class_size == len(res.matrices), "finite class size differs from its matrix list")
            require(eps in set(res.matrices), "finite class misses its start matrix")
            require(_class_closed(res.matrices), "finite class is not closed under mutation")
        elif res.status == "entry_exceeded":
            require(res.trace.verify(), "entry_exceeded trace does not replay")
            require(res.trace.result.max_abs_entry() > entry_cap, "entry_exceeded trace stays within the cap")
        else:
            require(res.status == "cap_exhausted", f"unknown status {res.status!r}")
            require(res.class_size == node_cap + 1, "cap_exhausted with a class size other than cap + 1")

    def summary(res):
        seq = list(res.trace.seq) if res.trace is not None else None
        rows = [list(m.rows) for m in res.matrices]
        return json.dumps([res.status, res.class_size, seq, rows])

    return Job(kind, run, check, summary)


def beam_job(eps, target, budget, kind) -> Job:
    def run():
        return mutation.large_entry_search(eps, target, budget=budget)

    def check(wit):
        if wit is None:
            return
        require(wit.trace.initial == eps, "witness trace starts elsewhere")
        require(wit.trace.verify(), "witness trace does not replay")
        require(wit.value >= target, "witness value below target")
        require(wit.s in eps.frozen and wit.r not in eps.frozen, "witness entry is not mutable x frozen")
        require(-wit.trace.result.entry(wit.r, wit.s) == wit.value, "witness value is not the matrix entry")

    def summary(wit):
        if wit is None:
            return "null"
        return json.dumps([list(wit.trace.seq), wit.r, wit.s, wit.value])

    return Job(kind, run, check, summary)


def mutation_search_pool(seed: int) -> list[Job]:
    """Per cycle, on seeded restrictions of the GLS seeds in KIND_GLS_SEED:
    two class BFS with 3 mutable labels, one small beam search with 4, four
    capped class BFS with 5 and three large beam searches with 5.  The shares
    put the median among the capped BFS and the p90 among the large beam
    searches, whose costs are each nearly uniform."""
    rng = random.Random(seed)
    seeds = gen.gls_seed_matrices()

    def restriction(kind, n_mut, n_frozen):
        return gen.gls_restriction(rng, seeds[KIND_GLS_SEED[kind]], n_mut, n_frozen)

    pool: list[Job] = []
    for _ in range(MUTATION_CYCLES):
        for _ in range(2):
            pool.append(bfs_job(restriction("bfs-3", 3, rng.randint(1, 2)), BFS_SMALL_CAP, BFS_ENTRY_CAP, "bfs-3"))
        budget, lo, hi = SMALL_BEAM
        pool.append(beam_job(restriction("beam-4", 4, rng.randint(1, 2)), rng.randint(lo, hi), budget, "beam-4"))
        for _ in range(4):
            pool.append(bfs_job(restriction("bfs-5", 5, 1), BFS_LARGE_CAP, BFS_ENTRY_CAP, "bfs-5"))
        budget, lo, hi = LARGE_BEAM
        for _ in range(3):
            pool.append(beam_job(restriction("beam-5", 5, rng.randint(1, 2)), rng.randint(lo, hi), budget, "beam-5"))
    return pool


def named_jobs(workload: str) -> list[Job]:
    """The ROADMAP's fixed-input jobs: ft_a22 class BFS at cap 20000 and the
    C3 restriction at targets 8 and 40.  Each takes seconds, so the traced
    run alone carries them; in the timed pool a single one would outweigh
    dozens of seeded jobs and its run-to-run swing would set jobs_per_s."""
    if workload != "mutation-search":
        return []
    c3 = gen.gls_seed_matrices()["C3"].restrict(C3_KEEP)
    jobs = [beam_job(c3, target, C3_BUDGET, f"c3-target-{target}") for target in C3_TARGETS]
    ft = jsonio.matrix_from_obj(gen.fixture("ft_a22.json")["matrix"])
    jobs.append(bfs_job(ft, FT_A22_CAP, FT_A22_ENTRY_CAP, "ft_a22-bfs"))
    return jobs


# ---------------------------------------------------------------------------
# polytope-duality


def qgf_identity_holds(P, cert) -> bool:
    """<u0, n> - beta == size on every facet <u, n> >= beta of P."""
    return all(dot(cert.center, f.normal) + f.offset == cert.size for f in P.facets)


def _check_lattice(P, pts, q):
    require(pts == sorted(set(pts)), f"q={q} lattice points not sorted and distinct")
    for p in pts:
        require(all((x * q).denominator == 1 for x in p), f"point {p} is off the (1/{q}) lattice")
        require(P.contains(p), f"lattice point {p} lies outside the polytope")


def duality_job(points, dim, kind) -> Job:
    def run():
        P = polytopes.hull(points, dim)
        D = polytopes.polar_dual(P)
        DD = polytopes.polar_dual(D)
        cert, msg = polytopes.qgf_solve(P)
        return P, D, DD, cert, msg, polytopes.lattice_points(P, 1), polytopes.lattice_points(P, 2)

    def check(out):
        P, D, DD, cert, msg, L1, L2 = out
        require(DD == P, "polar_dual(polar_dual(P)) != P")
        require(all(P.contains(v) for v in points), "an input point lies outside its hull")
        if cert is not None:
            require(cert.size > 0, "QGF size is not positive")
            require(qgf_identity_holds(P, cert), "QGF identity <u0,n> - beta == size fails on a facet")
        _check_lattice(P, L1, 1)
        _check_lattice(P, L2, 2)
        integral = [p for p in L2 if all(x.denominator == 1 for x in p)]
        require(integral == L1, "q=1 points differ from the integral q=2 points")

    def summary(out):
        P, D, DD, cert, msg, L1, L2 = out
        qgf = [_pts([cert.center])[0], cert.size] if cert is not None else msg
        return json.dumps([_pts(P.vertices), len(P.facets), _pts(D.vertices), qgf, len(L1), _pts(L2)])

    return Job(kind, run, check, summary)


DUALITY_CYCLES = 10
# dimension -> (jobs per cycle, box half-width in half-units, extra points).
# With the one QGF polytope a cycle holds ten jobs, so one pass gives the 100
# latency samples a run needs.  The 3- and 4-dimensional jobs are cheap and
# put the median among the 4-dimensional ones.  The tail
# (p90) holds two 5-dimensional jobs whose wide box makes the bounding-box scan
# of lattice_points outweigh the double description, and one 6-dimensional job
# where the double description's adjacency loop does the most work.
DUALITY_STRATA = {3: (2, 4, 6), 4: (4, 2, 3), 5: (2, 2, 3), 6: (1, 1, 1)}


def polytope_duality_pool(seed: int) -> list[Job]:
    """Per cycle: the DUALITY_STRATA point clouds, plus one 3-dimensional QGF
    polytope so that qgf_solve certifies and the QGF identity is checked."""
    rng = random.Random(seed)
    pool = []
    for _ in range(DUALITY_CYCLES):
        P, _nu = gen.qgf_polytope(rng, 3, max_size=2)
        pool.append(duality_job(list(P.vertices), 3, "dual-qgf-3"))
        for dim, (count, extent, extra) in DUALITY_STRATA.items():
            for _ in range(count):
                pts = gen.interior_origin_points(rng, dim, extent, extra)
                pool.append(duality_job(pts, dim, f"dual-{dim}"))
    return pool


# ---------------------------------------------------------------------------
# tropical-certify


TROPICAL_CYCLES = 20
# Fixed per cycle, so the seed does not move the mix.  A 2-dimensional check
# costs about as little as a trop-mutate call and a 3-dimensional one about as
# much as a certify-distinct call; with three of the latter the median falls
# among the 3-dimensional checks, not on the edge between cheap and dear jobs.
PRESERVE_DIMS = (2, 3, 3, 3)


def preservation_job(P, nu, eps, k) -> Job:
    def run():
        try:
            return tropical.qgf_preservation_check(eps, k, P)
        except tropical.PreconditionError as exc:
            return exc.which

    def check(rep):
        if isinstance(rep, str):
            require(rep in ("qgf", "center_fixed", "convex_image", "mutated_qgf"), f"unknown precondition {rep}")
            return
        require(rep.initial.size == nu == rep.mutated.size, "QGF size not preserved")
        require(rep.mutated.center == tropical.trop_mutate_point(eps, k, rep.initial.center), "center not mapped")
        require(qgf_identity_holds(P, rep.initial), "QGF identity fails before mutation")
        require(qgf_identity_holds(rep.image, rep.mutated), "QGF identity fails after mutation")

    def summary(rep):
        if isinstance(rep, str):
            return rep
        return json.dumps([rep.mutated.size, _pts([rep.mutated.center])[0], _pts(rep.image.vertices)])

    return Job(f"preserve-{P.ambient_dim}", run, check, summary)


def cli_job(argv, kind, check_stdout) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(out):
        try:
            check_stdout(*out)
        except (ValueError, KeyError, TypeError) as exc:  # stdout is not the expected JSON
            raise CheckFailed(f"malformed {kind} output: {type(exc).__name__}: {exc}") from None

    def summary(out):
        return json.dumps(list(out))

    return Job(kind, run, check, summary)


def _check_certificate(expected):
    def check(rc, text):
        require(rc == 0, f"certify-distinct exited {rc}")
        obj = json.loads(text)
        got = {
            "entries": [st["entry"] for st in obj["stages"]],
            "lower_bounds": [st["lower_bound"] for st in obj["stages"]],
            "segment_counts": [st["segment_count"] for st in obj["stages"]],
            "dual_counts": [st["dual_count"] for st in obj["stages"]],
            "q": obj["q"],
            "center": obj["center"],
            "size": obj["size"],
            "all_valid": all(st["valid"] for st in obj["stages"]),
            "strictly_increasing": obj["counts_strictly_increasing"],
            "pairwise_distinct": obj["pairwise_distinct"],
        }
        for key, want in expected.items():
            require(got[key] == want, f"certificate field {key}: {got[key]} != {want}")

    return check


def _check_trop_image(eps, k, P):
    """The CLI image must be the hull of the mapped slice vertices: the map is
    linear on each side of the wall u_k = 0."""
    ki = eps.col_index(k)
    wall = polytopes.halfspace([1 if i == ki else 0 for i in range(P.ambient_dim)], 0)
    pieces = polytopes.slice_polytope(P, wall)

    def image(piece):
        return [tropical.trop_mutate_point(eps, k, v) for v in piece.vertices]

    def check(rc, text):
        require(rc in (0, 2), f"trop-mutate exited {rc}")
        obj = json.loads(text)
        if obj["convex"]:
            require(rc == 0, f"convex trop-mutate exited {rc}")
            want = polytopes.hull(image(pieces.plus) + image(pieces.minus), P.ambient_dim)
            require(obj["polytope"] == jsonio.polytope_to_obj(want), "image differs from the mapped slices")
        else:
            require(rc == 2, f"non-convex trop-mutate exited {rc}")
            for key, piece in (("plus_image", pieces.plus), ("minus_image", pieces.minus)):
                want = polytopes.hull_any(image(piece), P.ambient_dim)
                require(obj[key] == jsonio.polytope_to_obj(want), f"{key} differs from the mapped slice")

    return check


def tropical_certify_pool(seed: int, workdir: str) -> list[Job]:
    """Per cycle: four criterion-7h preservation checks on seeded QGF
    polytopes (dimensions PRESERVE_DIMS) with seeded admissible matrices, one
    certify-distinct and one trop-mutate through cli.main on family_2stage."""
    rng = random.Random(seed)
    fx = gen.fixture("family_2stage.json")
    fam = fx["family"]
    paths = {}
    for name, obj in (("family", fam), ("matrix", fam["matrix"]), ("polytope", fam["polytope"])):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    eps0 = jsonio.matrix_from_obj(fam["matrix"])
    P0 = jsonio.polytope_from_obj(fam["polytope"])
    pool = []
    for c in range(TROPICAL_CYCLES):
        for dim in PRESERVE_DIMS:
            P, nu = gen.qgf_polytope(rng, dim)
            eps = gen.admissible_matrix(rng, dim)
            pool.append(preservation_job(P, nu, eps, rng.choice(eps.mutable)))
        pool.append(cli_job(["certify-distinct", "--family", paths["family"]], "cli-certify",
                            _check_certificate(fx["expected"])))
        k = eps0.mutable[c % len(eps0.mutable)]
        argv = ["trop-mutate", "--in", paths["polytope"], "--matrix", paths["matrix"], "--k", str(k)]
        pool.append(cli_job(argv, "cli-trop-mutate", _check_trop_image(eps0, k, P0)))
    return pool


WORKLOADS = ("mutation-search", "polytope-duality", "tropical-certify")


def build_pool(workload: str, seed: int, workdir: str) -> list[Job]:
    if workload == "mutation-search":
        return mutation_search_pool(seed)
    if workload == "polytope-duality":
        return polytope_duality_pool(seed)
    if workload == "tropical-certify":
        return tropical_certify_pool(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
