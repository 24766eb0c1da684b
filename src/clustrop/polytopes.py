"""Exact rational polytopes: hulls, facets, duals, lattice points, QGF certificates.

The kernel is integer: the double description, incidence tests and lattice
enumeration clear denominators once and run on int, and Fraction stays only
at the API boundary (vertices, offsets, centers).  There is no floating point
anywhere in this module.  `HalfSpace` alone fixes the facet format: its
normal is a primitive integer tuple and its Fraction offset carries the
scale, so every consumer reads integer normals as they are.  Two vertices
span an edge, and a double-description ray pair is adjacent, by one
combinatorial rule (`_adjacent`).  Vertex/facet conversion runs the double
description method on the homogenization cone, which is practical for the
dense low-dimensional polytopes handled here (roughly m <= 6).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import mul

from .linalg import (
    _bareiss,
    _clear,
    dot,
    is_zero,
    mat_inverse,
    mat_transpose,
    matvec,
    primitive,
    qvec,
    rank,
    rref,  # noqa: F401  unused here; bench/spans.py wraps polytopes.rref by name
    solve,
    vadd,
    vscale,
    vsub,
)

Point = tuple[Q, ...]


class PolytopeError(ValueError):
    pass


class DegenerateError(PolytopeError):
    """Input does not span the full ambient dimension."""


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {u : <u, normal> + offset >= 0}.

    The normal is stored as the primitive integer vector of its direction and
    the offset divided by the positive factor dropped, so the half-space is
    the same set, `value` shrinks by that factor and keeps its sign, and equal
    half-spaces compare and hash equal however they were written.
    """

    normal: tuple[int, ...]
    offset: Q

    def __post_init__(self):
        if is_zero(self.normal):
            raise PolytopeError("half-space normal must be nonzero")
        given = tuple(self.normal)
        normal = primitive(given)
        offset = Q(self.offset)
        if normal != given:
            offset /= next(Q(a, b) for a, b in zip(given, normal) if b)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    def value(self, p) -> Q:
        return dot(p, self.normal) + self.offset

    def contains(self, p) -> bool:
        return self.value(p) >= 0

    def on_boundary(self, p) -> bool:
        return self.value(p) == 0


def halfspace(normal, offset) -> HalfSpace:
    return HalfSpace(normal, offset)


# ---------------------------------------------------------------------------
# Double description on cones


def _dd_extreme_rays(constraints: list[tuple[Q, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of {x in R^d : a.x >= 0 for all a}, for pointed cones.

    Each constraint is scaled once to a primitive integer row (a positive scale
    leaves the cone unchanged), so all arithmetic stays in int.  Starts from the
    simplicial subcone on the first d independent constraints and adds the rest
    incrementally; adjacency is decided combinatorially on tight sets (bitsets)
    by `_adjacent`.
    """
    rows = [primitive(c) for c in constraints]
    # pivot columns of the transpose: each constraint independent of those before it
    chosen = _bareiss([list(col) for col in zip(*rows)])
    if len(chosen) < d:
        raise DegenerateError("constraint normals do not span; cone is not pointed")
    # [A | I] -> [D I | D A^-1], so D times column j of D A^-1 is a positive multiple of ray j
    M = [list(rows[i]) + [int(i == j) for j in chosen] for i in chosen]
    _bareiss(M, jordan=True)
    rays = [primitive(tuple(M[0][0] * row[d + j] for row in M)) for j in range(d)]
    full = sum(1 << i for i in chosen)
    tight = [full ^ (1 << i) for i in chosen]
    for idx, a in enumerate(rows):
        if (full >> idx) & 1:
            continue
        bit = 1 << idx
        vals = [sum(map(mul, a, r)) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new: dict[tuple[int, ...], int] = {}
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                # adjacent rays share at least d - 2 tight constraints
                if common.bit_count() < d - 2 or not _adjacent(tight, ip, im):
                    continue
                vec = tuple(vals[ip] * x - vals[im] * y for x, y in zip(rays[im], rays[ip]))
                new.setdefault(primitive(vec), common | bit)
        rays = [rays[i] for i in pos] + [rays[i] for i in zero] + list(new)
        tight = [tight[i] for i in pos] + [tight[i] | bit for i in zero] + list(new.values())
    return rays


def _adjacent(tight: list[int], i: int, j: int) -> bool:
    """True iff no third member of `tight` is tight wherever i and j both are.

    Over the tight bitsets of a polytope's vertices this says that i and j
    span an edge; over the rays of a double-description step, that the two
    rays are adjacent."""
    common = tight[i] & tight[j]
    return not any(k != i and k != j and common & t == common for k, t in enumerate(tight))


def vertices_from_facets(halves: list[HalfSpace], m: int) -> list[Point]:
    """Vertex set of a bounded intersection of half-spaces (exact)."""
    # <u, n> + num/den >= 0 is the integer row (den n, num) on (u, 1)
    constraints = [tuple(x * h.offset.denominator for x in h.normal) + (h.offset.numerator,) for h in halves]
    constraints.append((0,) * m + (1,))
    rays = _dd_extreme_rays(constraints, m + 1)
    verts = []
    for r in rays:
        t = r[m]
        if t == 0:
            raise PolytopeError("half-space intersection is unbounded")
        verts.append(tuple(Q(x, t) for x in r[:m]))
    return sorted(set(verts))


def facets_from_points(points: list[Point], m: int) -> list[HalfSpace]:
    """Facet half-spaces (primitive integer inward normals) of conv(points).

    Each vertex y of the polar dual about the centroid c = S / (N den), where
    den * p is integral, gives the facet <u - c, y> + 1 >= 0; the dual
    constraint <p - c, y> + 1 >= 0 is scaled to (N den p - S, N den)."""
    N = len(points)
    den = math.lcm(*(x.denominator for p in points for x in p))
    ipts = [_clear(p, den) for p in points]
    S = [sum(col) for col in zip(*ipts)]
    rows = [[N * x - s for x, s in zip(p, S)] for p in ipts]
    # a point equal to the centroid is interior and adds no dual constraint
    dual_verts = vertices_from_facets([HalfSpace(r, N * den) for r in rows if any(r)], m)
    facets = []
    for y in dual_verts:
        n = primitive(y)
        # y = (t/g) n, so the facet is <u, n> + t/g - <c, n> >= 0
        t_g = next(b / a for a, b in zip(y, n) if b != 0)
        facets.append((n, t_g - Q(sum(map(mul, S, n)), N * den)))
    return [HalfSpace(n, offset) for n, offset in sorted(facets)]


# ---------------------------------------------------------------------------
# Polytopes


@dataclass(frozen=True)
class RationalPolytope:
    """Rational polytope by minimal V-representation.

    For full-dimensional polytopes the facet list (primitive integer inward
    normals) is computed eagerly.  Lower-dimensional and empty results from
    slicing keep an explicit `dim` tag and an internal full-dimensional chart
    for membership tests; their `facets` is None.
    """

    vertices: tuple[Point, ...]
    ambient_dim: int
    dim: int
    facets: tuple[HalfSpace, ...] | None = None
    _chart: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def is_empty(self) -> bool:
        return self.dim < 0

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.ambient_dim

    def require_full_dim(self):
        if not self.is_full_dim:
            raise DegenerateError(
                f"operation needs a full-dimensional polytope (dim {self.dim} in R^{self.ambient_dim})"
            )

    def contains(self, p) -> bool:
        p = qvec(p)
        if self.is_empty:
            return False
        if self.is_full_dim:
            return all(f.contains(p) for f in self.facets)
        if self.dim == 0:
            return p == self.vertices[0]
        p0, basis, inner = self._chart
        coords = _affine_coords(p0, basis, p)
        return coords is not None and inner.contains(coords)

    def contains_strictly(self, p) -> bool:
        p = qvec(p)
        return self.is_full_dim and all(f.value(p) > 0 for f in self.facets)

    def translate(self, t) -> "RationalPolytope":
        t = qvec(t)
        verts = tuple(vadd(v, t) for v in self.vertices)
        if self.is_full_dim:
            facets = tuple(HalfSpace(f.normal, f.offset - dot(t, f.normal)) for f in self.facets)
            return RationalPolytope(verts, self.ambient_dim, self.dim, facets)
        return hull_any(verts, self.ambient_dim)

    def scale(self, c) -> "RationalPolytope":
        c = Q(c)
        if c <= 0:
            raise PolytopeError("scale factor must be positive")
        verts = tuple(vscale(c, v) for v in self.vertices)
        if self.is_full_dim:
            facets = tuple(HalfSpace(f.normal, c * f.offset) for f in self.facets)
            return RationalPolytope(verts, self.ambient_dim, self.dim, facets)
        return hull_any(verts, self.ambient_dim)

    def linear_image(self, A) -> "RationalPolytope":
        """Image under an invertible linear map; vertices and facets transform
        directly (normals by the inverse transpose), no hull recomputation."""
        verts = tuple(sorted(matvec(A, v) for v in self.vertices))
        if not self.is_full_dim:
            return hull_any(verts, self.ambient_dim)
        Ainv_t = mat_transpose(mat_inverse(A))
        facets = [HalfSpace(matvec(Ainv_t, f.normal), f.offset) for f in self.facets]
        facets.sort(key=lambda h: (h.normal, h.offset))
        return RationalPolytope(verts, self.ambient_dim, self.dim, tuple(facets))

    def bounding_box(self) -> list[tuple[Q, Q]]:
        return [(min(v[i] for v in self.vertices), max(v[i] for v in self.vertices)) for i in range(self.ambient_dim)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalPolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))


def _affine_coords(p0, basis, p):
    """Coordinates of p in the affine chart p0 + span(basis), or None."""
    diff = vsub(p, p0)
    if not basis:
        return () if is_zero(diff) else None
    A = [tuple(b[i] for b in basis) for i in range(len(p0))]
    return solve(A, diff)


def _tight_sets(facets: list[HalfSpace], points) -> list[int]:
    """For each point, the bitset of facets whose boundary holds it, in integers."""
    den = math.lcm(*(x.denominator for p in points for x in p), *(f.offset.denominator for f in facets))
    rows = [(f.normal, f.offset.numerator * (den // f.offset.denominator)) for f in facets]
    ipts = [_clear(p, den) for p in points]
    return [sum(1 << j for j, (n, b) in enumerate(rows) if sum(map(mul, n, ip)) + b == 0) for ip in ipts]


def hull(points, ambient_dim: int | None = None) -> RationalPolytope:
    """Convex hull of full-dimension-spanning points: minimal V-rep plus facets."""
    pts = sorted({qvec(p) for p in points})
    if not pts:
        raise DegenerateError("no points given")
    m = ambient_dim if ambient_dim is not None else len(pts[0])
    if any(len(p) != m for p in pts):
        raise PolytopeError("points of mixed dimension")
    if rank([vsub(p, pts[0]) for p in pts[1:]]) < m:
        raise DegenerateError("points do not span the full dimension")
    facets = facets_from_points(pts, m)
    tight = _tight_sets(facets, pts)
    # a non-vertex lies inside a face whose vertices are among the points, and
    # each of those is tight wherever it is; a vertex's tight facets meet only there
    verts = [p for i, (p, t) in enumerate(zip(pts, tight)) if all(t & u != t for u in tight[:i] + tight[i + 1:])]
    return RationalPolytope(tuple(verts), m, m, tuple(facets))


def hull_any(points, ambient_dim: int) -> RationalPolytope:
    """Hull that tolerates lower-dimensional and empty input (dim tag set)."""
    pts = sorted({qvec(p) for p in points})
    if not pts:
        return RationalPolytope((), ambient_dim, -1, None)
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    # pivot columns of the transpose: each difference independent of those before it
    basis = [diffs[j] for j in _bareiss([_clear(row) for row in zip(*diffs)])] if diffs else []
    dim = len(basis)
    if dim == ambient_dim:
        return hull(pts, ambient_dim)
    if dim == 0:
        return RationalPolytope((p0,), ambient_dim, 0, None)
    inner_pts = [_affine_coords(p0, basis, p) for p in pts]
    inner = hull(inner_pts, dim)
    verts = tuple(sorted(vadd(p0, _combine(basis, c)) for c in inner.vertices))
    return RationalPolytope(verts, ambient_dim, dim, None, _chart=(p0, basis, inner))


def _combine(basis, coeffs):
    out = tuple(Q(0) for _ in basis[0])
    for c, b in zip(coeffs, basis):
        out = vadd(out, vscale(c, b))
    return out


def polar_dual(P: RationalPolytope) -> RationalPolytope:
    """Polar dual {v : <u,v> + 1 >= 0 for u in P}; needs 0 strictly interior.

    Equals the hull of the vectors v_i from the unique presentation of P as an
    intersection of half-spaces {<u, v_i> + 1 >= 0}.
    """
    P.require_full_dim()
    if not all(f.offset > 0 for f in P.facets):  # a facet's value at the origin is its offset
        raise PolytopeError("polar dual needs the origin strictly inside")
    duals = [vscale(Q(1) / f.offset, f.normal) for f in P.facets]
    return hull(duals, P.ambient_dim)


def is_supporting(h: HalfSpace, P: RationalPolytope) -> bool:
    """True iff P lies in the half-space and touches its boundary hyperplane."""
    if P.is_empty:
        return False
    vals = [h.value(v) for v in P.vertices]
    return all(v >= 0 for v in vals) and min(vals) == 0


def lattice_points(P: RationalPolytope, q: int = 1) -> list[Point]:
    """All points of (1/q)Z^m inside P, in lexicographic order, by fibers.

    Walks the bounding box of the first m - 1 coordinates carrying each facet's
    partial sum; for each prefix the last coordinate runs over its exact
    interval, got from the facets as integer rows by floor and ceiling
    division, so empty cells are never visited.  A lower-dimensional P has no
    facets: each last coordinate in its box range is tested by membership.
    """
    if q < 1:
        raise PolytopeError("q must be a positive integer")
    if P.is_empty:
        return []
    *box, last = [range(math.ceil(lo * q), math.floor(hi * q) + 1) for lo, hi in P.bounding_box()]
    # <n, k/q> + offset >= 0  <=>  <den n, k> + num >= 0 where q offset = num/den; sorted by the
    # last coefficient: upper bounds on the last coordinate, rows free of it, lower bounds
    rows = sorted(
        (([x * b.denominator for x in f.normal], b.numerator) for f in P.facets or () for b in [f.offset * q]),
        key=lambda r: r[0][-1],
    )
    tail = [n[-1] for n, _ in rows]
    up, down = sum(a < 0 for a in tail), len(tail) - sum(a > 0 for a in tail)
    out = []

    def walk(prefix, sums):
        j = len(prefix)
        if j < len(box):
            col = [n[j] for n, _ in rows]
            for k in box[j]:
                walk(prefix + (k,), [x + k * a for x, a in zip(sums, col)])
            return
        if any(x < 0 for x in sums[up:down]):
            return
        lo = max([last.start] + [-(x // a) for x, a in zip(sums[down:], tail[down:])])
        hi = min([last.stop - 1] + [x // -a for x, a in zip(sums, tail[:up])])
        for k in range(lo, hi + 1):
            p = tuple(Q(x, q) for x in prefix + (k,))
            if rows or P.contains(p):
                out.append(p)

    walk((), [b for _, b in rows])
    return out


# ---------------------------------------------------------------------------
# Q-Gorenstein Fano certification


@dataclass(frozen=True)
class QGFCertificate:
    """Certified center, size, and combinatorial dual of a QGF polytope.

    For every facet <u, n_F> >= beta_F (primitive integer inward normal) the
    center satisfies <u0, n_F> - beta_F = size; the combinatorial dual is the
    hull of the raw facet normals.
    """

    center: Point
    size: int
    dual_vertices: tuple[tuple[int, ...], ...]
    dual: RationalPolytope


def qgf_solve(P: RationalPolytope) -> tuple[QGFCertificate | None, str]:
    """(certificate, diagnostic) for the Q-Gorenstein Fano property.

    Writes each facet as <u, n_F> >= beta_F with primitive integer inward
    normal and solves <u0, n_F> = beta_F + nu exactly; certifies only when nu
    is a positive integer.
    """
    P.require_full_dim()
    m = P.ambient_dim
    rows = [f.normal + (-1,) for f in P.facets]
    rhs = [-f.offset for f in P.facets]
    norms = [f.normal for f in P.facets]
    if rank(rows) < m + 1:
        return None, "facet normals do not pin a unique center and size"
    sol = solve(rows, rhs)
    if sol is None:
        return None, "no common center: facet offsets are incompatible"
    center, nu = sol[:m], sol[m]
    if nu <= 0:
        return None, f"solved size {nu} is not positive"
    if nu.denominator != 1:
        return None, f"solved size {nu} is not an integer"
    dual = hull(norms, m)
    cert = QGFCertificate(tuple(center), int(nu), tuple(sorted(norms)), dual)
    for n, beta in zip(norms, rhs):
        if dot(cert.center, n) - beta != cert.size:
            raise AssertionError(f"QGF identity fails on facet normal {n}")
    return cert, "ok"


def qgf_certificate(P: RationalPolytope) -> QGFCertificate | None:
    cert, _ = qgf_solve(P)
    return cert


# ---------------------------------------------------------------------------
# Slicing


@dataclass(frozen=True)
class SliceResult:
    """Section P ∩ H and the two closed halves, each with its own dim tag."""

    section: RationalPolytope
    plus: RationalPolytope
    minus: RationalPolytope


def crossing_points(P: RationalPolytope, h: HalfSpace) -> list[Point]:
    """Points where the boundary hyperplane of h meets segments between
    vertices of P on strictly opposite sides.

    For full-dimensional P only true edges are used: pairs with no third
    vertex on every facet that holds both (`_adjacent`, the double
    description's rule).  Otherwise all pairs are used, whose extra interior
    crossings are harmless to downstream hulls and membership tests.  The
    crossings come in the order of the vertex pairs.
    """
    verts = P.vertices
    vals = [h.value(v) for v in verts]
    tight = _tight_sets(P.facets, verts) if P.is_full_dim else None
    out = []
    for i, j in itertools.combinations(range(len(verts)), 2):
        a, b = vals[i], vals[j]
        if not ((a > 0 > b) or (b > 0 > a)):
            continue
        if tight is not None and not _adjacent(tight, i, j):
            continue
        u, v = verts[i], verts[j]
        t = a / (a - b)
        out.append(vadd(u, vscale(t, vsub(v, u))))
    return out


def slice_polytope(P: RationalPolytope, h: HalfSpace) -> SliceResult:
    """Exact intersection of P with the hyperplane and both closed half-spaces.

    Piece vertices are the original vertices on the matching side plus the
    edge-hyperplane crossing points.
    """
    m = P.ambient_dim
    if len(h.normal) != m:
        raise PolytopeError(f"hyperplane normal has {len(h.normal)} entries, polytope is in R^{m}")
    if P.is_empty:
        empty = RationalPolytope((), m, -1, None)
        return SliceResult(empty, empty, empty)
    vals = {v: h.value(v) for v in P.vertices}
    on = [v for v in P.vertices if vals[v] == 0]
    plus_pts = [v for v in P.vertices if vals[v] >= 0]
    minus_pts = [v for v in P.vertices if vals[v] <= 0]
    crossings = crossing_points(P, h)
    section = hull_any(on + crossings, m)
    plus = hull_any(plus_pts + crossings, m)
    minus = hull_any(minus_pts + crossings, m)
    return SliceResult(section, plus, minus)


# ---------------------------------------------------------------------------
# Exact volume (ambient dimension <= 3)


def volume(P: RationalPolytope) -> Q:
    """Exact volume; 0 for lower-dimensional bodies.  Supports m <= 3."""
    if P.is_empty or not P.is_full_dim:
        return Q(0)
    m = P.ambient_dim
    if m == 1:
        xs = [v[0] for v in P.vertices]
        return max(xs) - min(xs)
    if m == 2:
        ring = _polygon_cycle(P)
        a = Q(0)
        for p, q in zip(ring, ring[1:] + ring[:1]):
            a += p[0] * q[1] - q[0] * p[1]
        return abs(a) / 2
    if m == 3:
        apex = P.vertices[0]
        total = Q(0)
        for f in P.facets:
            if f.value(apex) == 0:
                continue
            fverts = [v for v in P.vertices if f.on_boundary(v)]
            ring = _facet_cycle(P, f, fverts)
            for b, c in zip(ring[1:], ring[2:]):
                u1 = vsub(ring[0], apex)
                u2 = vsub(b, apex)
                u3 = vsub(c, apex)
                det = (
                    u1[0] * (u2[1] * u3[2] - u2[2] * u3[1])
                    - u1[1] * (u2[0] * u3[2] - u2[2] * u3[0])
                    + u1[2] * (u2[0] * u3[1] - u2[1] * u3[0])
                )
                total += abs(det)
        return total / 6
    raise PolytopeError("exact volume implemented for ambient dimension <= 3")


def _polygon_cycle(P: RationalPolytope) -> list[Point]:
    """Vertices of a 2D polytope in boundary order (walk the facet graph)."""
    edges = {}
    for f in P.facets:
        tight = [v for v in P.vertices if f.on_boundary(v)]
        if len(tight) == 2:
            edges.setdefault(tight[0], []).append(tight[1])
            edges.setdefault(tight[1], []).append(tight[0])
    start = P.vertices[0]
    ring = [start]
    prev = None
    while True:
        nxts = [w for w in edges[ring[-1]] if w != prev]
        prev = ring[-1]
        ring.append(nxts[0])
        if ring[-1] == start:
            return ring[:-1]


def _facet_cycle(P: RationalPolytope, f: HalfSpace, fverts: list[Point]) -> list[Point]:
    """Vertices of a 3D facet in boundary order (edges = shared second facet)."""
    if len(fverts) == 3:
        return fverts
    adj = {v: [] for v in fverts}
    for u, v in itertools.combinations(fverts, 2):
        common = [
            g
            for g in P.facets
            if g != f and g.on_boundary(u) and g.on_boundary(v)
        ]
        if common:
            adj[u].append(v)
            adj[v].append(u)
    start = fverts[0]
    ring = [start]
    prev = None
    while True:
        nxts = [w for w in adj[ring[-1]] if w != prev]
        prev = ring[-1]
        ring.append(nxts[0])
        if ring[-1] == start:
            return ring[:-1]
