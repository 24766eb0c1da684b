"""Fraction reference implementations of the integer polytope kernel.

These are the rational-arithmetic versions that `clustrop.linalg` and
`clustrop.polytopes` used before their hot loops moved to int: the
rref-based `rank` and `solve`, the double description `_dd_extreme_rays`
with its `primitive`, and the bounding-box `lattice_points`.  They live
only here, as the oracle of the differential tests in
`test_integer_kernel.py`.  They use `rref` and `mat_inverse`, which still
run on Fraction in `clustrop.linalg`.

`crossing_points` (true edges by the rank of the common tight facet
normals) and `hull_any` with its `_independent_subset` (an affine basis
grown one rank test at a time) are the versions that `clustrop.polytopes`
used before both rules moved to the double description's own: tight-set
adjacency and the pivot columns of one Bareiss pass.  Their tight sets
come from Fraction values here.  A lower-dimensional hull here keeps the
affine chart (`_chart`, `_affine_coords`, `_combine`) that
`clustrop.polytopes` used before every polytope carried integer rows: it
has no facets, and `contains` solves for chart coordinates (with the rref
`solve` above) and tests them in the chart's full-dimensional hull.

`vertices_from_facets`, `facets_from_points` and `hull` are the route that
`clustrop.polytopes` took before `hull` read its facets straight off the
integer rays of the dual cone: dual vertices as Fraction points, turned into
primitive normals again, after a separate `rank` check that the points
span.  Here they run on the Fraction double description above, and
this module's `hull_any` builds on them.  `trop_mutate_polytope` is the version that
`clustrop.tropical` used before one point map replaced the two branch
matrices: each side of the wall maps by its own linear map, and a polytope
on one side by `linear_image` (normals by the inverse transpose).

`halfspace_contains`, `on_boundary`, `contains`, `contains_strictly`,
`qgf_solve` and `volume` (with its two boundary walks) are the versions that `clustrop.polytopes` used before its sign
tests read each half-space's integer row against integer homogeneous
coordinates: `HalfSpace.value` in Fraction, with `qgf_solve` running `rank`
and then `solve` (here the rref versions above), and `volume` finding each
boundary cycle facet by facet.  This module's
`crossing_points` and `hull` take their values, crossings and input handling
(`sorted({qvec(p) ...})`) from the same Fraction code, and its `_tight_sets`,
`lattice_points` and `trop_mutate_polytope` test membership through these
functions, so no oracle goes through the integer rows.

`polar_dual` is the version that `clustrop.polytopes` used before both duals
were read off the face lattice: the hull of the points n/b over the facets
<u, n> + b >= 0, here through this module's Fraction `hull`, the same route
by which this module's `qgf_solve` takes its dual (the hull of the normals).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction as Q
from math import gcd
from operator import mul

from clustrop.linalg import _clear, dot, is_zero, mat_inverse, qvec, rref, vadd, vscale, vsub
from clustrop.mutation import ExtendedExchangeMatrix, _pos
from clustrop.polytopes import (
    DegenerateError,
    HalfSpace,
    PolytopeError,
    QGFCertificate,
    RationalPolytope,
    halfspace,
)
from clustrop.tropical import TropicalError, TropImage, _check_direction

Vec = tuple[Q, ...]
Point = tuple[Q, ...]


def rank(rows) -> int:
    return len(rref(list(rows))[1])


def solve(A, b) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent."""
    n = len(A[0]) if A else 0
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    M, pivots = rref(aug)
    for row in M:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = M[r][-1]
    return tuple(x)


def lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else abs(a or b)


def primitive(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    v = qvec(v)
    if is_zero(v):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _dd_extreme_rays(constraints: list[tuple[Q, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of {x in R^d : a.x >= 0 for all a}, for pointed cones.

    Starts from a simplicial subcone on d independent constraints and adds the
    rest incrementally; adjacency is decided combinatorially on tight sets.
    """
    M, pivots = rref([list(c) for c in constraints])
    if len(pivots) < d:
        raise DegenerateError("constraint normals do not span; cone is not pointed")
    # pick d rows forming an invertible matrix
    chosen: list[int] = []
    for i, c in enumerate(constraints):
        if len(chosen) == d:
            break
        if rank([constraints[j] for j in chosen] + [c]) > len(chosen):
            chosen.append(i)
    A = [constraints[i] for i in chosen]
    Ainv = mat_inverse(A)
    rays = []
    for j in range(d):
        col = tuple(Ainv[i][j] for i in range(d))
        rays.append(primitive(col))
    tight = []
    for r in rays:
        tight.append({i for i in chosen if dot(constraints[i], r) == 0})
    processed = set(chosen)
    for idx, a in enumerate(constraints):
        if idx in processed:
            continue
        vals = [dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        if not neg:
            for i in zero:
                tight[i].add(idx)
            processed.add(idx)
            continue
        new_rays = []
        new_tight = []
        for ip in pos:
            for im in neg:
                common = tight[ip] & tight[im]
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and common <= tight[k]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vec = vsub(vscale(vals[ip], rays[im]), vscale(vals[im], rays[ip]))
                vec = primitive(vec)
                if vec not in new_rays:
                    new_rays.append(vec)
                    new_tight.append(common | {idx})
        keep_rays = [rays[i] for i in pos] + [rays[i] for i in zero]
        keep_tight = [set(tight[i]) for i in pos] + [tight[i] | {idx} for i in zero]
        rays = keep_rays + new_rays
        tight = keep_tight + new_tight
        processed.add(idx)
    return rays


def lattice_points(P: RationalPolytope, q: int = 1) -> list[Point]:
    """All points of (1/q)Z^m inside P, by exact bounding-box enumeration."""
    if q < 1:
        raise PolytopeError("q must be a positive integer")
    if P.is_empty:
        return []
    ranges = []
    for lo, hi in P.bounding_box():
        ranges.append(range(math.ceil(lo * q), math.floor(hi * q) + 1))
    out = []
    for combo in itertools.product(*ranges):
        p = tuple(Q(k, q) for k in combo)
        if contains(P, p):
            out.append(p)
    return out


def _tight_sets(facets: list[HalfSpace], points) -> list[int]:
    """For each point, the bitset of facets whose boundary holds it."""
    return [sum(1 << j for j, f in enumerate(facets) if on_boundary(f, p)) for p in points]


def crossing_points(P: RationalPolytope, h: HalfSpace) -> list[Point]:
    """Points where the boundary hyperplane of h meets segments between
    vertices of P on strictly opposite sides.

    For full-dimensional P only true edges are used (pairs whose common tight
    facet normals have rank m-1); otherwise all pairs, whose extra interior
    crossings are harmless to downstream hulls and membership tests.
    """
    vals = {v: h.value(v) for v in P.vertices}
    use_edges = P.is_full_dim
    tightsets = dict(zip(P.vertices, _tight_sets(P.facets, P.vertices))) if use_edges else {}
    out = []
    m = P.ambient_dim
    for u, v in itertools.combinations(P.vertices, 2):
        a, b = vals[u], vals[v]
        if not ((a > 0 > b) or (b > 0 > a)):
            continue
        if use_edges:
            common = tightsets[u] & tightsets[v]
            normals = [f.normal for i, f in enumerate(P.facets) if common >> i & 1]
            if len(normals) < m - 1 or rank(normals) != m - 1:
                continue
        t = a / (a - b)
        out.append(vadd(u, vscale(t, vsub(v, u))))
    return out


def hull_any(points, ambient_dim: int) -> RationalPolytope:
    """Hull that tolerates lower-dimensional and empty input (dim tag set)."""
    pts = sorted({qvec(p) for p in points})
    if not pts:
        return RationalPolytope((), ambient_dim, -1, None)
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    dim = rank(diffs) if diffs else 0
    if dim == ambient_dim:
        return hull(pts, ambient_dim)
    if dim == 0:
        return RationalPolytope((p0,), ambient_dim, 0, None)
    p0, basis, inner = _chart(tuple(pts), dim)
    verts = tuple(sorted(vadd(p0, _combine(basis, c)) for c in inner.vertices))
    return RationalPolytope(verts, ambient_dim, dim, None)


@functools.cache
def _chart(pts, dim):
    """An affine chart p0 + span(basis) of the dim-dimensional affine hull of
    the points, and the full-dimensional hull of their chart coordinates."""
    p0 = pts[0]
    basis = _independent_subset([vsub(p, p0) for p in pts[1:]], dim)
    return p0, basis, hull([_affine_coords(p0, basis, p) for p in pts], dim)


def _affine_coords(p0, basis, p):
    """Coordinates of p in the affine chart p0 + span(basis), or None."""
    diff = vsub(p, p0)
    if not basis:
        return () if is_zero(diff) else None
    A = [tuple(b[i] for b in basis) for i in range(len(p0))]
    return solve(A, diff)


def _combine(basis, coeffs):
    out = tuple(Q(0) for _ in basis[0])
    for c, b in zip(coeffs, basis):
        out = vadd(out, vscale(c, b))
    return out


def _independent_subset(vecs, target):
    basis = []
    for v in vecs:
        if rank(basis + [v]) > len(basis):
            basis.append(v)
        if len(basis) == target:
            break
    return basis


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


def matvec(A, x) -> Vec:
    return tuple(dot(row, x) for row in A)


def mat_transpose(A):
    return tuple(zip(*A))


def linear_image(P: RationalPolytope, A) -> RationalPolytope:
    """Image under an invertible linear map; vertices and facets transform
    directly (normals by the inverse transpose), no hull recomputation."""
    verts = tuple(sorted(matvec(A, v) for v in P.vertices))
    if not P.is_full_dim:
        return hull_any(verts, P.ambient_dim)
    Ainv_t = mat_transpose(mat_inverse(A))
    facets = [HalfSpace(matvec(Ainv_t, f.normal), f.offset) for f in P.facets]
    facets.sort(key=lambda h: (h.normal, h.offset))
    return RationalPolytope(verts, P.ambient_dim, P.dim, tuple(facets))


def branch_matrices(eps: ExtendedExchangeMatrix, k: int):
    """The two linear maps of the tropical mutation: A on {u_k >= 0}, B on
    {u_k <= 0}.  Both are unimodular and agree on the wall u_k = 0."""
    _check_direction(eps, k)
    n = len(eps.cols)
    ki = eps.col_index(k)
    row = eps.row(k)
    A = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    B = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for j in range(n):
        if j == ki:
            A[j][ki] = Q(-1)
            B[j][ki] = Q(-1)
        else:
            A[j][ki] = Q(_pos(row[j]))
            B[j][ki] = Q(_pos(-row[j]))
    return tuple(map(tuple, A)), tuple(map(tuple, B))


def trop_mutate_polytope(eps: ExtendedExchangeMatrix, k: int, P: RationalPolytope) -> TropImage:
    """Map the two slices of P at u_k = 0 by the matching linear branches; if
    the union of the images is convex (union equals hull, decided exactly)
    return the hull, otherwise both pieces with the non-convexity flag."""
    _check_direction(eps, k)
    P.require_full_dim()
    m = P.ambient_dim
    if m != len(eps.cols):
        raise TropicalError("polytope ambient dimension does not match column count")
    ki = eps.col_index(k)
    wall = halfspace([1 if i == ki else 0 for i in range(m)], 0)
    A, B = branch_matrices(eps, k)
    vals = [wall.value(v) for v in P.vertices]
    if all(v >= 0 for v in vals):
        return TropImage(True, linear_image(P, A))
    if all(v <= 0 for v in vals):
        return TropImage(True, linear_image(P, B))
    # crossings lie on the wall, which both branches fix
    crossings = crossing_points(P, wall)
    plus_img_pts = [matvec(A, v) for v, val in zip(P.vertices, vals) if val >= 0] + crossings
    minus_img_pts = [matvec(B, v) for v, val in zip(P.vertices, vals) if val <= 0] + crossings
    H = hull(plus_img_pts + minus_img_pts, m)

    # A and B are involutions and A maps {u_k >= 0} onto {u_k <= 0}, so a
    # point c of {u_k <= 0} lies in the plus image iff A c is in P, and one of
    # {u_k >= 0} lies in the minus image iff B c is in P.  The union is convex
    # iff it equals H, i.e. iff each closed half of H (vertices plus wall
    # crossings) pulls back into P.
    def pulls_back(c):
        side = wall.value(c)
        return contains(P, c if side == 0 else matvec(A if side < 0 else B, c))

    if all(map(pulls_back, H.vertices)) and all(contains(P, c) for c in crossing_points(H, wall)):
        return TropImage(True, H)
    return TropImage(False, None, hull_any(plus_img_pts, m), hull_any(minus_img_pts, m))


def halfspace_contains(h: HalfSpace, p) -> bool:
    return h.value(p) >= 0


def on_boundary(h: HalfSpace, p) -> bool:
    return h.value(p) == 0


def contains(P: RationalPolytope, p) -> bool:
    p = qvec(p)
    if P.is_empty:
        return False
    if P.is_full_dim:
        return all(halfspace_contains(f, p) for f in P.facets)
    if P.dim == 0:
        return p == P.vertices[0]
    p0, basis, inner = _chart(P.vertices, P.dim)
    coords = _affine_coords(p0, basis, p)
    return coords is not None and contains(inner, coords)


def contains_strictly(P: RationalPolytope, p) -> bool:
    p = qvec(p)
    return P.is_full_dim and all(f.value(p) > 0 for f in P.facets)


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
            if on_boundary(f, apex):
                continue
            fverts = [v for v in P.vertices if on_boundary(f, v)]
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
        tight = [v for v in P.vertices if on_boundary(f, v)]
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
            if g != f and on_boundary(g, u) and on_boundary(g, v)
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
