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
come from Fraction values here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from math import gcd

from clustrop.linalg import dot, is_zero, mat_inverse, qvec, rref, vadd, vscale, vsub
from clustrop.polytopes import (
    DegenerateError,
    HalfSpace,
    PolytopeError,
    RationalPolytope,
    _affine_coords,
    _combine,
    hull,
)

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
        if P.contains(p):
            out.append(p)
    return out


def _tight_sets(facets: list[HalfSpace], points) -> list[int]:
    """For each point, the bitset of facets whose boundary holds it."""
    return [sum(1 << j for j, f in enumerate(facets) if f.on_boundary(p)) for p in points]


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
    basis = _independent_subset(diffs, dim)
    inner_pts = [_affine_coords(p0, basis, p) for p in pts]
    inner = hull(inner_pts, dim)
    verts = tuple(sorted(vadd(p0, _combine(basis, c)) for c in inner.vertices))
    return RationalPolytope(verts, ambient_dim, dim, None, _chart=(p0, basis, inner))


def _independent_subset(vecs, target):
    basis = []
    for v in vecs:
        if rank(basis + [v]) > len(basis):
            basis.append(v)
        if len(basis) == target:
            break
    return basis
