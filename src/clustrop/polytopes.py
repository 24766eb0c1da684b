"""Exact rational polytopes: hulls, facets, duals, lattice points, QGF certificates.

The kernel is integer and has no floating point: points are cleared once to
integer homogeneous coordinates, Fraction stays at the API boundary
(vertices, offsets, centers), and every membership, side and tightness test
is the sign of a facet row against them.  `HalfSpace` alone fixes the facet
format: a primitive integer normal, a Fraction offset, and the row they make.
Two vertices span an edge, and a double-description ray pair is adjacent, by
one rule (`_adjacent`).  Only `vertices_from_facets` and `hull` run the double
description, on a homogenization cone of integer rows (`_bounded_rays`); `hull`
reads each facet and the points on it off an integer ray of the polar dual about
the centroid (`facets_from_points`): the 3^9 points of {0, 1, 2}^9 take 2.2-2.5 s
(Python 3.11, one core of a Xeon), the cube's 512 vertices among them.
The polar and QGF duals are read off the face lattice with no hull (`_dual`).
One cut rule (`_cut`) gives the crossings and both pieces of a polytope cut by
a hyperplane, for slicing and tropical images.  Every non-empty polytope
carries integer facet rows, whatever its dimension (`hull_any`), so one sign
test decides membership.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add, mul, or_

from .linalg import (
    _bareiss,
    _clear,
    dot,
    is_zero,
    mat_inverse,  # noqa: F401  unused here; bench/spans.py wraps polytopes.mat_inverse by name
    primitive,
    qvec,
    rank,  # noqa: F401  unused here; bench/spans.py wraps polytopes.rank by name
    rref,  # noqa: F401  unused here; bench/spans.py wraps polytopes.rref by name
    solve,  # noqa: F401  unused here; bench/spans.py wraps polytopes.solve by name
    vadd,
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
    half-spaces compare and hash equal however they were written.  `row` is
    (den normal, num) for offset = num/den; on the homogeneous coordinates
    (t p, t) of a point p (`_homog`) it sums to den t value(p), of the same sign.
    """

    normal: tuple[int, ...]
    offset: Q
    row: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normal, offset = self.normal, self.offset
        # a tuple of exact ints with gcd 1 is nonzero and primitive: only the row is left to build
        ints = type(normal) is tuple and all(type(x) is int for x in normal) and math.gcd(*normal) == 1
        if not (ints and type(offset) is Q):
            if is_zero(normal):
                raise PolytopeError("half-space normal must be nonzero")
            if not ints:
                given = tuple(normal)
                normal = primitive(given)
                if normal != given:
                    offset = Q(offset) / next(Q(a, b) for a, b in zip(given, normal) if b)
                object.__setattr__(self, "normal", normal)
            if type(offset) is not Q:
                offset = Q(offset)
            object.__setattr__(self, "offset", offset)
        den = offset.denominator
        object.__setattr__(self, "row", (*[x * den for x in normal], offset.numerator))

    def value(self, p) -> Q:
        return dot(p, self.normal) + self.offset

    def contains(self, p) -> bool:
        return sum(map(mul, self.row, _homog(p, len(self.normal)))) >= 0

    def on_boundary(self, p) -> bool:
        return sum(map(mul, self.row, _homog(p, len(self.normal)))) == 0


def halfspace(normal, offset) -> HalfSpace:
    return HalfSpace(normal, offset)


def _homog(p, m: int) -> tuple[int, ...]:
    """Integer homogeneous coordinates (t p, t) of a point p in R^m, t > 0 the lcm of its denominators."""
    if len(p) != m:
        raise PolytopeError(f"point has {len(p)} coordinates, expected {m}")
    t = math.lcm(*(x.denominator for x in p))
    return (*_clear(p, t), t)


def _homog_all(points) -> list[tuple[int, ...]]:
    """Integer homogeneous coordinates of the points over one common t, so they sort as the points do."""
    t = math.lcm(*(x.denominator for p in points for x in p))
    return [(*_clear(p, t), t) for p in points]


def _fractions(hpts, m: int) -> list[Point]:
    """Fraction tuples of points in integer homogeneous coordinates, each distinct (numerator, t) built once."""
    built = {key: Q(*key) for key in {(x, hp[m]) for hp in hpts for x in hp[:m]}}
    return [tuple(built[x, hp[m]] for x in hp[:m]) for hp in hpts]


# ---------------------------------------------------------------------------
# Double description on cones


def _dd_extreme_rays(constraints: list[tuple[Q, ...]], d: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of {x in R^d : a.x >= 0 for all a}, for pointed cones, and
    beside them their tight sets: bit i of a ray's set is set iff a_i.x = 0.

    Each constraint is scaled once to a primitive integer row (a positive scale
    leaves the cone unchanged), so all arithmetic stays in int.  Starts from the
    simplicial subcone on the first d independent constraints and adds the rest
    incrementally; adjacency is decided combinatorially on tight sets (bitsets)
    by `_adjacent`.  A ray stays exactly tight on every constraint added: a
    positive combination of two rays is tight only where both are.
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
    return rays, tight


def _adjacent(tight: list[int], i: int, j: int) -> bool:
    """True iff no third member of `tight` is tight wherever i and j both are.

    Over the tight bitsets of a polytope's vertices this says that i and j
    span an edge; over the rays of a double-description step, that the two
    rays are adjacent."""
    common = tight[i] & tight[j]
    return not any(k != i and k != j and common & t == common for k, t in enumerate(tight))


def _bounded_rays(constraints, m: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer rays (x, t), t > 0, of the homogenization cone of the integer
    rows (a, b) for <u, a> + b >= 0, on (u, 1), and their tight sets over the
    rows; raises if the set is unbounded."""
    rays, tight = _dd_extreme_rays(constraints + [(0,) * m + (1,)], m + 1)
    if any(r[m] == 0 for r in rays):
        raise PolytopeError("half-space intersection is unbounded")
    return rays, tight


def vertices_from_facets(halves: list[HalfSpace], m: int) -> list[Point]:
    """Vertex set of a bounded intersection of half-spaces (exact)."""
    return sorted(set(_fractions(_bounded_rays([h.row for h in halves], m)[0], m)))


def facets_from_points(hpts: list[tuple[int, ...]], m: int) -> tuple[list[HalfSpace], list[int]]:
    """Facet half-spaces (primitive integer inward normals) of the hull of
    points given by integer homogeneous coordinates (den p, den), one common den,
    and for each point the bitset of facets whose boundary holds it.

    Each vertex y/t of the polar dual about the centroid c = S / (N den)
    gives the facet <u - c, y> + t >= 0; the dual constraint
    <p - c, y> + 1 >= 0 is the integer row (N den p - S, N den).
    With g = gcd(y) the facet has normal y/g and offset
    (t N den - <S, y>) / (g N den), read straight off the integer ray (y, t).
    A point lies on that facet iff its dual constraint is tight at the ray."""
    N = len(hpts)
    den = hpts[0][m]
    S = [sum(col) for col in zip(*hpts)][:m]
    rows = [tuple(N * x - s for x, s in zip(p, S)) + (N * den,) for p in hpts]
    # a point equal to the centroid is interior and adds no dual constraint
    held = [i for i, r in enumerate(rows) if any(r[:m])]
    facets = []
    for (*y, t), bits in zip(*_bounded_rays([rows[i] for i in held], m)):
        g = math.gcd(*y)
        facets.append((tuple(x // g for x in y), Q(t * N * den - sum(map(mul, S, y)), g * N * den), bits))
    facets.sort()  # the normals are distinct, so the bits are never compared
    tight = [0] * N
    for j, (_, _, bits) in enumerate(facets):
        on = bin(bits)[:1:-1]  # on[i] is "1" iff the ray is tight at row held[i]
        i = on.find("1")
        while i >= 0:
            tight[held[i]] |= 1 << j
            i = on.find("1", i + 1)
    return [HalfSpace(n, offset) for n, offset, _ in facets], tight


# ---------------------------------------------------------------------------
# Polytopes


@dataclass(frozen=True)
class RationalPolytope:
    """Rational polytope by minimal V-representation and integer facet rows.

    Both lists are computed eagerly.  For full-dimensional polytopes they are
    minimal and sorted as `hull` sorts them; `hull`, `translate`, `scale` and
    the JSON reader keep this, and `_dual` relies on it.  A lower-dimensional
    polytope (`hull_any`) carries its `dim` tag, and its `facets`, sorted by
    normal, are its relative facets lifted to R^m plus the equations of its
    affine hull as pairs of opposite half-spaces; the empty one (dim -1) has
    no vertices or facets.  `contains` raises on a point of the wrong length.
    """

    vertices: tuple[Point, ...]
    ambient_dim: int
    dim: int
    facets: tuple[HalfSpace, ...]

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
        hp = _homog(p, self.ambient_dim)
        return not self.is_empty and all(sum(map(mul, f.row, hp)) >= 0 for f in self.facets)

    def contains_strictly(self, p) -> bool:
        hp = _homog(p, self.ambient_dim)
        return self.is_full_dim and all(sum(map(mul, f.row, hp)) > 0 for f in self.facets)

    def translate(self, t) -> "RationalPolytope":
        t = qvec(t)
        verts = tuple(vadd(v, t) for v in self.vertices)
        facets = tuple(HalfSpace(f.normal, f.offset - dot(t, f.normal)) for f in self.facets)
        return RationalPolytope(verts, self.ambient_dim, self.dim, facets)

    def scale(self, c) -> "RationalPolytope":
        c = Q(c)
        if c <= 0:
            raise PolytopeError("scale factor must be positive")
        m, p, q = self.ambient_dim, c.numerator, c.denominator
        verts = tuple(_fractions([(*(p * x for x in hp[:m]), q * hp[m]) for hp in _homog_all(self.vertices)], m))
        facets = tuple(HalfSpace(f.normal, c * f.offset) for f in self.facets)
        return RationalPolytope(verts, self.ambient_dim, self.dim, facets)

    def bounding_box(self) -> list[tuple[Q, Q]]:
        if self.is_empty:
            raise PolytopeError("the empty polytope has no bounding box")
        return [(min(v[i] for v in self.vertices), max(v[i] for v in self.vertices)) for i in range(self.ambient_dim)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalPolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))


def _tight_sets(facets: list[HalfSpace], hpts) -> list[int]:
    """For each point, given by integer homogeneous coordinates, the bitset of
    facets whose boundary holds it."""
    rows = [f.row for f in facets]
    return [sum(1 << j for j, r in enumerate(rows) if sum(map(mul, r, hp)) == 0) for hp in hpts]


def _keep(tight: list[int], m: int) -> list[bool]:
    """Which of some distinct points of a full-dimensional polytope in R^m, all
    its vertices among them, are vertices: a non-vertex lies inside a face whose
    vertices are among the points, each tight wherever it is; a vertex's tight
    facets meet only there.  A vertex lies on at least m facets, and so does any
    point tight wherever such a point is, so only those points are compared."""
    many = [(i, t) for i, t in enumerate(tight) if t.bit_count() >= m]
    kept = {i for i, t in many if all(t & u != t for j, u in many if j != i)}
    return [i in kept for i in range(len(tight))]


def hull(points, ambient_dim: int | None = None) -> RationalPolytope:
    """Convex hull of full-dimension-spanning points: minimal V-rep plus facets.

    The points are cleared once to integer tuples, which dedup and sort as the
    points do; the vertices are the caller's points as Fraction tuples."""
    given = list(points)
    by_key = dict(zip(_homog_all(given), given))
    if not by_key:
        raise DegenerateError("no points given")
    hpts = sorted(by_key)
    m = ambient_dim if ambient_dim is not None else len(hpts[0]) - 1
    if any(len(hp) != m + 1 for hp in hpts):
        raise PolytopeError("points of mixed dimension")
    if m < 1:
        raise PolytopeError("hull needs points with at least one coordinate")
    try:
        facets, tight = facets_from_points(hpts, m)
    except DegenerateError:
        # the DD's pivot check: the dual rows span iff the points do
        raise DegenerateError("points do not span the full dimension") from None
    verts = [qvec(by_key[hp]) for hp, k in zip(hpts, _keep(tight, m)) if k]
    return RationalPolytope(tuple(verts), m, m, tuple(facets))


def hull_any(points, ambient_dim: int) -> RationalPolytope:
    """Hull that tolerates lower-dimensional and empty input (dim tag set).

    A Gauss-Jordan pass over the integer differences to the first point gives
    the pivot coordinates I; a hull of dimension |I| < m takes its vertices
    and relative facets from the hull of its projection onto I, and each
    free coordinate j adds the equation d u_j - sum_r M[r][j] u_I[r] = const
    (M the reduced rows, d the last pivot) as two opposite half-spaces."""
    m = ambient_dim
    pts = sorted({qvec(p) for p in points})
    for p in pts:
        if len(p) != m:
            raise PolytopeError(f"point has {len(p)} coordinates, expected {m}")
    if not pts:
        return RationalPolytope((), m, -1, ())
    (*P0, t), *rest = _homog_all(pts)
    M = [[x - y for x, y in zip(hp, P0)] for hp in rest]
    I = _bareiss(M, jordan=True)
    if len(I) == m:
        return hull(pts, m)
    verts, facets = pts[:1], []
    if I:
        proj = {tuple(p[i] for i in I): p for p in pts}
        inner = hull(list(proj), len(I))
        # each coordinate before a pivot is fixed by the earlier pivots, so points sort as their projections
        verts = [proj[v] for v in inner.vertices]
        facets = [HalfSpace(_lift(I, f.normal, m), f.offset) for f in inner.facets]
    d = M[0][I[0]] if I else 1
    for j in sorted(set(range(m)).difference(I)):
        n = _lift((j, *I), [d] + [-row[j] for row in M], m)
        b = Q(-sum(map(mul, n, P0)), t)
        facets += [HalfSpace(n, b), HalfSpace(tuple(-x for x in n), -b)]
    return RationalPolytope(tuple(verts), m, len(I), tuple(sorted(facets, key=lambda f: f.normal)))


def _lift(coords, values, m: int) -> tuple[int, ...]:
    """The vector of Z^m with the given values at the given coordinates, 0 elsewhere."""
    at = dict(zip(coords, values))
    return tuple(at.get(i, 0) for i in range(m))


def _dual(P: RationalPolytope, c, nu: int) -> RationalPolytope:
    """nu (P - c)^polar = {v : <u - c, v> + nu >= 0 for u in P}, for c strictly
    inside the full-dimensional P, read off P's minimal representations.

    Polarity swaps the face lattice: each facet <u, n> + b >= 0 gives the
    vertex nu n / (<c, n> + b), and each vertex u the facet
    <u - c, v> + nu >= 0.  With c = C/s and the vertices U/t over one common
    t, the facet row (den n, num) gives the vertex
    nu s den n / (<C, den n> + s num), and y = s U - t C with g = gcd(y) the
    facet with normal y/g and offset nu s t / g."""
    m = P.ambient_dim
    *C, s = _homog(c, m)
    rows = [(a, sum(map(mul, C, a)) + s * num) for *a, num in (f.row for f in P.facets)]
    L = math.lcm(*(d for _, d in rows))  # d = s den (value of the facet at c) > 0
    rows.sort(key=lambda r: [x * (L // r[1]) for x in r[0]])  # a/d over one denominator: the vertices' order
    verts = _fractions([(*(nu * s * x for x in a), d) for a, d in rows], m)
    facets = []
    for *U, t in _homog_all(P.vertices):
        y = [s * x - t * z for x, z in zip(U, C)]
        g = math.gcd(*y)
        facets.append((tuple(x // g for x in y), g))
    offsets = {g: Q(nu * s * t, g) for _, g in facets}  # t is the vertices' one common t
    return RationalPolytope(tuple(verts), m, m, tuple(HalfSpace(n, offsets[g]) for n, g in sorted(facets)))


def polar_dual(P: RationalPolytope) -> RationalPolytope:
    """Polar dual {v : <u,v> + 1 >= 0 for u in P}; needs 0 strictly interior."""
    P.require_full_dim()
    if not all(f.row[-1] > 0 for f in P.facets):  # a facet's value at the origin is its offset, of num's sign
        raise PolytopeError("polar dual needs the origin strictly inside")
    return _dual(P, (0,) * P.ambient_dim, 1)


def is_supporting(h: HalfSpace, P: RationalPolytope) -> bool:
    """True iff P lies in the half-space and touches its boundary hyperplane."""
    vals = [sum(map(mul, h.row, hp)) for hp in _homog_all(P.vertices)]
    return bool(vals) and min(vals) == 0


def lattice_points(P: RationalPolytope, q: int = 1) -> list[Point]:
    """All points of (1/q)Z^m inside P, in lexicographic order, one coordinate per depth.

    On k in Z^m the facet row (a, num) reads <a, k> + q num >= 0.  Over the
    integer box of q P, coordinate t adds at most M_t = max(a_t lo_t, a_t hi_t),
    so at depth j each row with a_j != 0 bounds k_j by one floor or ceiling
    division: a_j k_j + s + R_j >= 0, s the row's sum over the prefix and R_j
    the sum of M_t over t > j.  Inner bounds drop only empty subtrees, and
    past its last nonzero coefficient a row's bound is exact (R = 0).  A row
    with a_j = 0 needs no test: an earlier bound already gave s + R_j >= 0, or
    the row, failing, empties the interval at its first nonzero coefficient.
    """
    if type(q) is not int or q < 1:
        raise PolytopeError("q must be a positive integer")
    if P.is_empty:
        return []
    # ceil(q min x) = min ceil(q x) over the vertices, and likewise for floor and max
    nd = [[(q * x.numerator, x.denominator) for x in col] for col in zip(*P.vertices)]
    box = [(min(-(-n // d) for n, d in col), max(n // d for n, d in col)) for col in nd]
    cols = [[f.row[j] for f in P.facets] for j in range(P.ambient_dim)]
    most = [[a * (hi if a > 0 else lo) for a in col] for col, (lo, hi) in zip(cols, box)]
    lower = [[(i, a) for i, a in enumerate(col) if a > 0] for col in cols]
    upper = [[(i, -a) for i, a in enumerate(col) if a < 0] for col in cols]
    base = min(lo for lo, _ in box)
    coords = [Q(k, q) for k in range(base, max(hi for _, hi in box) + 1)]  # k / q, shared by the points
    out = []

    def walk(j, prefix, sums):  # sums hold s + R_j
        lo = max([box[j][0]] + [-(sums[i] // a) for i, a in lower[j]])
        hi = min([box[j][1]] + [sums[i] // a for i, a in upper[j]])
        if lo > hi:
            return
        at = coords[lo - base:hi - base + 1]
        if j == len(box) - 1:
            out.extend([prefix + (x,) for x in at])
            return
        sums = [s + a * lo - b for s, a, b in zip(sums, cols[j], most[j + 1])]  # adds a_j lo, moves to R_{j+1}
        for x in at:
            walk(j + 1, prefix + (x,), sums)
            sums = list(map(add, sums, cols[j]))

    walk(0, (), [q * f.row[-1] + sum(M[1:]) for f, M in zip(P.facets, zip(*most))])
    return out


# ---------------------------------------------------------------------------
# Q-Gorenstein Fano certification


@dataclass(frozen=True)
class QGFCertificate:
    """Certified center, size, and combinatorial dual of a QGF polytope.

    For every facet <u, n_F> >= beta_F (primitive integer inward normal) the
    center satisfies <u0, n_F> - beta_F = size; the combinatorial dual is the
    hull of the raw facet normals, read off `polytope` on first access and
    cached.  `center`, `size` and `dual_vertices` fix equality and the hash.
    """

    center: Point
    size: int
    dual_vertices: tuple[tuple[int, ...], ...]
    polytope: RationalPolytope = field(repr=False, compare=False)
    dual = functools.cached_property(lambda self: _dual(self.polytope, self.center, self.size))


def _qgf_identity(f: HalfSpace, C, s: int, size: int) -> bool:
    """<C/s, n> + offset == size on the facet (n, offset), in integers: <C, den n> + s num == size s den."""
    return sum(map(mul, C, f.row)) + s * f.row[-1] == size * s * f.offset.denominator


def qgf_solve(P: RationalPolytope) -> tuple[QGFCertificate | None, str]:
    """(certificate, diagnostic) for the Q-Gorenstein Fano property.

    Writes each facet as <u, n_F> >= beta_F with primitive integer inward
    normal and solves <u0, n_F> = beta_F + nu exactly; certifies only when nu
    is a positive integer.  One fraction-free elimination of the rows (den n_F,
    -den | -num), beta_F = -num/den, gives the rank and the solution, if any,
    and `_qgf_identity` checks it on every facet.  No dual is built here.
    """
    P.require_full_dim()
    m = P.ambient_dim
    M = [list(f.row[:m]) + [-f.offset.denominator, -f.row[m]] for f in P.facets]
    pivots = _bareiss(M, jordan=True)
    if sum(c <= m for c in pivots) < m + 1:
        return None, "facet normals do not pin a unique center and size"
    if pivots[-1] == m + 1:
        return None, "no common center: facet offsets are incompatible"
    # every pivot row ends with the last pivot on its pivot, in column r of row r
    center = tuple(Q(row[m + 1], row[r]) for r, row in enumerate(M[:m]))
    nu = Q(M[m][m + 1], M[m][m])
    if nu <= 0:
        return None, f"solved size {nu} is not positive"
    if nu.denominator != 1:
        return None, f"solved size {nu} is not an integer"
    # <center, n_F> + b_F = nu on every facet, so the dual's vertices are exactly the n_F
    cert = QGFCertificate(center, int(nu), tuple(sorted(f.normal for f in P.facets)), P)
    *C, s = _homog(center, m)
    for f in P.facets:
        if not _qgf_identity(f, C, s, cert.size):
            raise AssertionError(f"QGF identity fails on facet normal {f.normal}")
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


def _cut(P: RationalPolytope, h: HalfSpace):
    """The one cut rule: P's vertices, then the crossings, integer homogeneous
    over one t; their rows against h (0 at a crossing); and the pieces.

    A crossing is where the hyperplane meets a true edge (`_adjacent`), or for
    lower-dimensional P any segment, between vertices strictly on opposite
    sides.  If P is full-dimensional with vertices strictly on both sides,
    piece s = 1, -1 is the points with s row >= 0 and the facets tight at a
    vertex strictly on side s: with h facing side s, exactly that half's.
    """
    m = P.ambient_dim
    hpts = _homog_all(P.vertices)
    vals = [sum(map(mul, h.row, hp)) for hp in hpts]
    if not (vals and min(vals) < 0 < max(vals)):
        return hpts, vals, None
    tight = _tight_sets(P.facets, hpts) if P.is_full_dim else None
    crossings = []
    for i, j in itertools.combinations(range(len(hpts)), 2):
        a, b = vals[i], vals[j]
        # an edge lies on at least m - 1 facets, as in the double description's adjacency test
        if a * b >= 0 or tight and ((tight[i] & tight[j]).bit_count() < m - 1 or not _adjacent(tight, i, j)):
            continue
        # a and b are positive multiples of the values at the two vertices, so the crossing
        # is (a V_j - b V_i) / (a - b), here times (a - b)^2 > 0, in homogeneous coordinates
        crossings.append(primitive(tuple((a * y - b * x) * (a - b) for x, y in zip(hpts[i], hpts[j]))))
    T, t = hpts[0][m], math.lcm(hpts[0][m], *(c[m] for c in crossings))
    vals = [t // T * v for v in vals] + [0] * len(crossings)
    hpts = [tuple(t // p[m] * x for x in p) for p in hpts + crossings]
    pieces = []
    for s in (1, -1) if tight else ():
        held = functools.reduce(or_, (u for u, v in zip(tight, vals) if s * v > 0))
        facets = [f for j, f in enumerate(P.facets) if held >> j & 1]
        pieces.append(([i for i, v in enumerate(vals) if s * v >= 0], facets))
    return hpts, vals, pieces or None


def _polytope(m: int, hverts, facets) -> RationalPolytope:
    """The full-dimensional polytope with these facets and vertices (integer homogeneous, one t)."""
    verts = tuple(_fractions(sorted(hverts), m))
    return RationalPolytope(verts, m, m, tuple(sorted(facets, key=lambda f: f.normal)))


def crossing_points(P: RationalPolytope, h: HalfSpace) -> list[Point]:
    """The crossings of `_cut(P, h)` as Fraction points; P may be lower-dimensional."""
    return _fractions(_cut(P, h)[0][len(P.vertices):], P.ambient_dim)


def slice_polytope(P: RationalPolytope, h: HalfSpace) -> SliceResult:
    """The full-dimensional P cut by h (`_cut`).  The section is the hull of
    the points on the hyperplane, the only hull here.  A P on one side is
    that half, and the section the other; otherwise each half is its piece
    with h facing that side as the wall."""
    m = P.ambient_dim
    if len(h.normal) != m:
        raise PolytopeError(f"hyperplane normal has {len(h.normal)} entries, polytope is in R^{m}")
    P.require_full_dim()
    hpts, vals, pieces = _cut(P, h)
    section = hull_any([tuple(Q(x, hp[m]) for x in hp[:m]) for hp, v in zip(hpts, vals) if v == 0], m)
    if pieces is None:
        return SliceResult(section, P, section) if max(vals) > 0 else SliceResult(section, section, P)
    walls = (h, HalfSpace(tuple(-x for x in h.normal), -h.offset))
    plus, minus = (_polytope(m, [hpts[i] for i in idx], facets + [w]) for (idx, facets), w in zip(pieces, walls))
    return SliceResult(section, plus, minus)
