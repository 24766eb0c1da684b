"""Exact rational polytopes: hulls, facets, duals, lattice points, QGF certificates.

The kernel is integer and has no floating point: vertices are stored as
integer homogeneous rows (`RationalPolytope.hverts`), caller points are
cleared to them only in `hull` and `hull_any`, Fraction is a view for
callers (vertices, offsets, centers), and every membership, side and
tightness test is the sign of a facet row against the rows.  `HalfSpace`
alone fixes the facet format: one primitive integer row (den normal, num),
which every builder makes directly (`_facet`) and by which the constructor
orders facets; the normal and the Fraction offset are views of it, built on
first read, and in the kernel only `QGFCertificate.dual_vertices` reads one.
Two vertices span an edge, and a double-description ray pair is adjacent, by one
rule (`_adjacent`).  Only `vertices_from_facets` and `_hull`, the hull step of
`hull`, `hull_any` and slice sections, run the double description, on a
homogenization cone of integer rows (`_bounded_rays`); `_hull` reads each facet
and the points on it off an integer ray of the polar dual about the centroid
(`facets_from_points`): the 3^9 points of {0, 1, 2}^9 take 2.2-2.5 s (Python
3.11, one core of a Xeon), the cube's 512 vertices among them.  The polar and
QGF duals are read off the face lattice with no hull (`_dual`); `qgf_solve`
eliminates only the facet rows that pin its solution (`_bareiss`).  One
function (`_cut`) cuts a polytope by the hyperplane of an integer row: it gives
the crossings and both pieces, each piece's facets read off the tight sets it
computes.  A refused tropical image reads a side's facets off the rows at that
side's vertices alone (`_held`).  Every non-empty polytope carries integer facet
rows, whatever its dimension (`hull_any`), so one sign test decides membership.
`lattice_points` walks the coordinates in an order read off the polytope,
narrowest integer box first, and returns its points in lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import add, itemgetter, mul, or_

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
)

Point = tuple[Q, ...]


class PolytopeError(ValueError):
    pass


class DegenerateError(PolytopeError):
    """Input does not span the full ambient dimension."""


@dataclass(frozen=True, init=False, repr=False)
class HalfSpace:
    """Closed half-space {u : <u, normal> + offset >= 0}.

    It stores one thing, `row`: the primitive integer vector (den normal, num)
    with normal the primitive integer vector of its direction and offset =
    num/den, so den is the gcd of the row's normal part.  Equal half-spaces
    have one row however they were written, and equality and the hash compare
    it.  On the homogeneous coordinates (t p, t) of a point p (`_homog`) the
    row sums to den t value(p), of the same sign.  `normal` and `offset` are
    views, built on first read.  The constructor normalises caller data once,
    so `value` is a positive multiple of the given form; the kernel hands its
    rows, primitive already, to `_facet`.
    """

    row: tuple[int, ...]

    def __init__(self, normal, offset):
        if is_zero(normal):
            raise PolytopeError("half-space normal must be nonzero")
        object.__setattr__(self, "row", primitive(_clear(qvec((*normal, offset)))))

    @functools.cached_property
    def normal(self) -> tuple[int, ...]:
        g = math.gcd(*self.row[:-1])
        return tuple(x // g for x in self.row[:-1])

    @functools.cached_property
    def offset(self) -> Q:
        return Q(self.row[-1], math.gcd(*self.row[:-1]))

    def __repr__(self):
        return f"HalfSpace(normal={self.normal!r}, offset={self.offset!r})"

    def value(self, p) -> Q:
        if len(p) != len(self.row) - 1:
            raise PolytopeError(f"point has {len(p)} coordinates, expected {len(self.row) - 1}")
        return dot(p, self.normal) + self.offset

    def contains(self, p) -> bool:
        return sum(map(mul, self.row, _homog(p, len(self.row) - 1))) >= 0

    def on_boundary(self, p) -> bool:
        return sum(map(mul, self.row, _homog(p, len(self.row) - 1))) == 0


def _facet(row: tuple[int, ...]) -> HalfSpace:
    """The half-space of a primitive integer row (den normal, num) made by the kernel, taken as it is."""
    h = object.__new__(HalfSpace)
    object.__setattr__(h, "row", row)
    return h


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


def _dd_extreme_rays(constraints: list[tuple[int, ...]], d: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of {x in R^d : a.x >= 0 for all integer rows a}, for pointed
    cones, and beside them their tight sets: bit i of a ray's set is set iff a_i.x = 0.

    Each row is divided once by its content (a positive scale leaves the cone
    unchanged), so all arithmetic stays in int.  Starts from the
    simplicial subcone on the first d independent constraints and adds the rest
    incrementally; adjacency is decided combinatorially on tight sets (bitsets)
    by `_adjacent`.  A ray stays exactly tight on every constraint added: a
    positive combination of two rays is tight only where both are.
    """
    rows = [primitive(c) for c in constraints]
    chosen = sorted(i for _, i, _ in _bareiss(rows, d))  # each constraint independent of those before it
    if len(chosen) < d:
        raise DegenerateError("constraint normals do not span; cone is not pointed")
    # [A | I] -> [D I | D A^-1], so D times column j of D A^-1 is a positive multiple of ray j
    M = [row for *_, row in _bareiss([list(rows[i]) + [int(i == j) for j in chosen] for i in chosen], d)]
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
    The facet's row is primitive((N den y, t N den - <S, y>)), read straight
    off the integer ray (y, t).  A point lies on that facet iff its dual
    constraint is tight at the ray.  The facets come in ray order, which the
    point bitsets index; the constructor orders them."""
    N = len(hpts)
    den = hpts[0][m]
    S = [sum(col) for col in zip(*hpts)][:m]
    rows = [tuple(N * x - s for x, s in zip(p, S)) + (N * den,) for p in hpts]
    # a point equal to the centroid is interior and adds no dual constraint
    held = [i for i, r in enumerate(rows) if any(r[:m])]
    facets, tight = [], [0] * N
    for j, ((*y, t), bits) in enumerate(zip(*_bounded_rays([rows[i] for i in held], m))):
        facets.append(_facet(primitive((*(N * den * x for x in y), t * N * den - sum(map(mul, S, y))))))
        on = bin(bits)[:1:-1]  # on[i] is "1" iff the ray is tight at row held[i]
        i = on.find("1")
        while i >= 0:
            tight[held[i]] |= 1 << j
            i = on.find("1", i + 1)
    return facets, tight


# ---------------------------------------------------------------------------
# Polytopes


@dataclass(frozen=True)
class RationalPolytope:
    """Rational polytope by minimal V-representation and integer facet rows.

    `hverts` are the vertices as integer homogeneous rows (t p, t) over one
    t > 0.  The constructor alone canonicalises them: it sorts the rows, so
    they sort as the points do, and divides out the gcd of all entries, so t
    is the least common denominator and equality and the hash compare rows.
    It sorts the facets by row, the one place that orders them: rows are
    primitive, so distinct facets have distinct rows and the order is
    canonical.  `vertices` is a read-only Fraction view, built on first
    read.  Both lists are minimal for full-dimensional
    polytopes, and `_dual` relies on it.  A lower-dimensional polytope
    (`hull_any`) carries its `dim` tag, and its `facets` are its relative
    facets lifted to R^m plus its affine hull's equations as pairs of
    opposite half-spaces; the empty one (dim -1) has no vertices or facets.
    """

    hverts: tuple[tuple[int, ...], ...]
    ambient_dim: int
    dim: int
    facets: tuple[HalfSpace, ...]
    vertices = functools.cached_property(lambda self: tuple(_fractions(self.hverts, self.ambient_dim)))

    def __post_init__(self):
        rows = sorted(self.hverts)
        g = math.gcd(*itertools.chain.from_iterable(rows))
        object.__setattr__(self, "hverts", tuple(tuple(x // g for x in r) for r in rows) if g > 1 else tuple(rows))
        object.__setattr__(self, "facets", tuple(sorted(self.facets, key=lambda f: f.row)))

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
        # t = C/s moves a row (T p, T) to (s T p + T C, s T), and a facet row (a, num) to (s a, s num - <C, a>)
        *C, s = _homog(qvec(t), self.ambient_dim)
        hverts = [(*(s * x + hp[-1] * y for x, y in zip(hp, C)), s * hp[-1]) for hp in self.hverts]
        rows = [(*(s * x for x in a), s * num - sum(map(mul, C, a))) for *a, num in (f.row for f in self.facets)]
        return RationalPolytope(hverts, self.ambient_dim, self.dim, [_facet(primitive(r)) for r in rows])

    def scale(self, c) -> "RationalPolytope":
        c = Q(c)
        if c <= 0:
            raise PolytopeError("scale factor must be positive")
        # c = p/q moves a row (T u, T) to (p T u, q T), and a facet row (a, num) to (q a, p num)
        p, q = c.numerator, c.denominator
        hverts = [(*(p * x for x in hp[:-1]), q * hp[-1]) for hp in self.hverts]
        rows = [(*(q * x for x in a), p * num) for *a, num in (f.row for f in self.facets)]
        return RationalPolytope(hverts, self.ambient_dim, self.dim, [_facet(primitive(r)) for r in rows])

    def bounding_box(self) -> list[tuple[Q, Q]]:
        if self.is_empty:
            raise PolytopeError("the empty polytope has no bounding box")
        *cols, (t, *_) = zip(*self.hverts)
        return [(Q(min(col), t), Q(max(col), t)) for col in cols]

    def __eq__(self, other):
        same = isinstance(other, RationalPolytope)
        return same and (self.ambient_dim, self.hverts) == (other.ambient_dim, other.hverts)

    def __hash__(self):
        return hash((self.ambient_dim, self.hverts))


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

    The points are cleared once to integer homogeneous rows over one common
    t, which dedup and sort as the points do; the rows of the vertices among
    them go to the constructor."""
    hpts = sorted(set(_homog_all(list(points))))
    if not hpts:
        raise DegenerateError("no points given")
    m = ambient_dim if ambient_dim is not None else len(hpts[0]) - 1
    if any(len(hp) != m + 1 for hp in hpts):
        raise PolytopeError("points of mixed dimension")
    return _hull(hpts, m)


def _hull(hpts: list[tuple[int, ...]], m: int) -> RationalPolytope:
    """The hull step of `hull`, `hull_any` and slice sections, on sorted distinct rows over one t."""
    if m < 1:
        raise PolytopeError("hull needs points with at least one coordinate")
    try:
        facets, tight = facets_from_points(hpts, m)
    except DegenerateError:
        # the DD's pivot check: the dual rows span iff the points do
        raise DegenerateError("points do not span the full dimension") from None
    return RationalPolytope([hp for hp, k in zip(hpts, _keep(tight, m)) if k], m, m, facets)


def hull_any(points, ambient_dim: int) -> RationalPolytope:
    """Hull that tolerates lower-dimensional and empty input (dim tag set).

    A Gauss-Jordan pass over the integer differences to the first point gives
    the pivot coordinates I; a hull of dimension |I| < m takes its vertices
    and relative facets from the hull of its projection onto I, and each
    free coordinate j adds the equation d u_j - sum_r M[r][j] u_I[r] = const
    (M the reduced rows, d the last pivot) as a row and its negation."""
    pts = {qvec(p) for p in points}
    for p in pts:
        if len(p) != ambient_dim:
            raise PolytopeError(f"point has {len(p)} coordinates, expected {ambient_dim}")
    return _hull_any(sorted(_homog_all(pts)), ambient_dim)


def _hull_any(hpts: list[tuple[int, ...]], m: int) -> RationalPolytope:
    """`hull_any` of distinct sorted integer homogeneous rows over one t."""
    if not hpts:
        return RationalPolytope((), m, -1, ())
    (*P0, t), *rest = hpts
    kept = _bareiss([[x - y for x, y in zip(hp, P0)] for hp in rest], m)
    I, M = [c for c, *_ in kept], [row for *_, row in kept]
    if len(I) == m:
        return _hull(hpts, m)
    verts, facets = hpts[:1], []
    if I:
        # the pivot coordinates fix the rest, and the inner hull's common t divides t
        proj = {tuple(hp[i] for i in I): hp for hp in hpts}
        inner = _hull([(*x, t) for x in sorted(proj)], len(I))
        verts = [proj[tuple(x * (t // r[-1]) for x in r[:-1])] for r in inner.hverts]
        facets = [(*_lift(I, f.row[:-1], m), f.row[-1]) for f in inner.facets]
    d = M[0][I[0]] if I else 1
    for j in sorted(set(range(m)).difference(I)):
        n = _lift((j, *I), [d] + [-row[j] for row in M], m)
        row = primitive((*(t * x for x in n), -sum(map(mul, n, P0))))  # <u, n> = <P0, n> / t
        facets += [row, tuple(-x for x in row)]
    return RationalPolytope(verts, m, len(I), [_facet(row) for row in facets])


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
    nu s den n / (<C, den n> + s num), and y = s U - t C the facet row
    primitive((y, nu s t))."""
    m = P.ambient_dim
    *C, s = _homog(c, m)
    rows = [(a, sum(map(mul, C, a)) + s * num) for *a, num in (f.row for f in P.facets)]
    L = math.lcm(*(d for _, d in rows))  # d = s den (value of the facet at c) > 0
    hverts = [(*(nu * s * (L // d) * x for x in a), L) for a, d in rows]
    t = P.hverts[0][m]  # the vertices' one common t
    facets = [_facet(primitive((*(s * x - t * z for x, z in zip(U, C)), nu * s * t))) for *U, _ in P.hverts]
    return RationalPolytope(hverts, m, m, facets)


def polar_dual(P: RationalPolytope) -> RationalPolytope:
    """Polar dual {v : <u,v> + 1 >= 0 for u in P}; needs 0 strictly interior."""
    P.require_full_dim()
    if not all(f.row[-1] > 0 for f in P.facets):  # a facet's value at the origin is its offset, of num's sign
        raise PolytopeError("polar dual needs the origin strictly inside")
    return _dual(P, (0,) * P.ambient_dim, 1)


def is_supporting(h: HalfSpace, P: RationalPolytope) -> bool:
    """True iff P lies in the half-space and touches its boundary hyperplane."""
    if len(h.row) != P.ambient_dim + 1:
        raise PolytopeError(f"half-space normal has {len(h.row) - 1} entries, polytope is in R^{P.ambient_dim}")
    vals = [sum(map(mul, h.row, hp)) for hp in P.hverts]
    return bool(vals) and min(vals) == 0


def lattice_points(P: RationalPolytope, q: int = 1) -> list[Point]:
    """All points of (1/q)Z^m inside P, in lexicographic order, one coordinate per depth.

    On k in Z^m the facet row (a, num) reads <a, k> + q num >= 0.  Over the
    integer box of q P, coordinate t adds at most M_t = max(a_t lo_t, a_t hi_t),
    so at depth j each row with a_j != 0 bounds k_j by one floor or ceiling
    division: a_j k_j + s + R_j >= 0, s the row's sum over the prefix and R_j
    the sum of M_t over the coordinates after depth j.  Inner bounds drop only
    empty subtrees, and past its last nonzero coefficient a row's bound is
    exact (R = 0).  A row with a_j = 0 needs no test: an earlier bound already
    gave s + R_j >= 0, or the row, failing, empties the interval at its first
    nonzero coefficient.

    The walk takes the coordinates in an order read off P: the narrowest
    integer box of q P first, then the coordinate more facet rows read, then
    the lower index, so the widest comes last, where a whole interval is
    emitted at once.  A point's place in the lexicographic order of the
    original coordinates is a mixed-radix integer over the box; a reordered
    walk sorts its points by place alone and returns the list the given order
    would.  On the paper's G2 stage duals it visits 1,644 prefixes, against
    55,743 in the given order.
    """
    if type(q) is not int or q < 1:
        raise PolytopeError("q must be a positive integer")
    if P.is_empty:
        return []
    m = P.ambient_dim
    # the integer box of q P: ceil(q min / t) to floor(q max / t) over each column of rows (t p, t)
    *cols, (t, *_) = zip(*P.hverts)
    box = [(-(-q * min(col) // t), q * max(col) // t) for col in cols]
    cols = [[f.row[j] for f in P.facets] for j in range(m)]
    order = [c for *_, c in sorted((hi - lo, col.count(0), c) for c, ((lo, hi), col) in enumerate(zip(box, cols)))]
    # a point's place in lexicographic order: coordinate c counts the product of the box widths after c
    place = list(itertools.accumulate([hi - lo + 1 for lo, hi in box[:0:-1]], mul, initial=1))[::-1]
    box, cols, place = ([v[c] for c in order] for v in (box, cols, place))
    most = [[a * (hi if a > 0 else lo) for a in col] for col, (lo, hi) in zip(cols, box)]
    lower = [[(i, a) for i, a in enumerate(col) if a > 0] for col in cols]
    upper = [[(i, -a) for i, a in enumerate(col) if a < 0] for col in cols]
    base = min(lo for lo, _ in box)
    coords = [Q(k, q) for k in range(base, max(hi for _, hi in box) + 1)]  # k / q, shared by the points
    out, places = [], []

    def walk(j, prefix, sums, key):  # sums hold s + R_j; key the prefix's share of the place
        lo = max([box[j][0]] + [-(sums[i] // a) for i, a in lower[j]])
        hi = min([box[j][1]] + [sums[i] // a for i, a in upper[j]])
        if lo > hi:
            return
        at, step = coords[lo - base:hi - base + 1], place[j]
        key += lo * step
        if j == m - 1:
            out.extend([prefix + (x,) for x in at])
            places.append(range(key, key + len(at) * step, step))
            return
        sums = [s + a * lo - b for s, a, b in zip(sums, cols[j], most[j + 1])]  # adds a_j lo, moves to R_{j+1}
        for x in at:
            walk(j + 1, prefix + (x,), sums, key)
            sums = list(map(add, sums, cols[j]))
            key += step

    walk(0, (), [q * f.row[-1] + sum(M[1:]) for f, M in zip(P.facets, zip(*most))], 0)
    if order == sorted(order):
        return out
    # the walk's tuples in the order of their places, put back in the original coordinates
    keys = list(itertools.chain.from_iterable(places))
    ranked = map(out.__getitem__, sorted(range(len(keys)), key=keys.__getitem__))
    return list(map(itemgetter(*sorted(range(m), key=order.__getitem__)), ranked))


# ---------------------------------------------------------------------------
# Q-Gorenstein Fano certification


@dataclass(frozen=True)
class QGFCertificate:
    """Certified center and size of a QGF polytope: for every facet <u, n_F> >= beta_F (primitive
    integer inward normal) the center satisfies <u0, n_F> - beta_F = size.  `dual_vertices`, the
    sorted facet normals, and `dual`, their hull, are read off `polytope` on first access and
    cached.  `center`, `size` and `polytope` fix equality and the hash: given the center and the
    size, the normals fix the facets, so this is equality of center, size and dual vertices."""

    center: Point
    size: int
    polytope: RationalPolytope = field(repr=False)
    dual_vertices = functools.cached_property(lambda self: tuple(sorted(f.normal for f in self.polytope.facets)))
    dual = functools.cached_property(lambda self: _dual(self.polytope, self.center, self.size))


def _qgf_identity(f: HalfSpace, C, s: int, size: int | Q) -> bool:
    """<C/s, n> + offset == size on the facet (n, offset), in integers: <C, den n> + s num == size s den,
    den the gcd of the row's normal part; homogeneous in (C, s), so s may have either sign."""
    return sum(map(mul, C, f.row)) + s * f.row[-1] == size * s * math.gcd(*f.row[:-1])


def qgf_solve(P: RationalPolytope) -> tuple[QGFCertificate | None, str]:
    """(certificate, diagnostic) for the Q-Gorenstein Fano property.

    Writes each facet as <u, n_F> >= beta_F with primitive integer inward
    normal and solves <u0, n_F> = beta_F + nu exactly; certifies only when nu
    is a positive integer.  The rows (den n_F, -den | -num), beta_F =
    -num/den and den the gcd of den n_F, pin (u0, nu) iff m + 1 of them are
    independent; `_bareiss` solves the first such, normally the first m + 1, and
    `_qgf_identity` then decides every facet: it fails on one iff the offsets
    have no common center.  No dual and no normal view is built here.
    """
    P.require_full_dim()
    m = P.ambient_dim
    M = [row for *_, row in _bareiss([(*f.row[:m], -math.gcd(*f.row[:m]), -f.row[m]) for f in P.facets], m + 1)]
    if len(M) < m + 1:
        return None, "facet normals do not pin a unique center and size"
    # every row ends with the last pivot s on its pivot, in column r of row r: center = C / s, nu = M[m][m + 1] / s
    C, s, nu = [row[m + 1] for row in M[:m]], M[m][m], Q(M[m][m + 1], M[m][m])
    if not all(_qgf_identity(f, C, s, nu.numerator if nu.denominator == 1 else nu) for f in P.facets):
        return None, "no common center: facet offsets are incompatible"
    if nu <= 0:
        return None, f"solved size {nu} is not positive"
    if nu.denominator != 1:
        return None, f"solved size {nu} is not an integer"
    return QGFCertificate(tuple(Q(c, s) for c in C), int(nu), P), "ok"


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


def _cut(P: RationalPolytope, row: tuple[int, ...]):
    """The one cut of P by the hyperplane of an integer row (a, num): P's vertices, then the
    crossings, integer homogeneous over one t; their values against the row (0 at a crossing);
    the pieces, None unless P is full-dimensional with vertices strictly on both sides.

    A crossing is where the hyperplane meets a true edge (`_adjacent`), or for
    lower-dimensional P any segment, between vertices strictly on opposite
    sides.  Piece s = 1, -1 is the points with s value >= 0 and the facets
    tight at a vertex strictly on side s, read off P's tight sets: with the
    row facing side s, exactly that half's.
    """
    m, hpts = P.ambient_dim, list(P.hverts)
    if len(row) != m + 1:
        raise PolytopeError(f"hyperplane normal has {len(row) - 1} entries, polytope is in R^{m}")
    vals = [sum(map(mul, row, hp)) for hp in hpts]
    if not (vals and min(vals) < 0 < max(vals)):
        return hpts, vals, None
    tight = _tight_sets(P.facets, hpts) if P.is_full_dim else None
    sides = [[i for i, v in enumerate(vals) if s * v > 0] for s in (1, -1)]
    crossings = []
    for i, j in sorted((min(a, b), max(a, b)) for a in sides[0] for b in sides[1]):
        # an edge lies on at least m - 1 facets, as in the double description's adjacency test
        if tight and ((tight[i] & tight[j]).bit_count() < m - 1 or not _adjacent(tight, i, j)):
            continue
        # a and b are positive multiples of the values at the two vertices, so the crossing
        # is (a V_j - b V_i) / (a - b), here times (a - b)^2 > 0, in homogeneous coordinates
        a, b = vals[i], vals[j]
        crossings.append(primitive(tuple((a * y - b * x) * (a - b) for x, y in zip(hpts[i], hpts[j]))))
    T, t = hpts[0][m], math.lcm(hpts[0][m], *(c[m] for c in crossings))
    vals = [t // T * v for v in vals] + [0] * len(crossings)
    hpts = [tuple(t // p[m] * x for x in p) for p in hpts + crossings]
    if not tight:
        return hpts, vals, None
    held = [functools.reduce(or_, [tight[i] for i in ix]) for ix in sides]  # bit j: facet j is tight on that side
    fs = [[f for j, f in enumerate(P.facets) if bits >> j & 1] for bits in held]
    return hpts, vals, [([i for i, v in enumerate(vals) if s * v >= 0], f) for s, f in zip((1, -1), fs)]


def _held(P: RationalPolytope, ix: list[int]):
    """The facets of P tight at one of its vertices ix, lazily, in order, read off the rows at those
    vertices alone, a facet at a time: a refused tropical image reads no other incidence."""
    hps = [P.hverts[i] for i in ix]
    return (f for f in P.facets if any(sum(map(mul, f.row, hp)) == 0 for hp in hps))


def crossing_points(P: RationalPolytope, h: HalfSpace) -> list[Point]:
    """The crossings of `_cut(P, h.row)` as Fraction points; P may be lower-dimensional."""
    return _fractions(_cut(P, h.row)[0][len(P.hverts):], P.ambient_dim)


def slice_polytope(P: RationalPolytope, h: HalfSpace) -> SliceResult:
    """The full-dimensional P cut by h's row (`_cut`).  The section is the hull of
    the points on the hyperplane, the only hull here.  A P on one side is
    that half, and the section the other; otherwise each half is its piece
    with h facing that side as the wall."""
    m = P.ambient_dim
    P.require_full_dim()
    hpts, vals, pieces = _cut(P, h.row)
    section = _hull_any(sorted({hp for hp, v in zip(hpts, vals) if v == 0}), m)
    if pieces is None:
        return SliceResult(section, P, section) if max(vals) > 0 else SliceResult(section, section, P)
    walls = (h, _facet(tuple(-x for x in h.row)))
    plus, minus = (RationalPolytope([hpts[i] for i in idx], m, m, fs + [w]) for (idx, fs), w in zip(pieces, walls))
    return SliceResult(section, plus, minus)
