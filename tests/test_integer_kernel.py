"""Differential tests of the integer polytope kernel against the Fraction
oracle in fraction_oracle.py: double description, Bareiss rank, solve, rref
and inverse, lattice enumeration pruned at every depth of a reordered walk,
the edge and affine-basis rules of `crossing_points` and `hull_any`, the integer rows of
flat hulls against the Fraction affine chart, hull facets read off the dual
cone's integer rays, tropical mutation of polytopes by one point map, the
sign tests, crossings, hull input and `qgf_solve` on integer rows, moves and
slices against the Fraction volume, the polar and QGF duals read off the
face lattice, the QGF identity and center fixedness checked on integer
homogeneous coordinates, the halves that slicing reads off the one cut
rule against hulls of each side's vertices and crossings, and the hull's
incidence read off the double description, its vertex filter, the Fraction
exit and direct facets against sign tests and plain constructions."""

import itertools
import math
import random
from fractions import Fraction as Q
from operator import mul

import fraction_oracle as oracle
import pytest
from fraction_oracle import vadd

from clustrop import polytopes
from clustrop.glsseed import gls_exchange_matrix
from clustrop.linalg import _bareiss, _clear, dot, mat_inverse, rank, rref, solve
from clustrop.polytopes import (
    DegenerateError,
    HalfSpace,
    PolytopeError,
    RationalPolytope,
    _dd_extreme_rays,
    _homog,
    _qgf_identity,
    crossing_points,
    halfspace,
    hull,
    hull_any,
    is_supporting,
    lattice_points,
    polar_dual,
    qgf_solve,
    slice_polytope,
    vertices_from_facets,
)
from clustrop.rootsys import cartan_matrix
from clustrop.tropical import CenterReport, center_fixedness, trop_mutate_point, trop_mutate_polytope
from genutil import gelfand_tsetlin, random_exchange, random_polytope_with_interior_origin, random_qgf_polytope, walk_log


def rat(rng, span=4, dens=(1, 2, 3)):
    return Q(rng.randint(-span, span), rng.choice(dens))


def random_simplex(rng, m):
    """Simplex around the origin with rational vertices."""
    pts = [tuple(Q(rng.randint(1, 5), rng.choice([1, 2, 3])) if j == i else Q(0) for j in range(m)) for i in range(m)]
    pts.append(tuple(-Q(rng.randint(1, 5), rng.choice([1, 2, 3])) for _ in range(m)))
    return hull(pts, m)


# ---------------------------------------------------------------------------
# (a) double description


def test_dd_rays_match_fraction_oracle():
    rng = random.Random(401)
    compared = degenerate = with_rays = 0
    for _ in range(300):
        d = rng.randint(2, 5)
        if rng.random() < 0.5:
            # the homogenized H-representation that vertices_from_facets builds
            P = random_polytope_with_interior_origin(rng, d - 1) if d > 2 else random_simplex(rng, 1)
            cons = [tuple(f.normal) + (f.offset,) for f in P.facets] + [tuple([Q(0)] * (d - 1) + [Q(1)])]
        else:
            # normals in one hyperplane do not span, so that cone is not pointed
            flat = rng.random() < 0.1
            cons, size = [], rng.randint(d - 1, d + 6)
            while len(cons) < size:
                row = tuple(rat(rng) for _ in range(d - flat)) + (Q(0),) * flat
                if any(row):
                    cons.append(row)
            # a positively scaled copy and a repeat must not change the cone
            cons.append(tuple(Q(rng.randint(1, 5), rng.randint(1, 5)) * x for x in rng.choice(cons)))
            cons.append(rng.choice(cons))
            rng.shuffle(cons)
        # the DD takes integer rows: clearing each row's denominators is a positive scale
        cons = [tuple(_clear(a)) for a in cons]
        try:
            want = oracle._dd_extreme_rays(cons, d)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                _dd_extreme_rays(cons, d)
            degenerate += 1
            continue
        got, tight = _dd_extreme_rays(cons, d)
        assert len(got) == len(set(got))
        assert set(got) == set(want)
        # each ray's tight set is exact over every constraint, repeats and scaled copies too
        assert tight == [sum(1 << c for c, a in enumerate(cons) if dot(a, r) == 0) for r in got]
        compared += 1
        with_rays += len(got) > 0
    assert compared > 200 and with_rays > 150 and degenerate > 10


def _brute_force_vertices(halves, m):
    """Every m facets whose normals are independent meet in one point; keep
    the points that satisfy all half-spaces."""
    verts = set()
    for sub in itertools.combinations(halves, m):
        A = [h.normal for h in sub]
        if oracle.rank(A) < m:
            continue
        x = oracle.solve(A, [-h.offset for h in sub])
        if all(h.contains(x) for h in halves):
            verts.add(x)
    return sorted(verts)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vertices_from_facets_match_brute_force(m):
    rng = random.Random(410 + m)
    for case in range(30 if m < 4 else 12):
        P = random_simplex(rng, m) if m == 1 or m == 4 or case % 2 else random_polytope_with_interior_origin(rng, m)
        halves = list(P.facets)
        # cuts through the interior keep the origin inside, so the result stays bounded
        for _ in range(rng.randint(0, 3)):
            n = tuple(rng.randint(-3, 3) for _ in range(m))
            if any(n):
                halves.append(halfspace(n, Q(rng.randint(1, 6), rng.choice([1, 2]))))
        got = vertices_from_facets(halves, m)
        assert got == _brute_force_vertices(halves, m)
        if len(halves) == len(P.facets):
            assert tuple(got) == P.vertices


def test_vertices_from_facets_rejects_unbounded_intersections():
    # a quadrant and a wedge above |x| + 1: each has a ray with t = 0 in its homogenization cone
    for halves in ([halfspace((1, 0), 0), halfspace((0, 1), 0)], [halfspace((-1, 1), -1), halfspace((1, 1), -1)]):
        with pytest.raises(PolytopeError, match="^half-space intersection is unbounded$"):
            vertices_from_facets(halves, 2)


# ---------------------------------------------------------------------------
# (b) Bareiss rank and solve


def _random_matrix(rng, rows, cols):
    A = [[rat(rng, 3) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and cols and rng.random() < 0.5:
        # a row that is a combination of two others makes the matrix singular
        i, j, k = (rng.randrange(rows) for _ in range(3))
        A[i] = [rat(rng, 2) * a + rat(rng, 2) * b for a, b in zip(A[j], A[k])]
    if rows and rng.random() < 0.3:
        A[rng.randrange(rows)] = [Q(0)] * cols
    return [tuple(r) for r in A]


def test_rank_and_solve_match_fraction_oracle():
    rng = random.Random(420)
    shapes = {"square": 0, "tall": 0, "wide": 0}
    singular = inconsistent = 0
    for _ in range(1500):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        A = _random_matrix(rng, r, c)
        want_rank = oracle.rank(A)
        assert rank(A) == want_rank
        singular += want_rank < min(r, c)
        shapes["square" if r == c else "tall" if r > c else "wide"] += 1
        if rng.random() < 0.5 and c:
            x0 = [rat(rng) for _ in range(c)]
            b = [sum((a * x for a, x in zip(row, x0)), Q(0)) for row in A]
        else:
            b = [rat(rng) for _ in range(r)]
        want = oracle.solve(A, b)
        assert solve(A, b) == want
        inconsistent += want is None
    assert min(shapes.values()) > 200 and singular > 200 and inconsistent > 100


def test_rank_and_solve_edge_cases():
    assert rank([]) == 0 and solve([], []) == ()
    assert rank([(0, 0), (0, 0)]) == 0
    assert solve([(0, 0), (0, 0)], [0, 0]) == (0, 0)
    assert solve([(0, 0)], [1]) is None
    assert solve([(), ()], [0, Q(1, 2)]) is None
    assert solve([(1, 2), (2, 4)], [1, 3]) is None
    assert solve([(Q(1, 2), 1, 0), (0, 0, Q(2, 3))], [1, 2]) == (2, 0, 3)


def test_rref_and_mat_inverse_match_fraction_oracle():
    """The Bareiss adapters give the Gauss-Jordan matrix, its pivots and the
    inverse (or the singular error) on rank-deficient, rectangular, singular,
    zero-row and empty inputs."""
    rng = random.Random(425)
    inverted = singular = 0
    for _ in range(1500):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        A = _random_matrix(rng, r, c)
        got = rref(A)
        assert got == oracle.rref(A) and all(type(x) is Q for row in got[0] for x in row)
        try:
            want = oracle.mat_inverse(A)
        except ValueError:
            with pytest.raises(ValueError, match="matrix is singular"):
                mat_inverse(A)
            singular += r == c
        else:
            assert mat_inverse(A) == want
            inverted += 0 < r == c
    assert inverted > 50 and singular > 50
    for A in ([], [()], [(), ()], [(0, 0, 0)], [(0,), (Q(1, 2),)]):
        assert rref(A) == oracle.rref(A)
    assert mat_inverse([]) == () and mat_inverse([(Q(2, 3),)]) == ((Q(3, 2),),)
    with pytest.raises(ValueError, match="matrix is singular"):
        mat_inverse([(0, 0), (0, 0)])


# ---------------------------------------------------------------------------
# (c) lattice points, pruned at every depth, walked in an order read off the polytope


def _walked(P, q, orders):
    """lattice_points(P, q), with the coordinate order of its walk appended to orders."""
    with walk_log() as log:
        got = lattice_points(P, q)
    orders += [order for order, _ in log]
    return got


def _reordered(orders) -> bool:
    return any(order != sorted(order) for order in orders)


def _thin_polytope(rng, m):
    """A sliver along a diagonal: most box prefixes have an empty fiber."""
    length, top = (rng.randint(3, 5), 3) if m < 3 else (2, 1)
    d = tuple(rng.choice([-1, 1]) * Q(rng.randint(1, top), rng.randint(1, 2)) for _ in range(m))
    pts = [tuple(t * x for x in d) for t in (0, length)]
    for i in range(m):
        pts.append(tuple(x + (Q(1, rng.choice([3, 4, 5])) if j == i else 0) for j, x in enumerate(pts[1])))
    return hull(pts, m)


def _cloud(rng, m):
    """Rational points in a box small enough for the oracle's full scan."""
    span, dens = {1: (6, (1, 2, 3)), 2: (6, (1, 2, 3)), 3: (3, (1, 2, 3))}.get(m, (2, (2, 3)))
    while True:
        try:
            return hull([tuple(rat(rng, span, dens) for _ in range(m)) for _ in range(m + rng.randint(1, 4))], m)
        except DegenerateError:
            continue


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_fiber_lattice_points_match_box_scan(m):
    rng = random.Random(430 + m)
    thin_gaps, orders = 0, []
    for case in range(24 if m < 4 else 9 if m == 4 else 6):
        thin = case % 3 == 2 and m > 1
        P = _thin_polytope(rng, m) if thin else _cloud(rng, m)
        # the oracle scans every cell of the box: up to 61740 at m = 6, q = 3
        for q in (1, 2, 3) if m < 6 else (1, 2):
            got = _walked(P, q, orders)
            assert got == oracle.lattice_points(P, q)
            if thin:
                box = math.prod(math.floor(hi * q) - math.ceil(lo * q) + 1 for lo, hi in P.bounding_box()[:-1])
                thin_gaps += len({p[:-1] for p in got}) < box
    assert thin_gaps > 0 or m == 1
    assert _reordered(orders) or m == 1


def _sparse_polytope(rng, m):
    """A rational box cut by half-spaces on two or three coordinates, so
    facet rows meet inner coordinates with zero, positive and negative
    coefficients while their support goes on."""
    halves = [
        halfspace(tuple(sign * int(i == j) for i in range(m)), Q(rng.randint(2, 4), rng.choice((2, 3))))
        for j in range(m)
        for sign in (1, -1)
    ]
    while len(halves) < 2 * m + m + 2:
        support = rng.sample(range(m), rng.choice((2, 3)))
        normal = tuple(rng.choice((-2, -1, 1, 2)) if i in support else 0 for i in range(m))
        halves.append(halfspace(normal, Q(rng.randint(1, 4), rng.choice((1, 2, 3)))))
    return hull(vertices_from_facets(halves, m), m)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_lattice_points_of_sparse_polytopes_match_box_scan(m):
    rng = random.Random(470 + m)
    inner_signs, orders = set(), []
    for _ in range(8 if m < 5 else 4):
        P = _sparse_polytope(rng, m)
        n = [f.normal for f in P.facets]
        inner_signs |= {(a > 0) - (a < 0) for v in n for j, a in enumerate(v[:-1]) if any(v[j + 1:])}
        for q in (1, 2, 3) if m < 5 else (1, 2):
            assert _walked(P, q, orders) == oracle.lattice_points(P, q)
    assert inner_signs == {-1, 0, 1} and _reordered(orders)


def test_gelfand_tsetlin_lattice_points_are_the_weyl_dimension():
    """|GT(2 rho) cap Z^N| = dim V(2 rho) = 3^N for Fl(3), Fl(4), Fl(5)."""
    for n, count in ((3, 27), (4, 729), (5, 59049)):
        P = gelfand_tsetlin(n)
        assert P.ambient_dim == n * (n - 1) // 2
        assert len(lattice_points(P)) == count
    orders = []
    for n, q in ((3, 1), (3, 2), (4, 1)):
        P = gelfand_tsetlin(n)
        assert _walked(P, q, orders) == oracle.lattice_points(P, q)
    assert _reordered(orders)


def test_lattice_points_prune_inner_depths_on_a_diagonal_segment():
    """A box walk over the first seven coordinates would visit 41^7 prefixes;
    each equation pair pins its coordinate at the depth it ends at."""
    seg = hull_any([(0,) * 8, (40,) * 8], 8)
    for q, count in ((1, 41), (3, 121)):
        assert lattice_points(seg, q) == [(Q(k, q),) * 8 for k in range(count)]


def test_lattice_points_of_lower_dimensional_polytopes_match_box_scan():
    cases = [
        hull_any([(0, 0, 0), (2, Q(4, 3), 1)], 3),
        hull_any([(0, 0, 0), (2, 1, 0), (Q(1, 2), 3, 0)], 3),
        hull_any([(Q(1, 3), 0, 1), (Q(7, 3), 2, 1), (Q(1, 3), 2, 3)], 3),
        hull_any([(1, Q(1, 2))], 2),
        hull_any([], 2),
    ]
    orders = []
    for P in cases:
        for q in (1, 2, 3):
            assert _walked(P, q, orders) == oracle.lattice_points(P, q)
    assert _reordered(orders)


# ---------------------------------------------------------------------------
# (d) edges and affine bases


def _edges(P):
    """Vertex pairs of P whose common tight facet normals have rank m - 1."""
    tight = oracle._tight_sets(P.facets, P.vertices)
    return [
        (u, v)
        for (u, tu), (v, tv) in itertools.combinations(zip(P.vertices, tight), 2)
        if oracle.rank([f.normal for i, f in enumerate(P.facets) if (tu & tv) >> i & 1]) == P.ambient_dim - 1
    ]


def _hyperplanes(rng, P):
    """A generic cut, one through a vertex and one containing an edge."""
    m = P.ambient_dim

    def normal():
        while True:
            n = tuple(rng.randint(-3, 3) for _ in range(m))
            if any(n):
                return n

    n = normal()
    center = tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices))
    yield halfspace(n, -oracle.dot(n, center) + rat(rng, 1, (2, 3, 5)))
    n = normal()
    yield halfspace(n, -oracle.dot(n, rng.choice(P.vertices)))
    u, v = rng.choice(_edges(P))
    d = oracle.vsub(v, u)
    while True:
        n = normal()
        # the component of n orthogonal to the edge, scaled by <d, d>
        n = tuple(x * oracle.dot(d, d) - oracle.dot(n, d) * y for x, y in zip(n, d))
        if any(n):
            yield halfspace(n, -oracle.dot(n, u))
            return


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_crossing_points_match_rank_edge_test(m):
    rng = random.Random(440 + m)
    cuts = crossed = sections = 0
    for case in range(30 if m < 4 else 10 if m == 4 else 5):
        if case % 5 == 4:
            P = hull(list(itertools.product((-1, 1), repeat=m)), m)
        else:
            P = random_polytope_with_interior_origin(rng, m)
        for h in _hyperplanes(rng, P):
            got = crossing_points(P, h)
            assert got == oracle.crossing_points(P, h)
            cuts += 1
            crossed += len(got) > 0
            # a section has no facets, so every straddling vertex pair is used
            S = slice_polytope(P, h).section
            if S.dim > 0:
                g = next(_hyperplanes(rng, S))
                assert crossing_points(S, g) == oracle.crossing_points(S, g)
                sections += 1
    # in the plane a line through an edge supports the polygon, so a third of the cuts cross nothing
    assert crossed > cuts // 3 and sections > 0


def _affine_cloud(rng, m, k):
    """Points p0 + sum t_i b_i, one coefficient t_i per direction, for k random
    directions b_i, some with zero entries: a hull of dimension at most k."""
    p0 = tuple(rat(rng) for _ in range(m))
    basis = [tuple(rat(rng, 2) if rng.random() < 0.7 else Q(0) for _ in range(m)) for _ in range(k)]
    combos = [[rat(rng, 2) for _ in basis] for _ in range(rng.randint(1, 7))]
    return [vadd(p0, tuple(sum(map(mul, t, col)) for col in zip(*basis))) for t in combos]


def test_hull_any_matches_rank_basis():
    rng = random.Random(450)
    shapes = []
    for case in range(200):
        if case % 40 == 0:
            pts, m = [], rng.randint(1, 4)
        elif case % 40 == 1:
            m = rng.randint(1, 4)
            pts = [tuple(rat(rng) for _ in range(m))] * rng.randint(1, 3)
        elif case % 2:
            m = rng.randint(2, 4)
            pts = _affine_cloud(rng, m, 1)  # collinear
        else:
            m = 3
            pts = _affine_cloud(rng, m, 2)  # coplanar in R^3
        got, want = hull_any(pts, m), oracle.hull_any(pts, m)
        assert (got.vertices, got.dim) == (want.vertices, want.dim)
        # every row holds every vertex, and the m - dim equation pairs vanish on all of them
        assert all(f.contains(v) for f in got.facets for v in got.vertices)
        assert [f.row for f in got.facets] == sorted(f.row for f in got.facets)
        pairs = [f for f in got.facets if halfspace(tuple(-a for a in f.normal), -f.offset) in got.facets]
        assert len(pairs) == (0 if got.is_empty else 2 * (m - got.dim))
        assert all(f.on_boundary(v) for f in pairs for v in got.vertices)
        shapes.append(want.dim)
    assert {-1, 0, 1, 2} <= set(shapes)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_flat_polytopes_match_fraction_chart(m):
    """Genuinely flat clouds of every dimension below m: vertices, dim,
    membership and lattice points against the oracle's affine chart, and
    translate and scale move the facets to those of the moved hull."""
    rng = random.Random(455 + m)
    dims, orders = set(), []
    for case in range(24 if m < 4 else 12):
        k = case % m
        pts = _affine_cloud(rng, m, k) if k else [tuple(rat(rng) for _ in range(m))]
        P, want = hull_any(pts, m), oracle.hull_any(pts, m)
        assert (P.vertices, P.dim) == (want.vertices, want.dim) and P.dim <= k
        dims.add(P.dim)
        for p in _probes(rng, P, m) + pts:
            assert P.contains(p) == oracle.contains(P, p)
        for q in (1, 2) if m < 4 else (1,):
            assert _walked(P, q, orders) == oracle.lattice_points(P, q)
        t, c = tuple(rat(rng, 3, (1, 2, 5)) for _ in range(m)), Q(rng.randint(1, 9), rng.choice((1, 2, 3)))
        assert _same(P.translate(t), hull_any([vadd(v, t) for v in P.vertices], m))
        assert _same(P.scale(c), hull_any([tuple(c * x for x in v) for v in P.vertices], m))
    assert dims == set(range(m)), dims
    assert _reordered(orders)


# ---------------------------------------------------------------------------
# (e) hull facets and tropical images against the Fraction route


def _same(got, want):
    """Equal as polytopes and in the facets, which RationalPolytope.__eq__ ignores."""
    return (got.vertices, got.dim, got.facets) == (want.vertices, want.dim, want.facets)


def _same_rows(got, want):
    """`_same`, and each facet's integer row too."""
    return _same(got, want) and [f.row for f in got.facets] == [f.row for f in want.facets]


def _same_qgf(got, want):
    """qgf_solve against the oracle's: the diagnostic, then center, size and
    dual vertices, and the dual as a polytope with its rows."""
    (cert, msg), (ref, ref_msg) = got, want
    if msg != ref_msg or (cert is None) != (ref is None):
        return False
    return cert is None or (
        (cert.center, cert.size, cert.dual_vertices) == (ref.center, ref.size, ref.dual_vertices)
        and cert.dual == ref.dual
        and _same_rows(cert.dual, ref.dual)
    )


def _raises_alike(f, g, *args):
    """f and g raise the same exception type with the same message."""
    with pytest.raises(PolytopeError) as want:
        g(*args)
    with pytest.raises(PolytopeError) as got:
        f(*args)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


def test_hull_facets_match_fraction_route():
    rng = random.Random(480)
    flat = 0
    for case in range(160):
        m = rng.randint(1, 4)
        pts = [tuple(rat(rng, 3) for _ in range(m)) for _ in range(m + rng.randint(1, 5))]
        if case % 4 == 1:
            # the centroid as a point and a repeated point add nothing
            pts += [tuple(sum(c) / len(pts) for c in zip(*pts)), pts[0]]
        elif case % 4 == 2:
            # points in a hyperplane (or one point, for m = 1) do not span
            pts = [p[:-1] + (sum(p[:-1], Q(0)) / 2,) for p in pts] if m > 1 else pts[:1]
        try:
            want = oracle.hull(pts, m)
        except DegenerateError:
            _raises_alike(hull, oracle.hull, pts, m)
            flat += 1
            continue
        assert _same(hull(pts, m), want)
    assert flat >= 40
    coplanar = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0)]
    for pts, m in [([], 2), ([(0, 0), (1, 0, 0)], 2), ([(1, 2)], 2), (coplanar, 3)]:
        _raises_alike(hull, oracle.hull, pts, m)


def _trop_cases(rng, m):
    """(eps, k, P) with P moved along column k strictly off the wall, onto it
    from either side, through a vertex, and by a random shift."""
    P = random_polytope_with_interior_origin(rng, m)
    n_mut = rng.randint(1, m)
    eps = random_exchange(rng, n_mut=n_mut, n_frozen=m - n_mut, unit_d=rng.random() < 0.5)
    k = rng.choice(eps.mutable)
    ki = eps.col_index(k)
    coords = sorted(v[ki] for v in P.vertices)
    for shift in (-coords[0] + Q(1, 2), -coords[-1], -coords[0], -rng.choice(coords[1:-1] or coords), rat(rng, 2)):
        yield eps, k, P.translate(tuple(shift if i == ki else Q(0) for i in range(m)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_two_sided_images_match_branch_matrices(m):
    """Polytopes with vertices strictly on both sides of the wall, some with
    vertices on it, under matrices whose row k is zero, small or large: the
    convexity flag, which reads only the vertices off the wall, the convex
    image's rows and facet rows, and the pieces a refusal builds when first
    read match the oracle's."""
    rng = random.Random(700 + m)
    seen = {"on the wall": 0, "convex": 0, "non-convex": 0}
    cases = 0
    while cases < {2: 16, 3: 16, 4: 12, 5: 8}[m]:
        P = random_polytope_with_interior_origin(rng, m)
        n_mut = rng.randint(1, m)
        eps = random_exchange(rng, n_mut=n_mut, n_frozen=m - n_mut, span=rng.choice((0, 1, 3)))
        k = rng.choice(eps.mutable)
        ki = eps.col_index(k)
        coords = sorted({v[ki] for v in P.vertices})
        through = len(coords) > 2 and rng.random() < 0.5
        shift = -rng.choice(coords[1:-1]) if through else rat(rng, 2)
        P = P.translate(tuple(shift if i == ki else 0 for i in range(m)))
        side = [hp[ki] for hp in P.hverts]
        if not min(side) < 0 < max(side):
            continue
        cases += 1
        got, want = trop_mutate_polytope(eps, k, P), oracle.trop_mutate_polytope(eps, k, P)
        assert got.convex == want.convex
        for part in ("polytope",) if want.convex else ("plus_image", "minus_image"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.hverts == w.hverts and _same_rows(g, w), part
        seen["on the wall"] += 0 in side
        seen["convex" if want.convex else "non-convex"] += 1
    assert min(seen.values()) >= 2, seen


@pytest.mark.parametrize("m", [2, 3, 4])
def test_trop_mutate_polytope_matches_branch_matrices(m):
    rng = random.Random(490 + m)
    kinds = {"one-sided": 0, "touching": 0, "convex": 0, "non-convex": 0}
    for _ in range(24 if m < 4 else 8):
        for eps, k, P in _trop_cases(rng, m):
            got, want = trop_mutate_polytope(eps, k, P), oracle.trop_mutate_polytope(eps, k, P)
            assert got.convex == want.convex
            if want.convex:
                assert _same(got.polytope, want.polytope)
            else:
                assert _same(got.plus_image, want.plus_image) and _same(got.minus_image, want.minus_image)
            side = [v[eps.col_index(k)] for v in P.vertices]
            kinds["one-sided"] += min(side) >= 0 or max(side) <= 0
            kinds["touching"] += 0 in side and min(side) < 0 < max(side)
            kinds["convex" if want.convex else "non-convex"] += 1
    assert min(kinds.values()) >= (15 if m < 4 else 8), kinds


def test_trop_mutate_gelfand_tsetlin_matches_branch_matrices():
    """GT(2 rho) of Fl(4), centred at its QGF center, along the 3 mutable
    directions of the GLS seed of (1,2,1,3,2,1): every image is non-convex."""
    P = gelfand_tsetlin(4)
    cert, _ = qgf_solve(P)
    P = P.translate(tuple(-x for x in cert.center))
    eps = gls_exchange_matrix(cartan_matrix("A", 3), (1, 2, 1, 3, 2, 1))
    assert len(eps.mutable) == 3
    for k in eps.mutable:
        got, want = trop_mutate_polytope(eps, k, P), oracle.trop_mutate_polytope(eps, k, P)
        assert got.convex == want.convex is False
        assert _same_rows(got.plus_image, want.plus_image) and _same_rows(got.minus_image, want.minus_image)


# ---------------------------------------------------------------------------
# (f) sign tests, crossings, hull input and qgf_solve on integer rows


def _written(rng, p):
    """p as a tuple of Fractions, a list, or with integral entries as int."""
    form = rng.randrange(3)
    if form == 0:
        return p
    q = [int(x) if x.denominator == 1 and rng.random() < 0.7 else x for x in p]
    return q if form == 1 else tuple(q)


def _sign_cases(rng, m, case):
    """Full-dimensional clouds with mixed denominators, their translates and
    scalings, a lower-dimensional polytope, a point and the empty set."""
    dens = (1, 2, 3, 5, 7)
    P = _cloud(rng, m)
    yield P
    yield P.translate(tuple(rat(rng, 3, dens) for _ in range(m)))
    yield P.scale(Q(rng.randint(1, 9), rng.choice(dens)))
    if m > 1:
        yield hull_any(_affine_cloud(rng, m, 1 + case % (m - 1)), m)
    yield hull_any([tuple(rat(rng, 3, dens) for _ in range(m))], m)
    yield hull_any([], m)


def _probes(rng, P, m):
    """Vertices, the centroid, random points, and for facets of P points
    on the facet and off it by 1/D on either side."""
    dens = (1, 2, 3, 4, 6, 7)
    pts = [tuple(rat(rng, 4, dens) for _ in range(m)) for _ in range(4)]
    if P.is_empty:
        return pts
    pts += list(P.vertices) + [tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices))]
    for f in P.facets:
        v = next(v for v in P.vertices if f.value(v) == 0)
        j = next(i for i, a in enumerate(f.normal) if a)
        for step in (Q(1), Q(-1)):
            D = rng.choice((1, 2, 3, 11, 360))
            pts.append(tuple(x + step / (D * f.normal[j]) if i == j else x for i, x in enumerate(v)))
    return pts


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sign_tests_match_fraction_oracle(m):
    rng = random.Random(500 + m)
    seen = {"on": 0, "out_by_step": 0, "inside": 0, "outside": 0, "strict": 0, "supporting": 0, "dims": set()}
    for case in range(12 if m < 4 else 6):
        for P in _sign_cases(rng, m, case):
            seen["dims"].add(P.dim)
            for p in _probes(rng, P, m):
                w = _written(rng, p)
                got = P.contains(w)
                assert got == oracle.contains(P, p)
                assert P.contains_strictly(w) == oracle.contains_strictly(P, p)
                seen["inside" if got else "outside"] += 1
                seen["strict"] += P.contains_strictly(w)
                for f in P.facets:
                    assert f.contains(w) == oracle.halfspace_contains(f, p)
                    assert f.on_boundary(w) == oracle.on_boundary(f, p)
                    seen["on"] += f.on_boundary(w)
                    seen["out_by_step"] += 0 > f.value(p) >= -1
                n = tuple(rng.randint(-3, 3) for _ in range(m - 1)) + (1,)
                h = halfspace(n, -oracle.dot(n, p))
                vals = [h.value(v) for v in P.vertices]
                assert is_supporting(h, P) == (bool(vals) and min(vals) == 0)
                seen["supporting"] += is_supporting(h, P)
    dims = seen.pop("dims")
    assert {-1, 0, m} <= dims and (m == 1 or len(dims) > 3), dims
    assert min(seen.values()) >= 10, seen


def test_sign_tests_reject_points_of_the_wrong_dimension():
    for P in (hull([(0, 0), (1, 0), (0, 1)]), hull_any([(0, 0), (1, 2)], 2)):
        for test in (P.contains, P.contains_strictly, P.facets[0].contains, P.facets[0].on_boundary):
            with pytest.raises(PolytopeError, match="^point has 3 coordinates, expected 2$"):
                test((0, 0, 0))


def test_hull_any_rejects_points_of_the_wrong_dimension():
    for pts in ([(1, 2, 3)], [(0, 0, 0), (1, 0, 0)], [(0, 0), (1, 0, 0)], [(0, 0), (1, 0), (0, 1), (1,)]):
        with pytest.raises(PolytopeError, match="^point has [13] coordinates, expected 2$"):
            hull_any(pts, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_crossing_points_on_walls_match_fraction_oracle(m):
    """Cuts through translates and scalings: coordinate walls through a vertex
    and generic hyperplanes, on full-dimensional polytopes and their sections."""
    rng = random.Random(510 + m)
    crossed = walls = sections = 0
    for _ in range(12 if m < 4 else 5):
        P = _cloud(rng, m)
        for R in (P.translate(tuple(-x for x in rng.choice(P.vertices))), P.scale(Q(rng.randint(1, 7), 3))):
            cuts = [halfspace(tuple(int(i == k) for i in range(m)), 0) for k in range(m)]
            cuts.append(halfspace(tuple(rng.randint(-3, 3) for _ in range(m - 1)) + (2,), rat(rng, 2, (2, 3, 5))))
            for h in cuts:
                got = crossing_points(R, h)
                assert got == oracle.crossing_points(R, h)
                assert all(type(x) is Q for c in got for x in c)
                crossed += len(got) > 0
                walls += any(h.value(v) == 0 for v in R.vertices)
                S = slice_polytope(R, h)
                assert all(h.value(v) == 0 for v in S.section.vertices)
                assert all(h.value(v) >= 0 for v in S.plus.vertices)
                assert all(h.value(v) <= 0 for v in S.minus.vertices)
                if S.section.dim > 0:
                    g = halfspace(tuple(rng.randint(-3, 3) for _ in range(m - 1)) + (1,), rat(rng, 1, (2, 3)))
                    assert crossing_points(S.section, g) == oracle.crossing_points(S.section, g)
                    sections += 1
    assert crossed >= 10 and walls >= 10 and (sections > 0 or m == 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_hull_input_forms_match_fraction_oracle(m):
    """Points as int, list or Fraction tuples with mixed denominators, and
    duplicates written two ways, give the oracle's hull, vertices as Fraction
    tuples in the same order."""
    rng = random.Random(520 + m)
    compared = 0
    for case in range(20 if m < 4 else 8):
        pts = [tuple(rat(rng, 4, (1, 2, 3, 5)) for _ in range(m)) for _ in range(m + rng.randint(1, 5))]
        # the same point written as 1 and as Q(2, 2), or as 2/3 and Q(4, 6)
        p = rng.choice(pts)
        pts.append(tuple(Q(2 * x.numerator, 2 * x.denominator) for x in p))
        pts.append([int(x) if x.denominator == 1 else x for x in p])
        written = [_written(rng, p) for p in pts]
        rng.shuffle(written)
        try:
            want = oracle.hull(written, m)
        except DegenerateError:
            _raises_alike(hull, oracle.hull, written, m)
            continue
        got = hull(written, None if case % 2 else m)
        assert _same(got, want)
        assert all(type(v) is tuple and all(type(x) is Q for x in v) for v in got.vertices)
        compared += 1
    assert compared >= 6


def test_qgf_solve_matches_fraction_oracle():
    rng = random.Random(530)
    diagnostics = {}
    cases = []
    for _ in range(30):
        m = rng.randint(1, 4)
        P, _nu = random_qgf_polytope(rng, m)
        cases += [P, P.scale(Q(1, 2)), P.translate(tuple(rat(rng, 1) for _ in range(m)))]
        cases.append(random_polytope_with_interior_origin(rng, m))
    # two parallel facets leave the center free along them; flipped offsets solve to a negative size
    cases.append(RationalPolytope(((0, 0, 1),), 2, 2, (halfspace((1, 0), 1), halfspace((-1, 0), 1))))
    cases.append(RationalPolytope(((0, 1),), 1, 1, (halfspace((1,), -1), halfspace((-1,), -1))))
    for P in cases:
        got, want = qgf_solve(P), oracle.qgf_solve(P)
        assert _same_qgf(got, want)
        key = want[1].split(":")[0].split(" is ")[-1]
        diagnostics[key] = diagnostics.get(key, 0) + 1
    assert set(diagnostics) == {
        "ok", "facet normals do not pin a unique center and size", "no common center", "not positive", "not an integer"
    }, diagnostics


def _first_rows_pin(P):
    """Whether the first m + 1 sorted facet rows alone pin the center and size."""
    m = P.ambient_dim
    return rank([f.normal + (-1,) for f in P.facets[:m + 1]]) == m + 1


def _facet_list(m, forms):
    """A polytope record carrying only the given facets (normal, offset), for the diagnostics that no
    full-dimensional polytope reaches; `qgf_solve` reads nothing else."""
    return RationalPolytope(((0,) * m + (1,),), m, m, tuple(halfspace(n, b) for n, b in forms))


def test_qgf_solve_pinned_rows_match_fraction_oracle():
    """`qgf_solve` eliminates only the first rows that pin (u0, nu) and decides
    the other facets by the identity; the oracle eliminates every row.  Both
    agree on every diagnostic where the first m + 1 sorted rows pin and where
    they are dependent, as on the octahedron, whose first four normals
    (-1, +-1, +-1) lie in one plane.  "Not pinned" needs dependent first rows,
    so it has the second path only; no polytope has a size <= 0 or normals
    that leave it free, so those cases list facets alone."""
    rng = random.Random(3001)
    octahedron = hull([tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)])
    cube = hull(list(itertools.product((-1, 1), repeat=3)))
    assert not _first_rows_pin(octahedron) and _first_rows_pin(cube)
    cases = []
    for P in (octahedron, cube):
        t = tuple(rat(rng, 2) for _ in range(3))
        forms = [(f.normal, f.offset) for f in P.facets]
        cases += [P, P.translate(t), P.scale(Q(1, 2)), P.translate(t).scale(3),
                  _facet_list(3, [(n, -b) for n, b in forms]),
                  _facet_list(3, [(n, b + (i == 5)) for i, (n, b) in enumerate(forms)])]
    cases += [_facet_list(2, [((1, 0), 1), ((-1, 0), 1)]), _facet_list(1, [((1,), -1), ((-1,), -1)])]
    for _ in range(40):
        m = rng.randint(2, 4)
        P, _nu = random_qgf_polytope(rng, m)
        cases += [P, P.scale(Q(1, 2)), P.translate(tuple(rat(rng, 1) for _ in range(m)))]
        cases.append(random_polytope_with_interior_origin(rng, m))
    seen = set()
    for P in cases:
        got, want = qgf_solve(P), oracle.qgf_solve(P)
        assert _same_qgf(got, want)
        seen.add((want[1].split(":")[0].split(" is ")[-1], _first_rows_pin(P)))
    found = {"ok", "no common center", "not positive", "not an integer"}
    pinned = "facet normals do not pin a unique center and size"
    assert seen == {(d, True) for d in found} | {(d, False) for d in found | {pinned}}, seen


def test_bareiss_keeps_the_first_independent_rows_in_jordan_form():
    """`_bareiss(rows, n)` keeps the rows independent, in their first n
    entries, of the rows before them, up to n of them, reads no row after the
    n-th kept, and leaves each kept row as the Fraction Gauss-Jordan form of
    those rows alone scaled by one common integer: zero at the other pivots,
    the same last pivot on its own."""
    rng = random.Random(3002)
    short = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) * (rng.random() < 0.6) for _ in range(n + 1))
                for _ in range(rng.randint(1, n + 4))]
        chosen = []
        for i, r in enumerate(rows):
            if len(chosen) < n and rank([rows[j][:n] for j in chosen] + [r[:n]]) > len(chosen):
                chosen.append(i)
        read = []
        kept = _bareiss((read.append(r) or r for r in rows), n)
        short += len(kept) < n
        assert sorted(i for _, i, _ in kept) == chosen
        assert len(read) == (len(rows) if len(kept) < n else chosen[-1] + 1)
        reduced, pivots = rref([rows[i] for i in chosen])
        assert [c for c, *_ in kept] == pivots[:len(chosen)]
        D = kept[0][2][kept[0][0]] if kept else 1
        assert all(row[c] == D and [Q(x, D) for x in row] == red for (c, _, row), red in zip(kept, reduced))
    assert short >= 50


@pytest.mark.parametrize("m", [1, 2, 3])
def test_moves_and_slices_keep_oracle_volume(m):
    """On clouds and cubes, translate and scale give the hull of the moved
    vertices, facets included, and move the oracle's volume with them; the
    two sides of a slice add up to P's volume."""
    rng = random.Random(540 + m)
    shapes = set()
    for case in range(40 if m < 3 else 25):
        P = _cloud(rng, m) if case % 5 else hull(list(itertools.product((-1, 2), repeat=m)), m)
        vol = oracle.volume(P)
        t, c = tuple(rat(rng, 2) for _ in range(m)), Q(rng.randint(1, 5), 2)
        T, S = P.translate(t), P.scale(c)
        assert _same(T, hull_any([vadd(v, t) for v in P.vertices], m)) and oracle.volume(T) == vol
        assert _same(S, hull_any([tuple(c * x for x in v) for v in P.vertices], m)) and oracle.volume(S) == c**m * vol
        res = slice_polytope(P, halfspace(tuple(rng.randint(-2, 2) for _ in range(m - 1)) + (1,), 0))
        assert oracle.volume(res.plus) + oracle.volume(res.minus) == vol
        shapes.add(len(P.vertices))
    assert len(shapes) >= 3 or m == 1


# ---------------------------------------------------------------------------
# (g) polar and QGF duals read off the face lattice, against the Fraction hull


def _centered_cloud(rng, m):
    """A rational cloud moved so that a positive weighted mean of its
    vertices, a rational interior point, becomes the origin."""
    P = _cloud(rng, m)
    w = [rng.randint(1, 3) for _ in P.vertices]
    c = tuple(sum(a * v[i] for a, v in zip(w, P.vertices)) / sum(w) for i in range(m))
    return P.translate(tuple(-x for x in c))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_polar_dual_matches_fraction_oracle(m):
    """Vertices, facets and rows of the Fraction hull of n/b over the facets,
    on centred clouds and their scalings; the double dual gives back P's
    facets."""
    rng = random.Random(560 + m)
    for _ in range({1: 20, 2: 20, 3: 12, 4: 8, 5: 4}.get(m, 2)):
        P = _centered_cloud(rng, m)
        for R in (P, P.scale(Q(rng.randint(1, 7), rng.choice((2, 3, 5))))):
            D = polar_dual(R)
            assert _same_rows(D, oracle.polar_dual(R))
            assert all(type(x) is Q for v in D.vertices for x in v)
            assert _same_rows(polar_dual(D), R)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_qgf_dual_matches_fraction_oracle(m):
    """The QGF dual is the Fraction hull of the facet normals, with the center
    at the origin, moved off it and sizes 1 to 6."""
    rng = random.Random(570 + m)
    centers = set()
    for _ in range({1: 12, 2: 12, 3: 8, 4: 5}.get(m, 2)):
        P, _nu = random_qgf_polytope(rng, m)
        for R in (P, P.translate(tuple(rat(rng, 2) for _ in range(m))).scale(2)):
            got, want = qgf_solve(R), oracle.qgf_solve(R)
            assert _same_qgf(got, want) and want[1] == "ok"
            assert got[0].dual.vertices == tuple(tuple(map(Q, n)) for n in got[0].dual_vertices)
            centers.add(any(got[0].center))
    assert centers == {False, True}


def test_polar_dual_errors_match_fraction_oracle():
    """Origin at a vertex, inside a facet or outside, and polytopes of lower
    dimension, a point or empty: the same error type and message."""
    rng = random.Random(580)
    cases = 0
    for m in range(1, 5):
        for _ in range(4):
            P = _cloud(rng, m)
            v = rng.choice(P.vertices)
            on = [u for u in P.vertices if P.facets[0].on_boundary(u)]
            c = tuple(sum(x) / len(P.vertices) for x in zip(*P.vertices))
            for p in (v, tuple(sum(x) / len(on) for x in zip(*on)), tuple(2 * a - b for a, b in zip(v, c))):
                _raises_alike(polar_dual, oracle.polar_dual, P.translate(tuple(-x for x in p)))
                cases += 1
        flat = [hull_any([], m), hull_any([tuple(rat(rng) for _ in range(m))], m)]
        for k in range(1, m):
            p0, basis = tuple(rat(rng) for _ in range(m)), [tuple(rat(rng, 2) for _ in range(m)) for _ in range(k)]
            combos = [[rat(rng, 2) for _ in basis] for _ in range(k + 3)]
            flat.append(hull_any([vadd(p0, tuple(sum(map(mul, t, col)) for col in zip(*basis))) for t in combos], m))
        for F in flat:
            assert F.dim < m
            _raises_alike(polar_dual, oracle.polar_dual, F)
            cases += 1
    assert cases >= 50


# ---------------------------------------------------------------------------
# (h) the QGF identity and the center-fixedness cross-check on integers


def test_qgf_identity_matches_fraction_identity():
    """`_qgf_identity` on a facet's integer row against <center, n> + offset
    == size in Fraction, on seeded QGF polytopes, their translates and their
    scalings to another integer size: it holds on every facet at the solved
    center and size, and a center moved along one coordinate or a size off by
    one breaks it on some facet."""
    rng = random.Random(590)
    fractional = 0
    for _ in range(40):
        m = rng.randint(1, 4)
        P, nu = random_qgf_polytope(rng, m)
        T = P.translate(tuple(rat(rng, 3, (1, 2, 3, 5)) for _ in range(m)))
        for R in (P, T, T.scale(Q(rng.randint(1, 4), nu))):
            cert, msg = qgf_solve(R)
            assert msg == "ok"
            fractional += any(x.denominator != 1 for x in cert.center)
            i = rng.randrange(m)
            moved = tuple(x + Q(1, rng.choice((1, 2, 7))) * (j == i) for j, x in enumerate(cert.center))
            for center, size, holds in ((cert.center, cert.size, True), (moved, cert.size, False),
                                        (cert.center, cert.size + 1, False)):
                *C, s = _homog(center, m)
                got = [_qgf_identity(f, C, s, size) for f in R.facets]
                assert got == [dot(center, f.normal) + f.offset == size for f in R.facets]
                assert all(got) == holds
    assert fractional >= 40


def test_center_fixedness_matches_fraction_rule():
    """center_fixedness, whose cross-check maps integer homogeneous
    coordinates, gives the report of the Fraction rule
    trop_mutate_point(eps, k, u0) == u0 on seeded rational points with zero,
    negative and non-unit-denominator coordinates, fixed or not."""
    rng = random.Random(595)
    seen = dict.fromkeys(("zero", "negative", "fraction", "fixed", "moved", "negative mutable"), 0)
    for case in range(400):
        eps = random_exchange(rng)
        u0 = [rng.choice((0, rng.randint(-3, 3), rat(rng, 3, (2, 3, 5)))) for _ in eps.cols]
        if case % 4 == 0:  # tropical-fixed: zero at every mutable label
            u0 = [0 if c in eps.mutable else x for c, x in zip(eps.cols, u0)]
        point = tuple(map(Q, u0))
        violations = tuple(
            (k, point[eps.col_index(k)]) for k in eps.mutable if trop_mutate_point(eps, k, u0) != point
        )
        rep = center_fixedness(eps, u0)
        assert rep == CenterReport(not violations, violations)
        seen["zero"] += 0 in point
        seen["negative"] += any(x < 0 for x in point)
        seen["fraction"] += any(x.denominator != 1 for x in point)
        seen["fixed" if rep.fixed else "moved"] += 1
        seen["negative mutable"] += any(point[eps.col_index(k)] < 0 for k in eps.mutable)
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# (i) slices read off the one cut rule, against hulls of each side


def _cross_polytope(m):
    """Vertices ±e_i: cut by u_1 = 0 it reaches both sides, but no edge crosses strictly."""
    return hull([tuple(s * (i == j) for j in range(m)) for i in range(m) for s in (1, -1)], m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_slice_halves_match_hulls_of_side_vertices_and_crossings(m):
    """Each half is the hull of P's vertices on that side plus the oracle's
    crossings, and the section the hull of those on the hyperplane, facets
    and rows included: on clouds cut by coordinate walls through a vertex and
    by generic hyperplanes, and on the cross-polytope cut through vertices."""
    rng = random.Random(600 + m)
    cases = [(_cross_polytope(m), halfspace((1,) + (0,) * (m - 1), 0))]
    for _ in range(10 if m < 4 else 4):
        P = _cloud(rng, m)
        P = P.translate(tuple(-x for x in rng.choice(P.vertices)))
        cases += [(P, halfspace(tuple(int(i == k) for i in range(m)), 0)) for k in range(m)]
        cases.append((P, halfspace(tuple(rng.randint(-3, 3) for _ in range(m - 1)) + (2,), rat(rng, 2, (2, 3, 5)))))
    seen = {"two-sided": 0, "one-sided": 0, "through a vertex": 0, "no strict crossing": 0}
    for P, h in cases:
        crossings = oracle.crossing_points(P, h)
        got = slice_polytope(P, h)
        for s, half in ((1, got.plus), (-1, got.minus)):
            assert _same_rows(half, hull_any([v for v in P.vertices if s * h.value(v) >= 0] + crossings, m))
        assert _same_rows(got.section, hull_any([v for v in P.vertices if h.value(v) == 0] + crossings, m))
        vals = [h.value(v) for v in P.vertices]
        two_sided = min(vals) < 0 < max(vals)
        seen["two-sided" if two_sided else "one-sided"] += 1
        seen["through a vertex"] += two_sided and 0 in vals
        seen["no strict crossing"] += two_sided and not crossings
    if m == 1:  # a segment's vertices are its ends, so a cut through one is one-sided
        assert seen.pop("through a vertex") == seen.pop("no strict crossing") == 0
    assert min(seen.values()) >= 1, seen


def test_slice_polytope_runs_one_hull(monkeypatch):
    """Both halves are read off the cut: slice_polytope runs the integer-row
    hull step of hull_any (`_hull_any`) once, for the section, and a double
    description only inside that call."""
    cases = [
        (hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]), halfspace((1, 0), 0)),
        (hull(list(itertools.product((0, 2), repeat=3))), halfspace((1, 1, 1), -3)),
        (_cross_polytope(3), halfspace((1, 0, 0), 0)),
        (hull([(0, 0), (2, 0), (0, 2)]), halfspace((-1, 0), 1)),
        (hull([(0, 0), (2, 0), (0, 2)]), halfspace((1, 0), 0)),  # one side, touching
    ]
    calls = []
    for name in ("_hull_any", "_dd_extreme_rays"):
        real = getattr(polytopes, name)
        monkeypatch.setattr(polytopes, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for P, h in cases:
        calls.clear()
        res = slice_polytope(P, h)
        assert calls == ["_hull_any"] + ["_dd_extreme_rays"] * (res.section.dim > 0), (P.vertices, h)


def test_slice_polytope_needs_a_full_dimensional_polytope():
    for P in (hull_any([(0, 0), (2, 2)], 2), hull_any([], 2)):
        with pytest.raises(DegenerateError, match="^operation needs a full-dimensional polytope"):
            slice_polytope(P, halfspace((1, 0), -1))


# ---------------------------------------------------------------------------
# (j) hull incidence read off the double description, the vertex filter,
# the Fraction exit and direct facets


def _quadratic_keep(tight):
    """The vertex rule over every pair of points: a point is a vertex iff no
    other point is tight wherever it is."""
    return [all(t & u != t for u in tight[:i] + tight[i + 1:]) for i, t in enumerate(tight)]


def _hull_inputs(rng):
    """(m, points) with points inside faces and inside the hull: the 3^m grid,
    which holds its centroid, and the lattice points of random polytopes."""
    for m in (1, 2, 3, 4):
        yield m, list(itertools.product(range(3), repeat=m))
    for case in range(60):
        m = 2 + case % 3
        P = hull([tuple(rat(rng, 3, (1, 2)) for _ in range(m)) for _ in range(m + 4)] + [(Q(0),) * m], m)
        for q in (1, 2) if m < 4 else (1,):
            yield m, lattice_points(P, q)


def test_hull_incidence_and_vertex_filter_match_sign_tests():
    rng = random.Random(2501)
    compared = inside = on_faces = 0
    for m, pts in _hull_inputs(rng):
        hpts = sorted(set(polytopes._homog_all(pts)))
        try:
            facets, tight = polytopes.facets_from_points(hpts, m)
        except DegenerateError:
            continue
        assert tight == polytopes._tight_sets(facets, hpts)
        keep = polytopes._keep(tight, m)
        assert keep == _quadratic_keep(tight)
        assert hull(pts, m).vertices == tuple(p for p, k in zip(polytopes._fractions(hpts, m), keep) if k)
        compared += 1
        inside += tight.count(0)
        on_faces += sum(1 for t, k in zip(tight, keep) if t and not k)
    assert compared > 100 and inside > 100 and on_faces > 100


def test_fraction_exit_matches_plain_fractions():
    rng = random.Random(2502)
    zeros = 0
    for _ in range(300):
        m = rng.randint(1, 4)
        hpts = [tuple(rng.randint(-4, 4) for _ in range(m)) + (rng.randint(1, 6),) for _ in range(rng.randint(0, 8))]
        got = polytopes._fractions(hpts, m)
        assert got == [tuple(Q(x, hp[m]) for x in hp[:m]) for hp in hpts]
        assert all(type(x) is Q for p in got for x in p)
        # one object per distinct (numerator, t), zero included
        assert len({id(x) for p in got for x in p}) == len({(x, hp[m]) for hp in hpts for x in hp[:m]})
        zeros += any(x == 0 for p in got for x in p)
    assert zeros > 100


def test_halfspace_direct_path_matches_general_path():
    """The kernel's row constructor (`_facet`) and the normalising constructor,
    given the half-space in any form, agree on row, normal, offset, equality
    and hash."""
    rng = random.Random(2503)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = tuple(rng.randint(-6, 6) for _ in range(m))
        if not any(n):
            continue
        n = tuple(x // math.gcd(*n) for x in n)
        b, k = Q(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(2, 4)
        general = [HalfSpace(list(n), b), HalfSpace(tuple(map(Q, n)), b), HalfSpace(tuple(k * x for x in n), k * b)]
        if b.denominator == 1:
            general.append(HalfSpace(n, int(b)))
        general.append(HalfSpace(n, b))
        h = polytopes._facet((*(b.denominator * x for x in n), b.numerator))
        assert h.normal == n and h.offset == b
        for g in general:
            assert g.normal == h.normal and all(type(x) is int for x in g.normal)
            assert g.offset == h.offset and type(g.offset) is Q
            assert g.row == h.row and g == h and hash(g) == hash(h)
    # bools are not exact ints: they normalise to ints
    assert HalfSpace((True, False), Q(1)).row == (1, 0, 1)
    assert HalfSpace((True, True), Q(3, 2)).row == (2, 2, 3)
    assert all(type(x) is int for x in HalfSpace((2, True), Q(1)).normal)
    for n in [(0, 0), (False, False), ()]:
        with pytest.raises(PolytopeError, match="^half-space normal must be nonzero$"):
            HalfSpace(n, Q(1))
