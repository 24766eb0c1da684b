"""Differential tests of the integer polytope kernel against the Fraction
oracle in fraction_oracle.py: double description, Bareiss rank and solve,
fiber-wise lattice enumeration, and the edge and affine-basis rules of
`crossing_points` and `hull_any`."""

import itertools
import math
import random
from fractions import Fraction as Q

import fraction_oracle as oracle
import pytest

from clustrop.linalg import rank, solve, vadd, vsub
from clustrop.polytopes import (
    DegenerateError,
    _dd_extreme_rays,
    crossing_points,
    halfspace,
    hull,
    hull_any,
    lattice_points,
    slice_polytope,
    vertices_from_facets,
)
from genutil import random_polytope_with_interior_origin


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
        try:
            want = oracle._dd_extreme_rays(cons, d)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                _dd_extreme_rays(cons, d)
            degenerate += 1
            continue
        got = _dd_extreme_rays(cons, d)
        assert len(got) == len(set(got))
        assert set(got) == set(want)
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


# ---------------------------------------------------------------------------
# (c) fiber-wise lattice points


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fiber_lattice_points_match_box_scan(m):
    rng = random.Random(430 + m)
    thin_gaps = 0
    for case in range(24 if m < 4 else 9 if m == 4 else 6):
        thin = case % 3 == 2 and m > 1
        P = _thin_polytope(rng, m) if thin else _cloud(rng, m)
        for q in (1, 2, 3):
            got = lattice_points(P, q)
            assert got == oracle.lattice_points(P, q)
            if thin:
                box = math.prod(math.floor(hi * q) - math.ceil(lo * q) + 1 for lo, hi in P.bounding_box()[:-1])
                thin_gaps += len({p[:-1] for p in got}) < box
    assert thin_gaps > 0 or m == 1


def test_lattice_points_of_lower_dimensional_polytopes_match_box_scan():
    cases = [
        hull_any([(0, 0, 0), (2, Q(4, 3), 1)], 3),
        hull_any([(0, 0, 0), (2, 1, 0), (Q(1, 2), 3, 0)], 3),
        hull_any([(Q(1, 3), 0, 1), (Q(7, 3), 2, 1), (Q(1, 3), 2, 3)], 3),
        hull_any([(1, Q(1, 2))], 2),
        hull_any([], 2),
    ]
    for P in cases:
        for q in (1, 2, 3):
            assert lattice_points(P, q) == oracle.lattice_points(P, q)


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
    d = vsub(v, u)
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
    """Points p0 + sum t_i b_i for k random directions, some with zero entries."""
    p0 = tuple(rat(rng) for _ in range(m))
    basis = [tuple(rat(rng, 2) if rng.random() < 0.7 else Q(0) for _ in range(m)) for _ in range(k)]
    return [vadd(p0, tuple(sum(rat(rng, 2) * b[i] for b in basis) for i in range(m))) for _ in range(rng.randint(1, 7))]


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
        assert (got._chart or (None, None))[:2] == (want._chart or (None, None))[:2]
        shapes.append(want.dim)
    assert {-1, 0, 1, 2} <= set(shapes)
