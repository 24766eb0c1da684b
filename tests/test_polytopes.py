import dataclasses
import itertools
import math
import random
from fractions import Fraction as Q

import fraction_oracle as oracle
import pytest

from clustrop import polytopes, tropical
from clustrop.linalg import dot
from clustrop.mutation import exchange_matrix
from clustrop.polytopes import (
    DegenerateError,
    HalfSpace,
    PolytopeError,
    halfspace,
    hull,
    hull_any,
    is_supporting,
    lattice_points,
    polar_dual,
    qgf_certificate,
    qgf_solve,
    slice_polytope,
)


def square(r=1):
    return hull([(r, r), (r, -r), (-r, r), (-r, -r)])


def test_hull_square_facets():
    P = square()
    assert len(P.vertices) == 4
    assert len(P.facets) == 4
    normals = sorted(tuple(map(int, f.normal)) for f in P.facets)
    assert normals == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(f.offset == 1 for f in P.facets)


def test_hull_drops_interior_and_non_vertices():
    P = hull([(0, 0), (1, 0), (0, 1), (1, 1), (Q(1, 2), 2), (Q(1, 2), Q(1, 2))])
    assert len(P.vertices) == 5
    assert (Q(1, 2), Q(1, 2)) not in P.vertices


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateError):
        hull([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateError):
        hull([(1, 2)])


def test_hull_rejects_points_without_coordinates():
    for points, m in [([()], None), ([(), ()], None), ([()], 0)]:
        with pytest.raises(PolytopeError, match="^hull needs points with at least one coordinate$"):
            hull(points, m)
    with pytest.raises(PolytopeError, match="^hull needs points with at least one coordinate$"):
        hull_any([()], 0)
    assert hull_any([], 0).is_empty


def test_hull_any_tags_dimension():
    seg = hull_any([(0, 0), (2, 2), (1, 1)], 2)
    assert seg.dim == 1 and seg.vertices == ((Q(0), Q(0)), (Q(2), Q(2)))
    assert seg.contains((1, 1)) and not seg.contains((1, 0))
    pt = hull_any([(3, 4)], 2)
    assert pt.dim == 0
    assert hull_any([], 2).is_empty


def test_polar_dual_square_is_diamond():
    D = polar_dual(square())
    assert D.vertices == hull([(1, 0), (0, 1), (-1, 0), (0, -1)]).vertices


def test_polar_dual_of_big_square():
    D = polar_dual(square(2))
    assert set(D.vertices) == {(Q(1, 2), Q(0)), (Q(-1, 2), Q(0)), (Q(0), Q(1, 2)), (Q(0), Q(-1, 2))}


def test_double_dual_identity():
    for P in [square(), hull([(2, 0), (0, 3), (-1, -1)]), hull([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)])]:
        assert polar_dual(polar_dual(P)) == P


def test_duals_run_no_hull(monkeypatch):
    """Both duals are read off P's face lattice: no hull, no double description."""
    P = hull([(2, 0, 0), (0, 3, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)])
    R = square(2).translate((Q(1, 2), 1))
    calls = []
    for name in ("hull", "_dd_extreme_rays"):
        real = getattr(polytopes, name)
        monkeypatch.setattr(polytopes, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    D = polar_dual(P)
    assert polar_dual(D) == P
    cert, msg = qgf_solve(R)
    assert msg == "ok" and cert.size == 2 and cert.center == (Q(1, 2), Q(1))
    assert cert.dual.vertices == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert calls == []


def test_polar_dual_needs_interior_origin():
    with pytest.raises(PolytopeError):
        polar_dual(hull([(0, 0), (1, 0), (0, 1)]))


def test_polar_dual_rejects_origin_outside():
    with pytest.raises(PolytopeError, match="^polar dual needs the origin strictly inside$"):
        polar_dual(hull([(1, 1), (3, 1), (1, 2)]))


def test_is_supporting():
    P = square()
    assert is_supporting(halfspace((-1, 0), 1), P)  # facet x <= 1
    assert is_supporting(halfspace((-1, -1), 2), P)  # touches only the corner
    assert not is_supporting(halfspace((1, 0), 5), P)  # contains but never touches
    assert not is_supporting(halfspace((1, 0), -3), P)  # cuts the square


def test_is_supporting_checks_the_dimension():
    """A half-space of R^2 against a polytope of R^3 raises, where zipping the
    rows used to read only the first two coordinates and answer True."""
    P = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(PolytopeError, match="half-space normal has 2 entries, polytope is in R\\^3"):
        is_supporting(halfspace((1, 0), 0), P)


def test_value_checks_the_dimension():
    """`HalfSpace.value` refuses a point of the wrong length, as `contains`
    does, where zipping used to drop coordinates and read (1, 2, 3) as 1."""
    h = halfspace((1, 0), 0)
    for p in ((1, 2, 3), (1,)):
        with pytest.raises(PolytopeError, match=f"^point has {len(p)} coordinates, expected 2$"):
            h.value(p)
    assert h.value((1, 2)) == 1


def test_lattice_points_counts():
    assert len(lattice_points(square(), 1)) == 9
    diamond_half = hull([(Q(1, 2), 0), (0, Q(1, 2)), (Q(-1, 2), 0), (0, Q(-1, 2))])
    assert len(lattice_points(diamond_half, 2)) == 5
    shifted = hull([(Q(3, 4), Q(3, 4)), (Q(5, 4), Q(3, 4)), (Q(3, 4), Q(5, 4)), (Q(5, 4), Q(5, 4))])
    assert lattice_points(shifted, 1) == [(Q(1), Q(1))]


@pytest.mark.parametrize("q", [0, -1, 1.5, 2.0, True, False, Q(2), "2", None])
def test_lattice_points_needs_a_positive_int_q(q):
    with pytest.raises(PolytopeError, match="^q must be a positive integer$"):
        lattice_points(square(), q)


def test_bounding_box_of_the_empty_polytope_raises():
    assert hull_any([(1, Q(1, 2))], 2).bounding_box() == [(Q(1), Q(1)), (Q(1, 2), Q(1, 2))]
    with pytest.raises(PolytopeError, match="^the empty polytope has no bounding box$"):
        hull_any([], 2).bounding_box()


def test_qgf_certificates_figure_pair():
    cert = qgf_certificate(square(2))
    assert cert is not None
    assert cert.center == (0, 0) and cert.size == 2
    assert qgf_certificate(hull([(1, 2), (1, -2), (-1, 2), (-1, -2)])) is None


def test_qgf_reflexive_square():
    cert = qgf_certificate(square())
    assert cert.size == 1
    assert set(cert.dual_vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_qgf_dual_has_primitive_integer_vertices():
    cert = qgf_certificate(square(2))
    scaled = cert.dual
    for v in scaled.vertices:
        assert all(x.denominator == 1 for x in v)
        from math import gcd

        g = 0
        for x in v:
            g = gcd(g, int(x))
        assert g == 1


def test_qgf_off_center_and_rational_size():
    # translate: center follows
    P = square(2).translate((1, 3))
    cert = qgf_certificate(P)
    assert cert.center == (1, 3) and cert.size == 2
    # rational common offset: size 1/2 is not a positive integer
    cert2, msg = qgf_solve(square(2).scale(Q(1, 4)))
    assert cert2 is None and "not an integer" in msg


def test_slice_square_in_half():
    res = slice_polytope(square(), halfspace((1, 0), 0))
    assert res.section.dim == 1
    assert res.section.vertices == ((Q(0), Q(-1)), (Q(0), Q(1)))
    assert res.plus.vertices == ((Q(0), Q(-1)), (Q(0), Q(1)), (Q(1), Q(-1)), (Q(1), Q(1)))


def test_slice_triangle_crossings():
    tri = hull([(0, 0), (2, 0), (0, 2)])
    res = slice_polytope(tri, halfspace((-1, 0), 1))  # hyperplane x = 1
    assert set(res.section.vertices) == {(Q(1), Q(0)), (Q(1), Q(1))}
    assert oracle.volume(res.plus) + oracle.volume(res.minus) == oracle.volume(tri) == 2


def test_slice_missing_hyperplane():
    P = square()
    res = slice_polytope(P, halfspace((1, 0), 10))
    assert res.plus == P and res.minus.is_empty and res.section.is_empty


def test_volume_3d_additivity():
    cube = hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert oracle.volume(cube) == 8
    res = slice_polytope(cube, halfspace((1, 1, 1), -3))
    assert oracle.volume(res.plus) + oracle.volume(res.minus) == 8


def test_rounding_free_membership():
    P = hull([(Q(1, 3), 0), (0, Q(1, 3)), (Q(-1, 3), 0), (0, Q(-1, 3))])
    assert P.contains((Q(1, 6), Q(1, 6)))
    assert not P.contains((Q(1, 6), Q(1, 5)))


def test_hrep_vrep_round_trip():
    P = hull([(2, 0), (0, 3), (-1, -1), (1, 2)])
    from clustrop.polytopes import vertices_from_facets

    assert tuple(vertices_from_facets(list(P.facets), 2)) == P.vertices


def test_slice_rejects_normal_of_wrong_dimension():
    for n in [(1, 0, 5), (1,)]:
        with pytest.raises(PolytopeError, match="^hyperplane normal has"):
            slice_polytope(square(), halfspace(n, 0))


def test_crossing_points_rejects_normal_of_wrong_dimension():
    """The cut checks the normal's length, so a short normal is not read with
    its offset as a coordinate, nor a long one cut short, on a simplex or a
    segment."""
    cases = [
        (hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]), halfspace((1, 0), -1), 2, 3),
        (hull_any([(0, 0), (2, 2)], 2), halfspace((1, -1, 0), 0), 3, 2),
    ]
    for P, h, k, m in cases:
        with pytest.raises(PolytopeError, match=f"^hyperplane normal has {k} entries, polytope is in R\\^{m}$"):
            polytopes.crossing_points(P, h)


# ---------------------------------------------------------------------------
# The facet format: HalfSpace stores the primitive integer normal


@pytest.mark.parametrize(
    "normal, offset, want_normal, want_offset",
    [
        ((2, 0), 1, (1, 0), Q(1, 2)),  # non-primitive integer
        ((6, -4, 2), Q(3, 5), (3, -2, 1), Q(3, 10)),
        ((Q(1, 2), Q(-1, 3)), 1, (3, -2), 6),  # rational: x/2 - y/3 + 1 >= 0 is 3x - 2y + 6 >= 0
        ((-4, -6), 2, (-2, -3), 1),  # negative entries keep their sign
        ((0, Q(-3, 2)), Q(-3, 4), (0, -1), Q(-1, 2)),
        ((Q(3), Q(-1), Q(0)), Q(5, 2), (3, -1, 0), Q(5, 2)),  # integer-valued Fractions
        ((3, -2, 1), Q(3, 10), (3, -2, 1), Q(3, 10)),  # already normalised
        ((0, -1), 2, (0, -1), 2),  # primitive normal, int offset
        ([3, -2, 1], Q(3, 10), (3, -2, 1), Q(3, 10)),  # primitive, but a list
    ],
)
def test_halfspace_stores_primitive_integer_normal(normal, offset, want_normal, want_offset):
    h = halfspace(normal, offset)
    assert h.normal == want_normal and all(type(x) is int for x in h.normal)
    assert h.offset == want_offset
    # the integer row (den normal, num) of offset = num/den, outside equality and repr
    want_offset = Q(want_offset)
    assert h.row == tuple(x * want_offset.denominator for x in want_normal) + (want_offset.numerator,)
    assert "row" not in repr(h)
    assert h == HalfSpace(want_normal, want_offset) and hash(h) == hash(HalfSpace(want_normal, want_offset))


@pytest.mark.parametrize("m", [8, pytest.param(9, marks=pytest.mark.slow)])
def test_hull_of_the_3_grid(m):
    """The 3^m points of {0, 1, 2}^m, all but the cube's corners inside its
    faces or inside it; m = 9 is the size of the C3 strings of B(2 rho)."""
    P = hull(list(itertools.product(range(3), repeat=m)), m)
    assert set(P.vertices) == set(itertools.product((0, 2), repeat=m))
    assert len(P.vertices) == 2**m and len(P.facets) == 2 * m


def test_halfspace_keeps_normalised_input():
    """A half-space stores its row alone; a primitive int normal and its
    offset read back as given, the offset as a Fraction, and the repr shows
    them, not the row.  The views are built once."""
    n, b = (3, -2, 0), Q(7, 4)
    h = HalfSpace(n, b)
    assert [f.name for f in dataclasses.fields(HalfSpace)] == ["row"]
    assert h.row == (12, -8, 0, 7) and h.normal == n and h.offset == b
    assert h.normal is h.normal and h.offset is h.offset
    assert repr(h) == "HalfSpace(normal=(3, -2, 0), offset=Fraction(7, 4))"
    assert type(HalfSpace(n, 2).offset) is Q and HalfSpace(n, 2).row == (3, -2, 0, 2)


def test_halfspace_zero_normal_rejected():
    for n in [(0, 0), (Q(0), 0), [0, 0, 0]]:
        with pytest.raises(PolytopeError, match="^half-space normal must be nonzero$"):
            HalfSpace(n, 1)
        with pytest.raises(PolytopeError, match="^half-space normal must be nonzero$"):
            halfspace(n, 1)


def test_halfspace_value_is_a_positive_multiple_of_the_given_form():
    rng = random.Random(460)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = [Q(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])) for _ in range(m)]
        if not any(n):
            continue
        b = Q(rng.randint(-6, 6), rng.choice([1, 2, 5]))
        h = HalfSpace(n, b)
        ratios = set()
        for _ in range(5):
            p = tuple(Q(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(m))
            given, got = dot(p, n) + b, h.value(p)
            assert (given > 0) == (got > 0) and (given < 0) == (got < 0)
            if given:
                ratios.add(got / given)
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)



# ---------------------------------------------------------------------------
# One vertex format: canonical integer rows, a Fraction view read on demand

EPS = exchange_matrix([1, 2], (2,), [1, 1], [[0, -2]])


def assert_canonical(P):
    """P's rows are sorted integer rows (t p, t) over one t > 0 whose entries
    have gcd 1, its vertices are their Fractions, and it is equal and
    hash-equal to the hull of those vertices, whatever route built it."""
    m, rows = P.ambient_dim, P.hverts
    assert all(len(r) == m + 1 and all(type(x) is int for x in r) for r in rows)
    assert list(rows) == sorted(set(rows))
    assert len({r[m] for r in rows}) <= 1 and all(r[m] > 0 for r in rows)
    assert not rows or math.gcd(*itertools.chain(*rows)) == 1
    assert P.vertices == tuple(tuple(Q(x, r[m]) for x in r[:m]) for r in rows)
    again = hull_any(P.vertices, m)
    assert again == P and hash(again) == hash(P)


def test_every_construction_route_gives_canonical_rows():
    # the interior point with denominator 7 makes the clearing t seven times what the vertices need
    P = hull([(0, 0), (2, 0), (0, 2), (2, 2), (Q(1, 7), 1)])
    assert P.hverts == ((0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1))
    routes = [P, P.translate((Q(-1, 2), Q(-1, 3))), P.scale(Q(3, 4))]
    pts = [(Q(1, 2), 0, 0), (0, Q(2, 3), 0), (0, 0, 1), (0, 0, 0), (Q(1, 5), Q(1, 5), Q(1, 5))]
    # dimensions -1 to 3: the interior point of the last two has denominator 5
    routes += [hull_any(pts[:k], 3) for k in range(5)] + [hull_any(pts, 3)]
    assert [R.dim for R in routes[3:]] == [-1, 0, 1, 2, 3, 3]
    C = P.translate((-1, -1))
    cert = qgf_certificate(C)
    routes += [polar_dual(C), polar_dual(C.scale(Q(2, 3))), cert.dual, polar_dual(polar_dual(C))]
    res = slice_polytope(hull([(Q(-1, 2), 0), (1, 1), (1, -1)]), halfspace((2, 1), 0))
    routes += [res.section, res.plus, res.minus]
    for pts in ([(Q(1, 2), 0), (2, 0), (1, Q(5, 3)), (2, 5)], [(0, 0), (-1, 2), (1, 0), (1, 2)]):
        img = tropical.trop_mutate_polytope(EPS, 1, hull(pts))
        assert img.convex
        routes.append(img.polytope)
    img = tropical.trop_mutate_polytope(EPS, 1, hull([(2, 2), (2, -2), (Q(-1, 2), 2), (Q(-1, 2), -2)]))
    assert not img.convex
    routes += [img.plus_image, img.minus_image]
    for R in routes:
        assert_canonical(R)


def test_cut_pieces_divide_out_the_common_t():
    """The cut's rows share t = 6 (the vertex (-1/2, 0) and the crossings
    (0, ±1/3)), but the plus piece needs only 3: the constructor divides the
    content out, as it does for a tropical piece cut over t = 2 that needs 1."""
    P, h = hull([(Q(-1, 2), 0), (1, 1), (1, -1)]), halfspace((1, 0), 0)
    assert {hp[-1] for hp in polytopes._cut(P, h.row)[0]} == {6}
    res = slice_polytope(P, h)
    assert res.plus.hverts == ((0, -1, 3), (0, 1, 3), (3, -3, 3), (3, 3, 3))
    assert res.minus.hverts == ((-3, 0, 6), (0, -2, 6), (0, 2, 6))
    assert res.section.hverts == ((0, -1, 3), (0, 1, 3))
    for R in (res.plus, res.minus, res.section):
        assert_canonical(R)
    Pt = hull([(2, 2), (2, -2), (Q(-1, 2), 2), (Q(-1, 2), -2)])
    assert {hp[-1] for hp in polytopes._cut(Pt, h.row)[0]} == {2}
    assert tropical.trop_mutate_polytope(EPS, 1, Pt).plus_image.hverts[0][-1] == 1


def test_hot_paths_build_no_fraction(monkeypatch):
    """Hulls, double duals, the QGF solve and its dual, lattice points, the
    support test, translates, scalings, slices, a convex preservation check
    and tropical images, convex or not with their pieces read, all run on
    integer rows: no vertex view and no facet's Fraction offset is built.
    `vertices` is built on first read, once."""
    pts = [(1, 0, 0), (0, Q(3, 2), 0), (0, 0, 2), (-1, -1, Q(-1, 3)), (Q(1, 5), Q(1, 5), Q(1, 5))]
    built = []
    real = polytopes._fractions
    with monkeypatch.context() as patch:
        patch.setattr(polytopes, "_fractions", lambda *a: pytest.fail("_fractions called"))
        patch.setattr(HalfSpace, "offset", property(lambda h: pytest.fail("HalfSpace.offset read")))
        P = hull(pts)
        D = polar_dual(polar_dual(P))
        cert, msg = qgf_solve(square())
        assert msg == "ok" and len(lattice_points(cert.dual, 2)) == 13
        assert len(lattice_points(P, 3)) > 0 and is_supporting(halfspace((-1, 0, 0), 1), P)
        moved = P.translate((Q(1, 2), -1, Q(2, 3))).scale(Q(3, 4))
        assert len(moved.facets) == len(P.facets)
        res = slice_polytope(moved, halfspace((1, -2, 0), Q(1, 3)))
        assert (res.section.dim, res.plus.dim, res.minus.dim) == (2, 3, 3)
        R = square().translate((0, 1))
        report = tropical.qgf_preservation_check(exchange_matrix([1, 2], (2,), [1, 1], [[0, 0]]), 1, R)
        assert report.mutated.size == 1
        assert tropical.trop_mutate_polytope(EPS, 1, hull([(0, 0), (-1, 2), (1, 0), (1, 2)])).convex
        img = tropical.trop_mutate_polytope(EPS, 1, hull([(2, 2), (2, -2), (Q(-1, 2), 2), (Q(-1, 2), -2)]))
        assert not img.convex and img.plus_image.dim == img.minus_image.dim == 2
        patch.setattr(polytopes, "_fractions", lambda *a: built.append(a) or real(*a))
        first = D.vertices
        assert D.vertices is first and len(built) == 1
    assert D == P and first == P.vertices


def test_hot_paths_build_no_normal_view(monkeypatch):
    """The constructor orders facets by their stored rows, so a hull, its
    double polar dual, lattice points, a slice and tropical images, convex or
    not with a piece read, build no facet's `normal` view; reading it builds
    it once."""
    views = []
    real = HalfSpace.normal.func
    monkeypatch.setattr(HalfSpace.normal, "func", lambda h: views.append(h) or real(h))
    P = hull([(1, 0, 0), (0, Q(3, 2), 0), (0, 0, 2), (-1, -1, Q(-1, 3)), (Q(1, 5), Q(1, 5), Q(1, 5))])
    assert polar_dual(polar_dual(P)) == P
    assert len(lattice_points(P, 2)) > 0
    res = slice_polytope(P, halfspace((1, -2, 0), Q(1, 3)))
    assert (res.section.dim, res.plus.dim, res.minus.dim) == (2, 3, 3)
    assert tropical.trop_mutate_polytope(EPS, 1, hull([(0, 0), (-1, 2), (1, 0), (1, 2)])).convex
    img = tropical.trop_mutate_polytope(EPS, 1, hull([(2, 2), (2, -2), (Q(-1, 2), 2), (Q(-1, 2), -2)]))
    assert not img.convex and img.plus_image.dim == 2
    assert views == []
    f = P.facets[0]
    assert f.normal is f.normal and views == [f]
