import json
import math
import random
import re
from fractions import Fraction as Q
from importlib import resources
from operator import mul

import fraction_oracle as oracle
import pytest
from genutil import g2_delta, gelfand_tsetlin, random_exchange, random_polytope_with_interior_origin, random_qgf_polytope

from clustrop import jsonio, polytopes, tropical
from clustrop.glsseed import gls_exchange_matrix
from clustrop.mutation import FrozenIndexError, exchange_matrix
from clustrop.polytopes import halfspace, hull, hull_any, qgf_certificate, qgf_solve, slice_polytope
from clustrop.rootsys import cartan_matrix
from clustrop.tropical import (
    FamilySpec,
    PreconditionError,
    Stage,
    TropicalError,
    TropImage,
    center_fixedness,
    distinguish_certificate,
    qgf_preservation_check,
    supporting_halfspace_lemma,
    trop_mutate_point,
    trop_mutate_polytope,
)


def eps_row(row, frozen=(2,)):
    return exchange_matrix([1, 2], frozen, [1, 1], [row])


EPS = eps_row([0, -2])


def test_point_map_branches():
    assert trop_mutate_point(EPS, 1, (-1, 3)) == (1, 1)
    assert trop_mutate_point(EPS, 1, (1, 3)) == (-1, 3)
    assert trop_mutate_point(EPS, 1, (0, 7)) == (0, 7)


def test_point_map_rejects_frozen():
    with pytest.raises(FrozenIndexError):
        trop_mutate_point(EPS, 2, (1, 1))


def test_point_map_dimension_check():
    with pytest.raises(TropicalError):
        trop_mutate_point(EPS, 1, (1, 2, 3))


def test_point_map_is_bijective_with_tropical_inverse():
    rng = random.Random(31)
    for _ in range(1000):
        n_mut = rng.randint(1, 3)
        n_fr = rng.randint(0, 2)
        cols = list(range(1, n_mut + n_fr + 1))
        d = [1] * len(cols)
        omega = [[0] * n_mut for _ in range(n_mut)]
        for i in range(n_mut):
            for j in range(i + 1, n_mut):
                w = rng.randint(-3, 3)
                omega[i][j], omega[j][i] = w, -w
        rows = [omega[i] + [rng.randint(-3, 3) for _ in range(n_fr)] for i in range(n_mut)]
        eps = exchange_matrix(cols, cols[n_mut:], d, rows)
        k = rng.choice(eps.mutable)
        u = tuple(Q(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in cols)
        v = trop_mutate_point(eps, k, u)
        assert trop_mutate_point(eps.mutate(k), k, v) == u


def test_integer_points_stay_integer():
    rng = random.Random(32)
    eps = eps_row([0, -2])
    for _ in range(200):
        u = (rng.randint(-5, 5), rng.randint(-5, 5))
        v = trop_mutate_point(eps, 1, u)
        assert all(x.denominator == 1 for x in v)


def test_polytope_single_branch_when_one_sided():
    P = hull([(1, 0), (2, 0), (1, 5), (2, 5)])  # u_1 >= 1 > 0
    img = trop_mutate_polytope(EPS, 1, P)
    assert img.convex
    assert img.polytope.vertices == hull([(-1, 0), (-2, 0), (-1, 5), (-2, 5)]).vertices


def test_polytope_two_branch_example_and_inverse():
    P = hull([(0, 0), (-1, 2), (1, 0), (1, 2)])
    img = trop_mutate_polytope(EPS, 1, P)
    assert img.convex
    assert set(img.polytope.vertices) == {(Q(-1), Q(0)), (Q(-1), Q(2)), (Q(0), Q(2)), (Q(1), Q(0))}
    back = trop_mutate_polytope(EPS.mutate(1), 1, img.polytope)
    assert back.convex and back.polytope == P


def test_polytope_nonconvex_image_returns_pieces():
    # wide symmetric square folds into two wedges
    eps = eps_row([0, -2])
    P = hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    img = trop_mutate_polytope(eps, 1, P)
    assert not img.convex
    assert img.polytope is None
    assert img.plus_image is not None and img.minus_image is not None
    # the two pieces sit on opposite sides of the wall
    assert all(v[0] <= 0 for v in img.plus_image.vertices)
    assert all(v[0] >= 0 for v in img.minus_image.vertices)


def test_trop_mutate_polytope_runs_no_hull(monkeypatch):
    """The image is read off P's facets and vertices, on one side of the wall
    or touching it, and for convex and non-convex unions: no hull, no double
    description."""
    cases = {
        "one-sided": (hull([(1, 0), (2, 0), (1, 5), (2, 5)]), True),
        "touching": (hull([(0, 0), (-2, 0), (0, 5), (-2, 5)]), True),  # an edge on the wall
        "through a vertex": (hull([(0, 0), (-1, 3), (1, 3)]), True),
        "convex": (hull([(0, 0), (-1, 2), (1, 0), (1, 2)]), True),
        "non-convex": (hull([(2, 2), (2, -2), (-2, 2), (-2, -2)]), False),
    }
    want = {name: oracle.trop_mutate_polytope(EPS, 1, P) for name, (P, _) in cases.items()}
    calls = []
    wrapped = ((polytopes, "hull"), (polytopes, "hull_any"), (polytopes, "_dd_extreme_rays"), (tropical, "hull"))
    for module, name in wrapped:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    for name, (P, convex) in cases.items():
        got = trop_mutate_polytope(EPS, 1, P)
        assert got.convex == want[name].convex == convex, name
        for part in ("polytope", "plus_image", "minus_image"):
            g, w = getattr(got, part), getattr(want[name], part)
            assert (g and (g.vertices, g.dim, g.facets)) == (w and (w.vertices, w.dim, w.facets)), (name, part)
    assert calls == []


def test_diamond_cut_through_two_vertices_matches_fraction_oracle():
    """The diamond reaches both sides of u_1 = 0, but the wall holds two of
    its vertices and crosses no edge strictly: the tropical image, convex and
    not, and both slice halves match the Fraction oracle."""
    diamond = hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    wall = halfspace((1, 0), 0)
    assert oracle.crossing_points(diamond, wall) == []
    convex = set()
    for row in ([0, -2], [0, 2], [0, 3], [0, -3]):
        eps = eps_row(row)
        got, want = trop_mutate_polytope(eps, 1, diamond), oracle.trop_mutate_polytope(eps, 1, diamond)
        assert got.convex == want.convex
        for part in ("polytope", "plus_image", "minus_image"):
            g, w = getattr(got, part), getattr(want, part)
            assert (g and (g.vertices, g.dim, g.facets)) == (w and (w.vertices, w.dim, w.facets)), (row, part)
        convex.add(got.convex)
    assert convex == {True, False}
    res = slice_polytope(diamond, wall)
    for s, half in ((1, res.plus), (-1, res.minus)):
        want = oracle.hull([v for v in diamond.vertices if s * v[0] >= 0], 2)
        assert (half.vertices, half.dim, half.facets) == (want.vertices, want.dim, want.facets)
    want = oracle.hull_any([(0, 1), (0, -1)], 2)
    assert (res.section.vertices, res.section.dim) == (want.vertices, want.dim) == (((0, -1), (0, 1)), 1)


def test_polytope_convexity_matches_volume_oracle():
    """The piece images meet only on the wall, so their union is convex iff
    its hull has exactly the sum of their volumes (exact, m <= 3)."""
    rng = random.Random(109)
    seen = {True: 0, False: 0}
    for _ in range(200):
        m = rng.choice([2, 3])
        P = random_polytope_with_interior_origin(rng, m)
        P = P.translate(tuple(Q(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(m)))
        n_mut = rng.randint(1, m)
        eps = random_exchange(rng, n_mut=n_mut, n_frozen=m - n_mut)
        k = rng.choice(eps.mutable)
        wall = halfspace([1 if c == k else 0 for c in eps.cols], 0)
        pieces = slice_polytope(P, wall)
        plus = hull_any([trop_mutate_point(eps, k, v) for v in pieces.plus.vertices], m)
        minus = hull_any([trop_mutate_point(eps, k, v) for v in pieces.minus.vertices], m)
        H = hull(plus.vertices + minus.vertices, m)
        convex = oracle.volume(H) == oracle.volume(plus) + oracle.volume(minus)
        img = trop_mutate_polytope(eps, k, P)
        assert img.convex == convex
        if convex:
            assert img.polytope == H
        else:
            assert (img.plus_image, img.minus_image) == (plus, minus)
        seen[convex] += 1
    assert min(seen.values()) >= 40, seen


def _convexity_both_ways(eps, k, P):
    """For P with vertices strictly on both sides of the wall u_k = 0, A and
    B the images of its sides u_k >= 0 and u_k <= 0: whether B's images of
    P's vertices off the wall lie in A's mapped facet half-spaces, and whether
    A's lie in B's; None for P on one side."""
    ki = eps.col_index(k)
    vals = [hp[ki] for hp in P.hverts]
    sides = [[i for i, v in enumerate(vals) if s * v > 0] for s in (1, -1)]
    if not all(sides):
        return None
    maps = [tropical._side(eps.row(k), s) + (0,) for s in (1, -1)]
    rows = [[tropical._map_facet(f.row, p, ki) for f in polytopes._held(P, idx)] for idx, p in zip(sides, maps)]
    images = [[tropical._trop(p, ki, P.hverts[i]) for i in idx] for idx, p in zip(sides, maps)]
    return [all(sum(map(mul, r, u)) >= 0 for r in rows[a] for u in images[1 - a]) for a in (0, 1)]


def test_convexity_needs_one_direction():
    """Two piece images glued along the section are convex iff either lies in
    the other's mapped facet half-spaces, so the image tests one direction:
    both agree, and give the image's flag, on seeded centred, translated and
    QGF polytopes in dimensions 2 to 5 and on GT(2 rho) of Fl(4)."""
    rng = random.Random(2804)
    seen = {True: 0, False: 0}
    cases = [_gls_gelfand_tsetlin(4)[::-1]]
    for _ in range(300):
        m, kind = rng.randint(2, 5), rng.choice(["centred", "translated", "qgf"])
        P = random_qgf_polytope(rng, m)[0] if kind == "qgf" else random_polytope_with_interior_origin(rng, m)
        if kind == "translated":
            P = P.translate(tuple(Q(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(m)))
        n_mut = rng.randint(1, m)
        cases.append((P, random_exchange(rng, n_mut=n_mut, n_frozen=m - n_mut, span=1)))
    for P, eps in cases:
        for k in eps.mutable:
            both = _convexity_both_ways(eps, k, P)
            if both is not None:
                assert both[0] == both[1] == trop_mutate_polytope(eps, k, P).convex, (P, eps, k)
                seen[both[0]] += 1
    assert min(seen.values()) >= 100, seen


def test_center_fixedness_conditions():
    eps3 = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -2], [-1, 0, -2]])
    assert center_fixedness(eps3, (0, 0, 5)).fixed
    rep = center_fixedness(eps3, (0, 1, 5))
    assert not rep.fixed and rep.violations == ((2, 1),)


def test_center_fixedness_checks_the_point_length():
    """A short point raises the error a long one gets, not an IndexError."""
    eps3 = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -2], [-1, 0, -2]])
    for u0 in ((0,), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(TropicalError, match="^point dimension does not match column count$"):
            center_fixedness(eps3, u0)


def test_center_fixedness_equivalence_randomized():
    rng = random.Random(35)
    eps3 = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -2], [-1, 0, -2]])
    for _ in range(1000):
        u0 = tuple(Q(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3))
        rep = center_fixedness(eps3, u0)  # internal assert compares both conditions
        direct = all(trop_mutate_point(eps3, k, u0) == u0 for k in eps3.mutable)
        assert rep.fixed == direct


def test_qgf_preservation_trivial_row():
    eps = eps_row([0, 0])
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((0, 1))
    report = qgf_preservation_check(eps, 1, P)
    assert report.initial.size == report.mutated.size == 1
    assert report.mutated.center == report.initial.center == (0, 1)


def test_qgf_preservation_rejects_non_qgf_input():
    eps = eps_row([0, -2])
    bad = hull([(1, 2), (1, -2), (-1, 2), (-1, -2)])
    with pytest.raises(PreconditionError) as err:
        qgf_preservation_check(eps, 1, bad)
    assert err.value.which == "qgf"


def test_qgf_preservation_rejects_moving_center():
    eps = eps_row([0, -2])
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((1, 0))
    with pytest.raises(PreconditionError) as err:
        qgf_preservation_check(eps, 1, P)
    assert err.value.which == "center_fixed"


# ---------------------------------------------------------------------------
# QGF checks build the combinatorial dual only when it is read


@pytest.fixture
def dual_calls(monkeypatch):
    """The argument tuples of every `polytopes._dual` call, recorded by a wrapper."""
    calls, real = [], polytopes._dual

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytopes, "_dual", counted)
    return calls


def _moved_qgf_polytopes(rng, count):
    """Seeded QGF polytopes in dimensions 1-4, as drawn, moved off the origin
    and scaled by 2."""
    out = []
    for _ in range(count):
        m = rng.randint(1, 4)
        P, _nu = random_qgf_polytope(rng, m)
        out += [P, P.translate(tuple(Q(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(m))).scale(2)]
    return out


def test_qgf_solve_builds_no_dual(dual_calls):
    rng = random.Random(610)
    cases = _moved_qgf_polytopes(rng, 15)
    cases += [random_polytope_with_interior_origin(rng, rng.randint(1, 4)) for _ in range(15)]
    dual_calls.clear()  # the generators run polar_dual
    diagnostics = {qgf_solve(P)[1].split(":")[0] for P in cases}
    assert dual_calls == []
    assert "ok" in diagnostics and len(diagnostics) >= 2, diagnostics


def test_preservation_check_builds_no_dual(dual_calls, monkeypatch):
    """A seeded batch of preservation checks reaches accepted (convex) images,
    non-convex images and each precondition, and never builds a dual.  An
    input passing the first three preconditions cannot fail "mutated_qgf" (a
    convex image keeps the identity on every facet), so that one is reached
    with a non-QGF image put in place of the tropical image."""
    rng = random.Random(620)
    cases = []
    for case in range(60):
        dim = rng.choice((2, 3))
        n_mut = rng.randint(1, dim)
        eps = random_exchange(rng, n_mut=n_mut, n_frozen=dim - n_mut)
        P, _nu = random_qgf_polytope(rng, dim, max_size=2)
        if case % 4 == 1:  # moved along the frozen coordinates: the center stays fixed
            P = P.translate(tuple(0 if c in eps.mutable else Q(rng.randint(-3, 3), 2) for c in eps.cols))
        elif case % 4 == 2:
            P = P.translate(tuple(Q(rng.randint(-3, 3), 2) for _ in range(dim)))
        elif case % 4 == 3:
            P = random_polytope_with_interior_origin(rng, dim)
        cases.append((eps, rng.choice(eps.mutable), P))
    dual_calls.clear()  # the generators run polar_dual
    outcomes = {}

    def check(eps, k, P):
        try:
            qgf_preservation_check(eps, k, P)
            which = "accepted"
        except PreconditionError as err:
            which = err.which
        outcomes[which] = outcomes.get(which, 0) + 1

    for eps, k, P in cases:
        check(eps, k, P)
    not_qgf = hull([(1, 2), (1, -2), (-1, 2), (-1, -2)])
    monkeypatch.setattr(tropical, "trop_mutate_polytope", lambda eps, k, P: TropImage(True, not_qgf))
    check(eps_row([0, -2]), 1, hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((0, 1)))
    assert dual_calls == []
    assert set(outcomes) == {"accepted", "qgf", "center_fixed", "convex_image", "mutated_qgf"}, outcomes
    assert min(outcomes[w] for w in ("accepted", "qgf", "center_fixed", "convex_image")) >= 3, outcomes


def test_certificate_builds_its_dual_once_on_first_read(dual_calls):
    """The first `dual` read makes one `_dual` call on the certificate's
    polytope, center and size, a second read none; reading it changes neither
    equality nor the hash."""
    rng = random.Random(630)
    for P in _moved_qgf_polytopes(rng, 12):
        cert, msg = qgf_solve(P)
        assert msg == "ok"
        before = hash(cert)
        dual_calls.clear()
        D = cert.dual
        assert dual_calls == [(P, cert.center, cert.size)]
        assert cert.dual is D and len(dual_calls) == 1
        want = polytopes._dual(P, cert.center, cert.size)
        assert (D.vertices, D.dim, D.facets) == (want.vertices, want.dim, want.facets)
        assert [f.row for f in D.facets] == [f.row for f in want.facets]
        assert hash(cert) == before and cert == qgf_solve(P)[0]


@pytest.fixture
def normal_views(monkeypatch):
    """The half-spaces whose `normal` view is built, recorded by wrapping the view's function."""
    calls, real = [], polytopes.HalfSpace.normal.func
    monkeypatch.setattr(polytopes.HalfSpace.normal, "func", lambda h: calls.append(h) or real(h))
    return calls


def _fresh(P):
    """P with new half-spaces on the same rows, so no view of them is built yet."""
    return polytopes.RationalPolytope(P.hverts, P.ambient_dim, P.dim, [polytopes._facet(f.row) for f in P.facets])


def test_qgf_checks_build_no_normal_view(normal_views):
    """`qgf_solve` and `qgf_preservation_check`, accepting or refusing, build
    no `normal` view; `dual_vertices` is the sorted normals, built on first
    read and cached."""
    rng = random.Random(640)
    outcomes = {}
    certs = []
    for P in _moved_qgf_polytopes(rng, 10) + [random_polytope_with_interior_origin(rng, 3) for _ in range(5)]:
        P = _fresh(P)
        cert = qgf_solve(P)[0]
        certs.append((cert, P))
        if cert is None:
            continue
        eps = random_exchange(rng, n_mut=P.ambient_dim, n_frozen=0)
        centred = P.translate(tuple(-x for x in cert.center))  # a fixed center
        for k in eps.mutable:
            try:
                qgf_preservation_check(eps, k, centred)
                which = "accepted"
            except PreconditionError as err:
                which = err.which
            outcomes[which] = outcomes.get(which, 0) + 1
    assert normal_views == []
    assert {"accepted", "convex_image"} <= set(outcomes), outcomes
    for cert, P in certs:
        if cert is not None:
            assert cert.dual_vertices == tuple(sorted(f.normal for f in P.facets))
            assert cert.dual_vertices is cert.dual_vertices
    assert len(normal_views) == sum(len(P.facets) for cert, P in certs if cert is not None)


def test_certificate_equality_follows_center_size_and_normals():
    """Certificates are equal, and hash alike, exactly when their centers,
    sizes and dual vertices are: the same polytope reached by other routes
    gives an equal certificate; a moved center, another size or other
    normals a different one.  The repr shows the center and the size."""
    rng = random.Random(650)
    certs = []
    for P in _moved_qgf_polytopes(rng, 6):
        t = tuple(Q(rng.randint(-3, 3), 2) for _ in range(P.ambient_dim))
        same = [P.translate(t).translate(tuple(-x for x in t)), P.scale(3).scale(Q(1, 3)), hull(P.vertices[::-1])]
        certs += [qgf_solve(R)[0] for R in [P, *same, P.translate(t), P.scale(2)]]
    certs.append(qgf_solve(hull([(1, 0), (0, 1), (-1, -1)]))[0])  # the next two: center 0 and size 1 alike
    certs.append(qgf_solve(hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]))[0])
    pairs = equal = 0
    for a in certs:
        for b in certs:
            key_equal = (a.center, a.size, a.dual_vertices) == (b.center, b.size, b.dual_vertices)
            assert (a == b) == key_equal
            assert not key_equal or hash(a) == hash(b)
            pairs, equal = pairs + 1, equal + key_equal
    assert equal > len(certs) and pairs > equal
    assert len(set(certs)) == len({(c.center, c.size, c.dual_vertices) for c in certs})
    assert repr(certs[0]) == f"QGFCertificate(center={certs[0].center!r}, size={certs[0].size!r})"


# ---------------------------------------------------------------------------
# Tropical images build their half-spaces and polytopes only when read


@pytest.fixture
def builds(monkeypatch):
    """The name of every `RationalPolytope` and half-space (`_facet`, the row
    constructor) construction that `tropical` makes, recorded by wrappers."""
    calls = []
    for name in ("RationalPolytope", "_facet"):
        real = getattr(tropical, name)
        monkeypatch.setattr(tropical, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    return calls


SQUARE = hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])  # its image under EPS in direction 1 is not convex


def test_preservation_check_builds_no_refused_image(builds):
    """A QGF polytope with a fixed center whose image is not convex is refused
    on the convexity flag alone: no image half-space, no image polytope."""
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((0, 1))
    for row in ([0, -2], [0, 2], [0, -1]):
        with pytest.raises(PreconditionError) as err:
            qgf_preservation_check(eps_row(row), 1, P)
        assert err.value.which == "convex_image"
    assert builds == []


def test_certificate_builds_nothing_for_a_blocking_image(builds):
    """The replay takes the convex image in direction 1 and stops at the
    non-convex one in direction 2: the certificate builds exactly what the
    first image builds."""
    eps, P = family_fixture()
    assert not trop_mutate_polytope(eps.mutate(1), 2, trop_mutate_polytope(eps, 1, P).polytope).convex
    builds.clear()
    trop_mutate_polytope(eps, 1, P).polytope
    want = list(builds)
    assert want
    builds.clear()
    cert = distinguish_certificate(FamilySpec(eps, P, (Stage((1, 2), 1, 3),)))
    assert cert.stages[0].notes == ("replay blocked: non-convex tropical image at direction 2 after (1,)",)
    assert builds == want
    builds.clear()
    distinguish_certificate(FamilySpec(eps, P, (Stage((1, 2), 1, 3), Stage((1, 2, 1), 2, 3))))
    assert builds == want


@pytest.fixture
def crossing_calls(monkeypatch):
    """The argument tuples of every call of the cut (`polytopes._cut`),
    recorded through each module's binding of it."""
    calls, real = [], polytopes._cut
    for module in (polytopes, tropical):
        monkeypatch.setattr(module, "_cut", lambda *a: calls.append(a) or real(*a))
    return calls


def _gls_gelfand_tsetlin(n):
    """GT(2 rho) of Fl(n) centred at its QGF center, and the GLS seed of the
    reduced word (1, 2, 1, 3, 2, 1, ...) of the longest element of S_n."""
    P = gelfand_tsetlin(n)
    P = P.translate(tuple(-x for x in qgf_solve(P)[0].center))
    word = tuple(i for j in range(1, n) for i in range(j, 0, -1))
    return gls_exchange_matrix(cartan_matrix("A", n - 1), word), P


@pytest.fixture
def incidence(monkeypatch):
    """What the side rule reads: the point lists of every `polytopes._tight_sets` call, and the
    (polytope, vertex indices) of every `_held` call, through each module's binding."""
    calls = {"_tight_sets": [], "_held": []}
    for name in calls:
        real = getattr(polytopes, name)
        for module in (polytopes, tropical):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls[name].append(a) or real(*a))
    return calls


def test_refusals_compute_no_crossings(crossing_calls, builds, incidence, monkeypatch):
    """A refusal reads only P's vertices off the wall: refusing SQUARE, GT(2 rho)
    of Fl(4) and Fl(5) in their GLS directions and the images a preservation
    check meets computes no crossing and builds no half-space, not even the
    wall.  It evaluates facet rows only at P's vertices strictly on the plus
    side, one `_held` read of those alone, and never the full incidence.  The
    first piece read computes the crossings once, and so does a convex image
    cut in two."""
    eps4, gt4 = _gls_gelfand_tsetlin(4)
    eps5, gt5 = _gls_gelfand_tsetlin(5)
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((0, 1))
    real = polytopes._facet
    monkeypatch.setattr(polytopes, "_facet", lambda *a: builds.append("polytopes._facet") or real(*a))
    builds.clear()
    incidence["_tight_sets"].clear()
    for eps, gt in ((eps4, gt4), (eps5, gt5)):
        for k in eps.mutable:
            incidence["_held"].clear()
            assert not trop_mutate_polytope(eps, k, gt).convex
            ki = eps.col_index(k)
            assert incidence["_held"] == [(gt, [i for i, hp in enumerate(gt.hverts) if hp[ki] > 0])]
    img = trop_mutate_polytope(EPS, 1, SQUARE)
    for row in ([0, -2], [0, 2], [0, -1]):
        with pytest.raises(PreconditionError, match="convex_image"):
            qgf_preservation_check(eps_row(row), 1, P)
    assert crossing_calls == [] and builds == [] and incidence["_tight_sets"] == []
    assert all(ix == [i for i, hp in enumerate(R.hverts) if hp[0] > 0] for R, ix in incidence["_held"][-4:])
    assert img.plus_image.dim == 2
    assert len(crossing_calls) == 1 and len(incidence["_tight_sets"]) == 1
    crossing_calls.clear()
    assert trop_mutate_polytope(EPS, 1, hull([(0, 0), (-1, 2), (1, 0), (1, 2)])).convex
    assert len(crossing_calls) == 1


def test_gelfand_tsetlin_fl5_refusals_compute_no_crossings(crossing_calls):
    """GT(2 rho) of Fl(5), 358 vertices in R^10, is refused in all 6 GLS
    directions on its vertices off the wall alone."""
    eps, P = _gls_gelfand_tsetlin(5)
    assert (len(P.hverts), len(eps.mutable)) == (358, 6)
    assert [trop_mutate_polytope(eps, k, P).convex for k in eps.mutable] == [False] * 6
    assert crossing_calls == []


def test_image_builds_its_pieces_once_on_first_read(builds):
    """A non-convex image builds nothing until a piece is read; the first
    read builds both pieces, later reads return the same objects, and
    `TropImage` leaves ordinary attribute lookup alone.  A convex image,
    which every caller reads, is built by `trop_mutate_polytope` once."""
    assert "__getattribute__" not in vars(TropImage)
    img = trop_mutate_polytope(EPS, 1, SQUARE)
    assert not img.convex and img.polytope is None and builds == []
    plus = img.plus_image
    minus = img.minus_image
    assert builds.count("RationalPolytope") == 2 and 0 < builds.count("_facet") <= len(plus.facets + minus.facets)
    built = len(builds)
    assert img.plus_image is plus and img.minus_image is minus and img.polytope is None
    assert len(builds) == built
    for P in (hull([(1, 0), (2, 0), (1, 5), (2, 5)]), hull([(0, 0), (-1, 2), (1, 0), (1, 2)])):  # one-sided, two pieces
        builds.clear()
        img = trop_mutate_polytope(EPS, 1, P)
        H = img.polytope
        assert img.convex and builds.count("RationalPolytope") == 1 and builds.count("_facet") == len(H.facets)
        assert img.polytope is H and img.plus_image is None and img.minus_image is None
        assert len(builds) == len(H.facets) + 1
    with pytest.raises(AttributeError):
        img.other


def test_deferred_image_equals_the_image_made_from_its_parts():
    """A non-convex image made on first read compares, hashes and prints as
    `TropImage(False, None, plus, minus)` made from the pieces it reads
    back, whichever of the three is asked first."""
    parts = trop_mutate_polytope(EPS, 1, SQUARE)
    ready = TropImage(False, None, parts.plus_image, parts.minus_image)
    for first in (repr, hash, lambda img: img == ready):
        img = trop_mutate_polytope(EPS, 1, SQUARE)
        first(img)
        assert img == ready and hash(img) == hash(ready) and repr(img) == repr(ready)
    img = trop_mutate_polytope(EPS, 1, SQUARE)
    assert repr(img) == repr(TropImage(False, None, img.plus_image, img.minus_image))
    assert img == TropImage(False, None, img.plus_image, img.minus_image)


def test_certificate_tests_its_image_with_no_piece_built(monkeypatch, crossing_calls):
    """On `family_2stage` stage (1,) meets a non-convex image in direction 2.
    Its test u_3 >= 0 (`TropImage.in_halfspace`) maps the stage polytope's
    vertices, which all lie in u_3 >= 0, so the certificate builds no piece
    polytope and computes no crossing beyond the one cut of the convex image
    the replay takes in direction 1; its records stay as they were."""
    deferred, built = [], []
    real = TropImage._deferred.__func__

    def wrapped(cls, build, within):
        deferred.append(build)
        return real(cls, lambda: built.append(build) or build(), within)

    monkeypatch.setattr(TropImage, "_deferred", classmethod(wrapped))
    fam = json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]
    cert = distinguish_certificate(jsonio.family_from_obj(fam))
    assert len(deferred) == 1 and built == [] and len(crossing_calls) == 1
    assert [(st.cond_image, st.dual_count, st.valid) for st in cert.stages] == [(True, 21, True), (True, 23, True)]


def test_certificate_solves_and_mutates_each_polytope_once(monkeypatch):
    """Over one run `distinguish_certificate` calls `qgf_solve` once per
    distinct polytope and `trop_mutate_polytope` once per distinct (matrix,
    direction, polytope), counted through the `tropical` bindings: 2 and 2 on
    `family_2stage`, 5 and 11 on Delta_212121(2 rho) of G2 with stages
    (2) + (1, 3)^n, n = 0..3, and pair (3, 5)."""
    calls = {"qgf_solve": [], "trop_mutate_polytope": []}
    for name, log in calls.items():
        real = getattr(tropical, name)
        monkeypatch.setattr(tropical, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
    fam = json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]
    g2 = FamilySpec(
        gls_exchange_matrix(cartan_matrix("G", 2), (2, 1, 2, 1, 2, 1)), g2_delta(),
        tuple(Stage((2,) + (1, 3) * n, 3, 5) for n in range(4)),
    )
    for family, want in ((jsonio.family_from_obj(fam), (2, 2)), (g2, (5, 11))):
        for log in calls.values():
            log.clear()
        distinguish_certificate(family)
        assert (len(calls["qgf_solve"]), len(calls["trop_mutate_polytope"])) == want
        assert all(len(set(log)) == len(log) for log in calls.values())


def _pieces(img):
    return (img.polytope,) if img.convex else (img.plus_image, img.minus_image)


def test_image_halfspace_test_gives_the_piece_verdicts(crossing_calls):
    """`cond_image` and the lemma's `image_halfspace` test u_s >= 0 on the
    image by `TropImage.in_halfspace`.  Over seeded images, convex or not, of
    polytopes inside u_s >= 0 or not, both equal the test read off the
    image's own pieces, built after it, and off the Fraction oracle's pieces.
    A non-convex image of a polytope inside u_s >= 0 is tested with no
    crossing computed."""
    rng = random.Random(31)
    seen = set()
    for case in range(120):
        dim = rng.randint(2, 4)
        n_mut = rng.randint(1, dim)
        eps = random_exchange(rng, n_mut=n_mut, n_frozen=dim - n_mut)
        r, s = rng.choice(eps.mutable), rng.choice(eps.cols)
        si, inside = eps.col_index(s), case % 2 == 0
        pts = [tuple(rng.randint(0 if inside and i == si else -3, 3) for i in range(dim)) for _ in range(dim + 3)]
        try:
            P = hull(pts + [(0,) * dim], dim)  # 0 in P
        except polytopes.DegenerateError:
            continue
        ref = oracle.trop_mutate_polytope(eps, r, P)
        want = all(v[si] >= 0 for part in _pieces(ref) for v in part.vertices)
        assert ref.in_halfspace(si) == want
        rec = tropical._certify_stage(Stage((), r, s), eps, P, None, trop_mutate_polytope, qgf_solve)
        assert rec.cond_image == want
        if eps.entry(r, s) <= 0:
            try:
                supporting_halfspace_lemma(eps, r, s, P)
            except PreconditionError as err:
                assert err.which == ("image_halfspace" if rec.cond_polytope else "halfspace")
                assert not (rec.cond_polytope and want)
            else:
                assert rec.cond_polytope and want
        img = trop_mutate_polytope(eps, r, P)
        crossing_calls.clear()
        assert img.in_halfspace(si) == want
        assert len(crossing_calls) == (0 if img.convex or rec.cond_polytope else 1)
        assert all(v[si] >= 0 for part in _pieces(img) for v in part.vertices) == want
        seen.add((rec.cond_polytope, img.convex, want))
    assert {(convex, w) for _, convex, w in seen} == {(True, True), (True, False), (False, True), (False, False)}
    assert {inside for inside, convex, _ in seen if not convex} == {True, False}


def test_supporting_halfspace_lemma_2d_instance():
    P = hull([(0, 0), (-1, 2), (1, 0), (1, 2)])
    chk = supporting_halfspace_lemma(EPS, 1, 2, P)
    assert chk.holds
    assert chk.witness in P.vertices or chk.witness == (0, 0)


def test_supporting_halfspace_lemma_zero_entry_reduces_to_hypothesis():
    eps = eps_row([0, 0])
    P = hull([(0, 0), (1, 0), (0, 1)])
    chk = supporting_halfspace_lemma(eps, 1, 2, P)
    assert chk.holds


def test_supporting_halfspace_lemma_precondition_failures():
    P_neg = hull([(0, 0), (1, -1), (1, 1), (-1, 0)])
    with pytest.raises(PreconditionError) as err:
        supporting_halfspace_lemma(EPS, 1, 2, P_neg)
    assert err.value.which == "halfspace"
    P = hull([(0, 0), (-1, 2), (1, 0), (1, 2)])
    with pytest.raises(PreconditionError) as err2:
        supporting_halfspace_lemma(eps_row([0, 2]), 1, 2, P)
    assert err2.value.which == "entry_sign"


def family_fixture():
    eps = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -2], [-1, 0, -2]])
    P = hull([(0, 0, 0), (-1, 0, 2), (0, 2, 2), (Q(5, 3), Q(-4, 3), 2)])
    return eps, P


def test_family_spec_validation():
    eps, P = family_fixture()
    with pytest.raises(TropicalError):
        FamilySpec(eps, P, (Stage((1,), 1, 3), Stage((2,), 1, 3)))  # not nested
    with pytest.raises(TropicalError):
        FamilySpec(eps, P, (Stage((), 3, 3),))  # frozen row
    with pytest.raises(TropicalError):
        FamilySpec(eps, P, (Stage((3,), 1, 3),))  # mutating frozen label
    with pytest.raises(TropicalError, match="stage pair row 99 unknown"):
        FamilySpec(eps, P, (Stage((1, 2), 99, 3),))
    with pytest.raises(TropicalError, match="stage sequence mutates unknown label 77"):
        FamilySpec(eps, P, (Stage((1,), 1, 3), Stage((1, 2, 77), 1, 3)))


@pytest.mark.parametrize(
    "stage, message",
    [
        (Stage((), True, 3), "stage r True"),
        (Stage((), 1.0, 3), "stage r 1.0"),
        (Stage((), 1, True), "stage s True"),
        (Stage((), 1, 3.0), "stage s 3.0"),
        (Stage((True,), 1, 3), "stage seq entry True"),
        (Stage((1, 2.0), 1, 3), "stage seq entry 2.0"),
    ],
)
def test_family_spec_refuses_non_integer_stage_labels(stage, message):
    """True == 1 and 1.0 == 1 name columns, but the certificate would write
    them as true and 1.0, which the family reader refuses."""
    eps, P = family_fixture()
    with pytest.raises(TropicalError, match=f"^{re.escape(message)} is not an integer$"):
        FamilySpec(eps, P, (stage,))


def test_distinguish_certificate_two_stages():
    eps, P = family_fixture()
    cert = distinguish_certificate(FamilySpec(eps, P, (Stage((), 1, 3), Stage((1,), 2, 3))))
    assert cert.origin_ok and cert.initial_qgf and cert.center_fixed
    assert cert.center == (0, 0, 1) and cert.size == 1 and cert.q == 1
    entries = [st.entry for st in cert.stages]
    assert entries == [-2, -4]
    assert [st.lower_bound for st in cert.stages] == [3, 5]
    assert [st.segment_count for st in cert.stages] == [3, 5]
    assert all(st.valid for st in cert.stages)
    assert cert.counts_strictly_increasing and cert.pairwise_distinct


def test_distinguish_certificate_marks_invalid_stage():
    eps, P = family_fixture()
    # monitor a mutable column: a_s = 0 there, so the stage must be invalid
    cert = distinguish_certificate(FamilySpec(eps, P, (Stage((), 1, 1),)))
    st = cert.stages[0]
    assert not st.valid
    assert any("a_s" in note for note in st.notes)
    assert not cert.pairwise_distinct


def test_distinguish_certificate_condition_violation_recorded():
    eps, _ = family_fixture()
    # shift the polytope so it leaves the u_3 >= 0 half-space
    P = hull([(0, 0, 0), (-1, 0, 2), (0, 2, 2), (Q(5, 3), Q(-4, 3), 2)]).translate((0, 0, -Q(1, 2)))
    cert = distinguish_certificate(FamilySpec(eps, P, (Stage((), 1, 3),)))
    st = cert.stages[0]
    assert not st.cond_polytope and not st.valid


def test_distinguish_certificate_notes_a_bad_initial_polytope():
    """An initial polytope with no QGF certificate, and one whose center the
    mutations move, are each named in a certificate note."""
    eps = exchange_matrix([1, 2], [2], [1, 1], [[0, -1]])
    stages = (Stage((), 1, 2), Stage((1,), 1, 2))
    # [-1, 1] x [-2, 2]: its two pairs of opposite facets need sizes 1 and 2
    cert = distinguish_certificate(FamilySpec(eps, hull([(1, 2), (1, -2), (-1, 2), (-1, -2)]), stages))
    reason = "no common center: facet offsets are incompatible"
    assert not cert.initial_qgf and cert.notes[0] == f"initial polytope not QGF: {reason}"
    assert not cert.stages[0].qgf_ok and f"stage polytope not QGF: {reason}" in cert.stages[0].notes
    # [-1, 3] x [-2, 2] is QGF of size 2, centred at (1, 0), off the wall u_1 = 0
    cert = distinguish_certificate(FamilySpec(eps, hull([(3, 2), (3, -2), (-1, 2), (-1, -2)]), stages))
    assert cert.initial_qgf and (cert.center, cert.size) == ((1, 0), 2) and not cert.center_fixed
    assert cert.notes[0] == "center not tropical-fixed: violations ((1, Fraction(1, 1)),)"
    assert not cert.pairwise_distinct


def test_certify_stage_names_changed_qgf_data():
    """A stage certified against another polytope's certificate notes the
    changed size and the moved center, and still counts its dual; with no
    initial certificate it stops after its own QGF solve."""
    eps = exchange_matrix([1, 2], [2], [1, 1], [[0, -1]])
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]).translate((0, 1))  # size 1, center (0, 1)
    other, _ = qgf_solve(hull([(0, 0), (4, 0), (0, 4), (4, 4)]))  # size 2, center (2, 2)
    rec = tropical._certify_stage(Stage((), 1, 2), eps, P, other, trop_mutate_polytope, qgf_solve)
    assert rec.qgf_ok and not rec.size_ok and not rec.center_ok and not rec.valid
    assert rec.notes[1:3] == (
        "size changed: 2 -> 1",
        "center moved: (Fraction(2, 1), Fraction(2, 1)) -> (Fraction(0, 1), Fraction(1, 1))",
    )
    assert (rec.a_s, rec.q, rec.dual_count) == (2, 1, 5)
    rec = tropical._certify_stage(Stage((), 1, 2), eps, P, None, trop_mutate_polytope, qgf_solve)
    assert rec.qgf_ok and not rec.size_ok and not rec.center_ok and not rec.valid
    assert (rec.a_s, rec.q, rec.segment_count, rec.dual_count) == (None, None, None, None)
    assert rec.notes == ("mutated polytope leaves the half-space u_2 >= 0",)


def test_enumeration_cap_reports_the_infeasible_stage(monkeypatch):
    """Above ENUMERATION_CAP candidate cells a stage names the cap in a note,
    counts no dual points and is invalid; both stages here have 90 cells."""
    calls = []
    monkeypatch.setattr(tropical, "ENUMERATION_CAP", 89)
    monkeypatch.setattr(tropical, "lattice_points", lambda *args: calls.append(args))
    eps, P = family_fixture()
    cert = distinguish_certificate(FamilySpec(eps, P, (Stage((), 1, 3), Stage((1,), 2, 3))))
    st = cert.stages[0]
    assert st.notes == ("dual enumeration infeasible: 90 candidate cells exceed cap 89",)
    assert st.dual_count is None and not st.valid
    assert not cert.pairwise_distinct and not cert.counts_strictly_increasing
    assert calls == []


def test_segment_count_matches_fraction_points(monkeypatch):
    """The stage's segment count, read off the dual's integer rows, equals the
    count of the segment's Fraction points k/q that `contains` accepts, on
    random QGF polytopes moved off the origin, so a_s and p/q take either sign.
    With the cap at 0 every stage reports its cell count, which, read off the
    dual's integer vertex rows, equals the product of int((hi - lo) * q) + 1
    over the dual's Fraction bounding box, q > 1 among them."""
    monkeypatch.setattr(tropical, "ENUMERATION_CAP", 0)
    rng = random.Random(24)
    partial = negative = scaled = 0
    for _ in range(80):
        dim = rng.randint(2, 3)
        P0, _ = random_qgf_polytope(rng, dim)
        P = P0.translate([Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(dim)])
        n_mut = rng.randint(1, dim)
        eps = random_exchange(rng, n_mut=n_mut, n_frozen=dim - n_mut)
        r, s = rng.choice(eps.mutable), rng.choice(eps.cols)
        cert, _ = qgf_solve(P)
        rec = tropical._certify_stage(Stage((), r, s), eps, P, cert, trop_mutate_polytope, qgf_solve)
        si, ri = eps.col_index(s), eps.col_index(r)
        frac = Q(cert.size) / cert.center[si]
        sign = 1 if frac > 0 else -1
        pts = [
            tuple(frac * (i == si) + Q(sign * j, frac.denominator) * (i == ri) for i in range(dim))
            for j in range(abs(frac.numerator) * max(-eps.entry(r, s), 0) + 1)
        ]
        assert rec.segment_count == sum(map(cert.dual.contains, pts))
        partial += 0 < rec.segment_count < len(pts)
        negative += frac < 0 and len(pts) > 1
        cells = math.prod(int((hi - lo) * rec.q) + 1 for lo, hi in cert.dual.bounding_box())
        assert rec.notes[-1] == f"dual enumeration infeasible: {cells} candidate cells exceed cap 0"
        scaled += rec.q > 1
    assert partial and negative and scaled

