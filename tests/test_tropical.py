import random
import re
from fractions import Fraction as Q

import fraction_oracle as oracle
import pytest
from genutil import random_exchange, random_polytope_with_interior_origin, random_qgf_polytope

from clustrop import polytopes, tropical
from clustrop.mutation import FrozenIndexError, exchange_matrix
from clustrop.polytopes import halfspace, hull, hull_any, qgf_certificate, qgf_solve, slice_polytope
from clustrop.tropical import (
    FamilySpec,
    GradedPointSet,
    PreconditionError,
    Stage,
    TropicalError,
    TropImage,
    center_fixedness,
    distinguish_certificate,
    qgf_preservation_check,
    saturation_probe,
    supporting_halfspace_lemma,
    trop_mutate_graded,
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


def test_graded_set_levels_and_cardinality():
    S = GradedPointSet.of([(1, (2, -1)), (2, (0, 3)), (1, (2, -1))])
    assert len(S) == 2
    with pytest.raises(TropicalError):
        GradedPointSet.of([(0, (1, 1))])


def test_graded_set_refuses_non_integers():
    """A level or coordinate is taken only if it equals an integer: 3/2, 2.7
    and True raise, where int() would read 1, 2 and 1."""
    for pairs, msg in (
        ([(Q(3, 2), (1, 1))], "level 3/2 is not an integer"),
        ([(True, (1, 1))], "level True is not an integer"),
        ([(1, (2.7, 1))], "coordinate 2.7 is not an integer"),
        ([(1, (1, False))], "coordinate False is not an integer"),
    ):
        with pytest.raises(TropicalError, match=f"^{msg}$"):
            GradedPointSet.of(pairs)
    S = GradedPointSet.of([(Q(2), (2.0, Q(-3)))])
    assert S.sorted() == [(2, (2, -3))] and all(type(x) is int for x in S.sorted()[0][1])


def test_graded_mutation_round_trip():
    rng = random.Random(33)
    pts = [(rng.randint(1, 4), (rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(30)]
    S = GradedPointSet.of(pts)
    T = trop_mutate_graded(S, EPS, 1)
    assert len(T) == len(S)
    assert {lvl for lvl, _ in T.elements} <= {lvl for lvl, _ in S.elements}
    back = trop_mutate_graded(T, EPS.mutate(1), 1)
    assert back == S


def test_saturation_probe_detects_missing_half():
    S = GradedPointSet.of([(2, (2,))])
    assert saturation_probe(S, window=2) == [(2, (1, (1,)))]
    closed = GradedPointSet.of([(1, (1,)), (2, (2,))])
    assert saturation_probe(closed, window=4) == []


@pytest.mark.parametrize("window", [True, False, 2.5, 2.0, "3", None, 0, -1])
def test_saturation_probe_needs_a_positive_int_window(window):
    """A bool would pass as 1 and return the empty list that reads as evidence."""
    with pytest.raises(TropicalError, match="^window must be a positive integer$"):
        saturation_probe(GradedPointSet.of([(2, (2,))]), window=window)


def test_saturation_violation_count_preserved_by_mutation():
    rng = random.Random(34)
    for _ in range(100):
        pts = [(rng.choice([1, 2, 4]), (rng.randint(-4, 4) * 2, rng.randint(-4, 4))) for _ in range(12)]
        S = GradedPointSet.of(pts)
        before = len(saturation_probe(S, window=4))
        T = trop_mutate_graded(S, EPS, 1)
        assert len(saturation_probe(T, window=4)) == before


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
