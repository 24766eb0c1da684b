"""The walk order of `lattice_points` at the paper's scale: the G2 family's
certificate on the real Delta_212121(2 rho), type-A string polytopes, the
order rule itself, and reordered walks against the Fraction oracle.  Walk
nodes are counted exactly (`genutil.walk_log`); no test reads a clock."""

import functools
import itertools
import json
from importlib import resources

import fraction_oracle as oracle
import pytest
from genutil import g2_delta, string_polytope_A, walk_log

from clustrop import jsonio
from clustrop.glsseed import gls_exchange_matrix
from clustrop.polytopes import hull, lattice_points, qgf_solve
from clustrop.rootsys import cartan_matrix
from clustrop.tropical import FamilySpec, Stage, distinguish_certificate, trop_mutate_polytope

G2_STAGES = tuple(Stage((2,) + (1, 3) * n, 3, 5) for n in range(11))  # (2) + (1, 3)^n, pair (3, 5)


def _g2_matrix():
    return gls_exchange_matrix(cartan_matrix("G", 2), (2, 1, 2, 1, 2, 1))


@functools.cache
def _g2_stage_duals():
    """The QGF duals of the G2 family's stages n = 0..10, replayed by tropical mutation."""
    eps, P, done, duals = _g2_matrix(), g2_delta(), (), []
    for st in G2_STAGES:
        for k in st.seq[len(done):]:
            img = trop_mutate_polytope(eps, k, P)
            assert img.convex
            eps, P = eps.mutate(k), img.polytope
        done = st.seq
        duals.append(qgf_solve(P)[0].dual)
    return duals


def test_g2_family_certificate_at_paper_scale():
    """On Delta_212121(2 rho) with stages (2) + (1, 3)^n for n = 0..10 and pair
    (3, 5) the dual counts are 12n^2 + 3n + 14 and the entries 1 - 2n; n = 0 is
    invalid, its entry positive, and every other stage is valid.  The eleven
    dual counts take 1,644 walk nodes; in the given coordinate order they took
    55,743."""
    with walk_log() as log:
        cert = distinguish_certificate(FamilySpec(_g2_matrix(), g2_delta(), G2_STAGES))
    assert (cert.center, cert.size, cert.q) == ((0, 0, 0, 0, 1, 1), 1, 1)
    assert [st.dual_count for st in cert.stages] == [12 * n * n + 3 * n + 14 for n in range(11)]
    assert [st.entry for st in cert.stages] == [1 - 2 * n for n in range(11)]
    assert cert.stages[0].notes == ("entry 1 is positive; lower bound not applicable",)
    assert not cert.stages[0].valid and all(st.valid for st in cert.stages[1:])
    assert len(log) == 11 and sum(nodes for _, nodes in log) <= 2000


def test_family_2stage_duals_walk_13_nodes_each():
    """The two duals that `certify-distinct` counts on the packaged family
    took 22 and 31 walk nodes in the given order; no order takes fewer than 13."""
    fam = json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]
    with walk_log() as log:
        distinguish_certificate(jsonio.family_from_obj(fam))
    assert [nodes for _, nodes in log] == [13, 13]


@pytest.mark.parametrize("n, q", [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2)])
def test_g2_stage_duals_match_the_fraction_oracle(n, q):
    D = _g2_stage_duals()[n]
    with walk_log() as log:
        got = lattice_points(D, q)
    assert [order != sorted(order) for order, _ in log] == [True]
    assert got == oracle.lattice_points(D, q)


@pytest.mark.slow
@pytest.mark.parametrize("n, q", [(n, 1) for n in range(3, 11)] + [(2, 2), (3, 2)])
def test_g2_stage_duals_match_the_fraction_oracle_at_scale(n, q):
    assert lattice_points(_g2_stage_duals()[n], q) == oracle.lattice_points(_g2_stage_duals()[n], q)


@pytest.mark.parametrize("n, lam, count", [(2, (1, 1), 8), (2, (2, 2), 27), (3, (1, 1, 1), 64), (3, (2, 2, 2), 729)])
def test_string_polytopes_count_the_weyl_dimension(n, lam, count):
    """|String polytope cap Z^N| = dim V(lam): 2^N at rho and 3^N at 2 rho."""
    P = string_polytope_A(n, lam)
    with walk_log() as log:
        assert len(lattice_points(P)) == count
    assert log[0][0] != sorted(log[0][0])


@pytest.mark.slow
def test_a4_string_polytope_at_2rho_counts_59049_points():
    """A4 at 2 rho: 59,049 points in 40,985 walk nodes (991,484 in the given order)."""
    P = string_polytope_A(4, (2, 2, 2, 2))
    with walk_log() as log:
        assert len(lattice_points(P)) == 59049
    assert log[0][1] <= 50_000


def test_walk_order_rule():
    """Narrowest integer box of q P first, then the coordinate more facet
    rows read, then the lower index; every walk returns the oracle's list."""
    cases = [
        (hull(itertools.product((0, 2), repeat=3)), 1, [0, 1, 2]),  # equal widths and reads: index order
        (hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1, [0, 1, 2]),
        (hull([(0, 0), (0, 2), (2, 0), (1, 2)]), 1, [1, 0]),  # equal widths: u_2 is read by 3 rows, u_1 by 2
        (hull(itertools.product((0, 3), (0, 1), (0, 2))), 1, [1, 2, 0]),  # widths 3, 1, 2
        (hull(itertools.product((0, 3), (0, 1), (0, 2))), 2, [1, 2, 0]),
        (hull([(0, 0), (2, 0), (0, 1)]).scale(2), 1, [1, 0]),
    ]
    for P, q, order in cases:
        with walk_log() as log:
            got = lattice_points(P, q)
        assert [o for o, _ in log] == [order]
        assert got == oracle.lattice_points(P, q)
