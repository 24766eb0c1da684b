import json
from importlib import resources

import pytest

from clustrop.glsseed import gls_exchange_matrix, gls_quiver
from clustrop.jsonio import matrix_from_obj
from clustrop.mutation import (
    MutationError,
    affine_a_type,
    apq_normalize,
    double_arrows,
    exchange_matrix,
    ft_infinite_witness,
    to_quiver,
)
from clustrop.rootsys import cartan_matrix

A5_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)


def load_fixture(name):
    return json.loads((resources.files("clustrop") / "fixtures" / name).read_text())


def kronecker():
    return exchange_matrix([1, 2], [], [1, 1], [[0, 2], [-2, 0]])


def cycle_matrix(arrows, n, frozen=(), frozen_entries=()):
    """Matrix from a list of single arrows i->j plus raw frozen entries."""
    cols = list(range(1, n + 1))
    muts = [c for c in cols if c not in frozen]
    rows = [[0] * n for _ in muts]
    for (i, j) in arrows:
        rows[muts.index(j)][i - 1] += 1
        if i not in frozen:
            rows[muts.index(i)][j - 1] -= 1
    for (r, s, e) in frozen_entries:
        rows[muts.index(r)][s - 1] = e
    return exchange_matrix(cols, frozen, [1] * n, rows)


A22 = [(1, 2), (3, 2), (3, 4), (1, 4)]      # square, two arrows each way
A21 = [(1, 2), (2, 3), (1, 3)]              # triangle, 2 + 1
A12 = [(2, 1), (3, 2), (3, 1)]              # triangle, 1 + 2


def test_quiver_arrow_convention():
    eps = kronecker()
    q = to_quiver(eps)
    # eps_{1,2} = 2 means two arrows from 2 to 1
    assert q.arrow_dict() == {(2, 1): 2}


def test_quiver_zero_matrix_has_no_arrows():
    eps = exchange_matrix([1, 2], [], [1, 1], [[0, 0], [0, 0]])
    assert to_quiver(eps).arrows == ()


def test_quiver_rejects_non_skew_symmetric():
    eps = exchange_matrix([1, 2], [], [1, 2], [[0, 2], [-1, 0]])
    with pytest.raises(MutationError):
        to_quiver(eps)


def test_quiver_frozen_entries_reported_raw():
    eps = gls_exchange_matrix(cartan_matrix("A", 5), A5_WORD)
    q = to_quiver(eps)
    raw = {(r, s): e for r, s, e in q.frozen_entries}
    assert raw[(10, 15)] == 1
    assert raw[(9, 13)] == -1


def test_double_arrows():
    assert double_arrows(to_quiver(kronecker())) == [(2, 1)]
    assert double_arrows(to_quiver(cycle_matrix(A22, 4))) == []


def test_affine_type_detection():
    assert affine_a_type(to_quiver(cycle_matrix(A22, 4))) == (2, 2)
    assert affine_a_type(to_quiver(cycle_matrix(A21, 3))) == (2, 1)
    assert affine_a_type(to_quiver(cycle_matrix(A12, 3))) == (2, 1)
    assert affine_a_type(to_quiver(kronecker())) == (1, 1)
    # directed triangle is not of this type
    directed = cycle_matrix([(1, 2), (2, 3), (3, 1)], 3)
    assert affine_a_type(to_quiver(directed)) is None


def test_apq_normalize_kronecker():
    # eps_{1,2} = 2 puts the double arrow out of vertex 2 initially
    q = to_quiver(kronecker())
    tr2 = apq_normalize(q, 2)
    assert tr2.seq == ()
    tr1 = apq_normalize(q, 1)
    assert tr1.seq == (2,) and tr1.verify()
    assert any(a == 1 for a, b in double_arrows(to_quiver(tr1.result)))


@pytest.mark.parametrize("arrows,n", [(A12, 3), (A21, 3), (A22, 4)])
def test_apq_normalize_exhaustive_over_choices(arrows, n):
    base = cycle_matrix(arrows, n)
    for a in base.mutable:
        tr = apq_normalize(to_quiver(base), a)
        assert a not in tr.seq
        assert tr.verify()
        out = double_arrows(to_quiver(tr.result))
        assert any(src == a for src, dst in out)


def test_apq_normalize_rejects_wrong_type():
    directed = cycle_matrix([(1, 2), (2, 3), (3, 1)], 3)
    with pytest.raises(MutationError):
        apq_normalize(to_quiver(directed), 1)


def test_ft_witness_on_a22_with_frozen():
    fx = load_fixture("ft_a22.json")
    eps = matrix_from_obj(fx["matrix"])
    wit = ft_infinite_witness(eps)
    assert wit is not None
    assert wit.trace.verify()
    assert wit.condition()
    assert wit.b1 > 0 and wit.b2 == 0
    # the witness matrix really contains the double arrow v1 => v2
    assert wit.trace.result.entry(wit.v2, wit.v1) >= 2


def test_ft_witness_absent_for_balanced_finite_type():
    # A2 mutable part plus one frozen vertex attached evenly to both vertices
    eps = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -1], [-1, 0, -1]])
    assert ft_infinite_witness(eps, budget=512) is None


def test_ft_witness_requires_single_frozen_column():
    eps = exchange_matrix([1, 2, 3, 4], [3, 4], [1, 1, 1, 1], [[0, 1, -1, 0], [-1, 0, 0, -1]])
    with pytest.raises(MutationError):
        ft_infinite_witness(eps)


def test_ft_witness_on_a5_subquiver():
    eps = gls_exchange_matrix(cartan_matrix("A", 5), A5_WORD)
    sub = eps.restrict({14, 9, 8, 4, 2, 3, 6})
    assert affine_a_type(to_quiver(sub)) == (3, 3)
    wit = ft_infinite_witness(sub, budget=8192)
    assert wit is not None and wit.condition()


def test_ft_witness_implies_bfs_never_finite():
    from clustrop.mutation import mutation_class_bfs

    fx = load_fixture("ft_a22.json")
    eps = matrix_from_obj(fx["matrix"])
    assert ft_infinite_witness(eps) is not None
    for node_cap, entry_cap in [(200, 8), (2000, 16), (20000, 64)]:
        res = mutation_class_bfs(eps, node_cap=node_cap, entry_cap=entry_cap)
        assert res.status != "finite"
