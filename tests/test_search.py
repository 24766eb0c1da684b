import pytest

from clustrop.glsseed import gls_exchange_matrix
from clustrop.mutation import (
    MutationError,
    exchange_matrix,
    ft_infinite_witness,
    large_entry_search,
    mutable_finiteness,
    mutation_class_bfs,
)
from clustrop.rootsys import cartan_matrix

NINE = (3, 2, 3, 2, 1, 2, 3, 2, 1)


def c3_restricted():
    return gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict({1, 2, 3, 6, 8})


def test_bfs_a2_class_is_finite_and_tiny():
    eps = exchange_matrix([1, 2], [], [1, 1], [[0, 1], [-1, 0]])
    res = mutation_class_bfs(eps, node_cap=100, entry_cap=10)
    assert res.status == "finite"
    # hand enumeration: only the matrix and its sign flip
    assert res.class_size == 2
    assert set(res.matrices) == {eps, eps.mutate(1)}


def test_bfs_one_by_one_zero_matrix():
    eps = exchange_matrix([1], [], [1], [[0]])
    res = mutation_class_bfs(eps, node_cap=10, entry_cap=10)
    assert res.status == "finite" and res.class_size == 1


def test_bfs_c3_restriction_exceeds_entry_cap():
    res = mutation_class_bfs(c3_restricted(), node_cap=100000, entry_cap=4)
    assert res.status == "entry_exceeded"
    assert res.trace is not None and res.trace.verify()
    assert res.trace.result.max_abs_entry() > 4


def test_bfs_cap_exhausted_is_distinct():
    res = mutation_class_bfs(c3_restricted(), node_cap=5, entry_cap=10**6)
    assert res.status == "cap_exhausted"


def test_bfs_rejects_nonpositive_caps():
    with pytest.raises(MutationError):
        mutation_class_bfs(c3_restricted(), node_cap=0, entry_cap=4)


def test_bfs_caps_must_be_positive_ints():
    """True is an int to Python but not a cap; it used to run as 1."""
    for caps in ({"node_cap": True, "entry_cap": 4}, {"node_cap": 100, "entry_cap": True},
                 {"node_cap": 1.5, "entry_cap": 4}):
        with pytest.raises(MutationError, match="^caps must be positive integers$"):
            mutation_class_bfs(c3_restricted(), **caps)


def test_mutable_finiteness_three_values():
    assert mutable_finiteness(c3_restricted()) == "finite"  # affine-C mutable part
    # the once-punctured-torus quiver is famously mutation finite despite the 2s
    markov = exchange_matrix([1, 2, 3], [], [1, 1, 1], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert mutable_finiteness(markov) == "finite"
    wild = exchange_matrix([1, 2, 3], [], [1, 1, 1], [[0, 3, -1], [-3, 0, 1], [1, -1, 0]])
    assert mutable_finiteness(wild) == "infinite"


def test_mutable_finiteness_needs_a_component_of_three():
    """A 3-arrow pair that is a component of its own only changes sign under
    mutation, so its class closes; joined to a third vertex it is wild."""
    split = exchange_matrix([1, 2, 3], [], [1, 1, 1], [[0, 3, 0], [-3, 0, 0], [0, 0, 0]])
    res = mutation_class_bfs(split, node_cap=100, entry_cap=3)
    assert (res.status, res.class_size) == ("finite", 2)
    assert mutable_finiteness(split) == "finite"
    framed = exchange_matrix([1, 2, 3, 4], [4], [1, 1, 1, 1], [[0, 3, 0, 1], [-3, 0, 0, 0], [0, 0, 0, 1]])
    wit = ft_infinite_witness(framed)
    assert wit is not None and wit.trace.verify()
    joined = exchange_matrix([1, 2, 3], [], [1, 1, 1], [[0, 3, 0], [-3, 0, 1], [0, -1, 0]])
    assert mutable_finiteness(joined) == "infinite"


def test_mutable_finiteness_finds_infinite_through_the_bfs():
    """A path 1 - 2 - 3 of double arrows has no entry of 3 to certify it at
    once; mutating at 2 makes an entry 4, so the class BFS stops past the
    entry cap and certifies "infinite", and the frozen-arrow search refuses
    it."""
    eps = exchange_matrix([1, 2, 3, 4], [4], [1, 1, 1, 1], [[0, -2, 0, 1], [2, 0, -2, 0], [0, 2, 0, -1]])
    part = eps.mutable_part()
    assert part.max_abs_entry() == 2
    res = mutation_class_bfs(part, node_cap=4096, entry_cap=3)
    assert (res.status, res.trace.seq, res.trace.result.max_abs_entry()) == ("entry_exceeded", (2,), 4)
    assert mutable_finiteness(eps) == "infinite"
    with pytest.raises(MutationError, match="^mutable part is already mutation infinite$"):
        ft_infinite_witness(eps)


def test_large_entry_immediate_hit_gives_empty_trace():
    eps = exchange_matrix([1, 2], [2], [1, 1], [[0, -3]])
    wit = large_entry_search(eps, 1)
    assert wit is not None
    assert wit.trace.seq == ()
    assert wit.value == 3 and wit.s == 2


def test_large_entry_search_requires_frozen_column():
    eps = exchange_matrix([1, 2], [], [1, 1], [[0, 1], [-1, 0]])
    with pytest.raises(MutationError):
        large_entry_search(eps, 2)


def test_large_entry_growth_on_c3_restriction():
    eps = c3_restricted()
    values = []
    for ell in range(2, 9):
        wit = large_entry_search(eps, ell, budget=200000, beam_width=64)
        assert wit is not None, f"target {ell} not found"
        assert wit.trace.verify()
        assert wit.s in eps.frozen and wit.r not in eps.frozen
        assert wit.trace.result.entry(wit.r, wit.s) == -wit.value
        assert wit.value >= ell
        values.append(wit.value)
    assert values == sorted(values)


def test_large_entry_search_is_deterministic():
    eps = c3_restricted()
    a = large_entry_search(eps, 5, budget=50000, beam_width=32)
    b = large_entry_search(eps, 5, budget=50000, beam_width=32)
    assert a.trace.seq == b.trace.seq and a.value == b.value


def test_large_entry_budget_exhaustion_returns_none():
    eps = c3_restricted()
    assert large_entry_search(eps, 10**6, budget=50, beam_width=4) is None


@pytest.mark.parametrize("target", [True, 2.5, 0, -1, "3"])
def test_large_entry_search_target_must_be_a_positive_int(target):
    """target=True ran as 1 and target=2.5 returned a value-3 witness; "3"
    raised a bare TypeError."""
    with pytest.raises(MutationError, match="^target must be a positive integer$"):
        large_entry_search(c3_restricted(), target)


@pytest.mark.parametrize("bad", [{"beam_width": -1}, {"beam_width": 0}, {"budget": 0}, {"budget": -5},
                                 {"beam_width": True}, {"budget": True}, {"budget": 100.0}, {"beam_width": "64"}])
def test_large_entry_search_budget_and_beam_must_be_positive_ints(bad):
    """beam_width=-1 sliced children[:-1] and returned a 9-step witness for
    target 8; beam_width=0 returned None as if the budget were spent."""
    with pytest.raises(MutationError, match="^budget and beam_width must be positive integers$"):
        large_entry_search(c3_restricted(), 8, **bad)
