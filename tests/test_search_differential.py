"""Differential tests of the mutation-class searches against `search_oracle`.

The searches never mutate a node back along the label it was reached by, and
the BFS searches rebuild sequences from parent pointers.  Both must leave
every result unchanged: status, class size, matrix list, trace sequences and
witnesses.  They must also call the mutation kernel `_mutated_rows` (once per
`mutate`, and directly from the beam) strictly less often once the oracle has
expanded a node other than the start, since that expansion includes the move
back to its parent.  The BFS also skips commuting squares, and the beam
takes a re-entering matrix's children from a memo; both are checked below,
as are the class BFS's per-parent entry-cap bound and the beam's order on
ties at the cut.
"""

import random
import sys
from collections import Counter, deque
from itertools import islice, permutations

import pytest

import search_oracle as oracle
from clustrop import mutation
from clustrop.glsseed import gls_exchange_matrix
from clustrop.jsonio import matrix_from_obj
from clustrop.mutation import ExtendedExchangeMatrix, FrozenIndexError, MutationError, exchange_matrix, to_quiver
from clustrop.rootsys import cartan_matrix
from test_quivers import A12, A21, A22, cycle_matrix, load_fixture

NINE = (3, 2, 3, 2, 1, 2, 3, 2, 1)
GLS_SEEDS = {
    "B3": (("B", 3), NINE),
    "C3": (("C", 3), NINE),
    "G2": (("G", 2), (1, 2, 1, 2, 1, 2)),
    "D4": (("D", 4), (2, 4, 1, 2, 4, 3, 2, 4, 1, 2, 3, 4)),
    "A5": (("A", 5), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)),
}


@pytest.fixture
def calls(monkeypatch):
    """Logs each call of the mutation kernel `_mutated_rows` as (rows, label);
    `mutate` calls it once, and within one search the rows name the matrix.
    Read and reset it between the two sides."""
    log = []
    kernel = mutation._mutated_rows

    def logged(lab, frozen, rows, k):
        log.append((rows, k))
        return kernel(lab, frozen, rows, k)

    monkeypatch.setattr(mutation, "_mutated_rows", logged)
    return log


def counted(log, fn, *args, **kwargs):
    """(outcome, mutate calls) of one search; a MutationError is an outcome."""
    del log[:]
    try:
        out = fn(*args, **kwargs)
    except MutationError as exc:
        out = ("MutationError", str(exc))
    return out, len(log)


def check_fewer_calls(new, old, n_labels):
    """Never more calls; strictly fewer once the oracle went past the start
    node and its first child (more than 2 * n_labels calls), which it expands
    in full, its involution move included.  Returns whether that applied."""
    assert new <= old
    if n_labels >= 2 and old > 2 * n_labels:
        assert new < old
        return True
    return False


def restrictions(rng, name, count, n_mut_range=(2, 4)):
    """Seeded restrictions of a GLS seed: a connected piece of the mutable
    diagram plus one or two frozen labels."""
    eps = gls_exchange_matrix(cartan_matrix(*GLS_SEEDS[name][0]), GLS_SEEDS[name][1])
    mut = list(eps.mutable)
    out = []
    for _ in range(count):
        keep = [rng.choice(mut)]
        while len(keep) < min(rng.randint(*n_mut_range), len(mut)):
            nbrs = sorted({s for r in keep for s in mut if s not in keep and eps.entry(r, s) != 0})
            keep.append(rng.choice(nbrs or [s for s in mut if s not in keep]))
        frozen = rng.sample(sorted(eps.frozen), rng.randint(1, min(2, len(eps.frozen))))
        out.append(eps.restrict(keep + frozen))
    return out


def bfs_view(res):
    trace = res.trace and (res.trace.seq, res.trace.result)
    return res.status, res.class_size, res.matrices, trace


def test_class_bfs_matches_oracle(calls):
    rng = random.Random(20261)
    statuses = set()
    strict = 0
    for eps in (eps for name in GLS_SEEDS for eps in restrictions(rng, name, 10)):
        for part in (eps, eps.mutable_part()):
            for node_cap, entry_cap in [(2000, 4), (2000, 12), (40, 12), (3, 12), (500, 1)]:
                new, n_new = counted(calls, mutation.mutation_class_bfs, part, node_cap, entry_cap)
                old, n_old = counted(calls, oracle.mutation_class_bfs, part, node_cap, entry_cap)
                assert bfs_view(new) == bfs_view(old)
                assert new.trace is None or new.trace.verify()
                statuses.add(new.status)
                strict += check_fewer_calls(n_new, n_old, len(part.mutable))
    assert statuses == {"finite", "entry_exceeded", "cap_exhausted"}
    assert strict >= 200


def bfs_full_max(eps, node_cap, entry_cap):
    """`mutation_class_bfs` with the entry cap read off `max_abs_entry()` of every child."""
    if eps.max_abs_entry() > entry_cap:
        return "entry_exceeded", 1, (), ((), eps)
    parents = {eps: (None, None)}
    for child in mutation._bfs(eps, parents, eps.mutable):
        if child.max_abs_entry() > entry_cap:
            return "entry_exceeded", len(parents) - 1, (), (mutation._path(parents, child), child)
        if len(parents) > node_cap:
            return "cap_exhausted", len(parents), (), None
    return "finite", len(parents), tuple(sorted(parents, key=lambda m: m.rows)), None


def test_class_bfs_entry_cap_matches_max_abs_entry(monkeypatch):
    """The class BFS gives what a read of every child's entries gives, though a
    parent with M + M^2 <= entry_cap (M its largest |entry|) has no child past
    the cap, so none of its children is read; a parent past that bound has each
    child's M read in full and kept for the child's own expansion, so no matrix
    has its M read twice (logged from `max_abs_entry` with the BFS's `parent`
    at each call).  Caps run near the root's M, just under, at and over its
    M + M^2, and at 10^6, and both branches run many times.  The bound is
    tight: on the acyclic triangle r -> s, r -> k, k -> s with every
    |entry| = M, mu_k takes eps_rs to M + M^2."""
    top = ExtendedExchangeMatrix.max_abs_entry
    code = mutation.mutation_class_bfs.__code__
    log = []

    def logged(self):
        caller = sys._getframe(1)
        if caller.f_code is code:
            log.append((self, caller.f_locals.get("parent")))
        return top(self)

    monkeypatch.setattr(ExtendedExchangeMatrix, "max_abs_entry", logged)
    rng = random.Random(20265)
    held = failed = 0
    statuses = Counter()
    tight = [exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, m, m], [-m, 0, m]]) for m in (1, 2, 3)]
    for eps in tight + [eps for name in GLS_SEEDS for eps in restrictions(rng, name, 8, (2, 5))]:
        m = top(eps)
        caps = [(2000, m), (2000, m + 1), (2000, m + 3), (30, m + 3), (500, max(1, m - 1))]
        caps += [(300, cap) for cap in (m + m * m - 1, m + m * m, m + m * m + 1, 10**6)]
        for node_cap, entry_cap in caps:
            del log[:]
            got = mutation.mutation_class_bfs(eps, node_cap, entry_cap)
            assert bfs_view(got) == bfs_full_max(eps, node_cap, entry_cap)
            statuses[got.status] += 1
            assert set(Counter(x for x, _ in log).values()) == {1}, log
            # log[0] is the root's own cap test; a child is read only when its parent failed the bound
            read_parents = {parent for x, parent in log[1:] if x is not parent}
            assert all(top(p) + top(p) ** 2 > entry_cap for p in read_parents)
            held += sum(top(x) + top(x) ** 2 <= entry_cap for x, parent in log[1:] if x is parent)
            failed += len(read_parents)
    assert held >= 5000 and failed >= 5000, (held, failed)
    assert set(statuses) == {"finite", "entry_exceeded", "cap_exhausted"} and min(statuses.values()) >= 5, statuses


def witness_view(wit):
    if wit is None or isinstance(wit, tuple):
        return wit
    fields = {k: v for k, v in vars(wit).items() if k != "trace"}
    return wit.trace.seq, wit.trace.result, fields


def test_large_entry_search_matches_oracle(calls):
    rng = random.Random(20262)
    found = missed = strict = 0
    for eps in (eps for name in GLS_SEEDS for eps in restrictions(rng, name, 6, (2, 5))):
        for target, budget, width in [(2, 300, 8), (4, 600, 16), (8, 1500, 64), (30, 400, 4)]:
            new, n_new = counted(calls, mutation.large_entry_search, eps, target, budget, width)
            old, n_old = counted(calls, oracle.large_entry_search, eps, target, budget, width)
            assert witness_view(new) == witness_view(old)
            found += new is not None
            missed += new is None
            strict += check_fewer_calls(n_new, n_old, len(eps.mutable))
    assert found >= 10 and missed >= 10 and strict >= 40


def test_large_entry_search_ties_at_the_cut_match_oracle(calls):
    """At beam widths 1 to 3 children often tie on score at the cut; the beam,
    which sorts plain tuples (-max(0, score), seq, rows, best) with no key,
    expands the oracle's states, so witnesses and expanded states agree.  Ties are
    read off the sorted children at each `sort` return (`sys.setprofile`)."""
    code = mutation.large_entry_search.__code__
    ties = cuts = 0

    def hook(frame, event, arg):
        nonlocal ties, cuts
        if event == "c_return" and frame.f_code is code and getattr(arg, "__name__", "") == "sort":
            children, width = frame.f_locals["children"], frame.f_locals["beam_width"]
            if len(children) > width:
                cuts += 1
                ties += children[width - 1][0] == children[width][0]

    rng = random.Random(20267)
    for eps in (eps for name in GLS_SEEDS for eps in restrictions(rng, name, 4, (2, 5))):
        for target, budget in [(4, 200), (8, 600), (30, 300)]:
            for width in (1, 2, 3):
                previous = sys.getprofile()
                sys.setprofile(hook)
                try:
                    new, n_new = counted(calls, mutation.large_entry_search, eps, target, budget, width)
                finally:
                    sys.setprofile(previous)
                expanded = {rows for rows, _ in calls}
                old, n_old = counted(calls, oracle.large_entry_search, eps, target, budget, width)
                assert witness_view(new) == witness_view(old)
                assert n_new <= n_old and expanded == {rows for rows, _ in calls}
    assert ties >= 200 and cuts > ties, (ties, cuts)


def test_large_entry_search_mutates_each_matrix_label_pair_once(calls):
    """A matrix that re-enters the beam takes its children from the memo:
    no search mutates one (matrix, label) pair twice."""
    rng = random.Random(20262)
    cases = [eps for name in GLS_SEEDS for eps in restrictions(rng, name, 6, (2, 5))]
    cases += [eps for name in ("A5", "D4") for eps in restrictions(rng, name, 4, (5, 5))]
    total = 0
    for eps in cases:
        for target, budget, width in [(2, 300, 8), (4, 600, 16), (8, 1500, 64), (30, 400, 4)]:
            del calls[:]
            mutation.large_entry_search(eps, target, budget, width)
            repeated = [pair for pair, n in Counter(calls).items() if n > 1]
            assert not repeated, (eps, target, repeated[:3])
            total += len(calls)
    assert total > 10000


def involution_only_bfs(root, parents, labels):
    """`_bfs` without the commuting-square skip: only the move back to the
    parent is left out."""
    queue = deque([(root, None)])
    while queue:
        cur, last = queue.popleft()
        for k in labels:
            if k != last:
                child = cur.mutate(k)
                if child not in parents:
                    parents[child] = (cur, k)
                    yield child
                    queue.append((child, k))


def test_bfs_commuting_skip_is_exact_and_prunes(calls):
    """The commuting-square skip yields what the involution-only walk yields,
    in the same order with the same parents, whether the walk finishes or is
    cut by a node cap, and for three label orders; it saves at least a fifth of
    the `mutate` calls."""
    rng = random.Random(20263)
    cases = [eps for name in ("A5", "D4") for eps in restrictions(rng, name, 3, (5, 5))]
    finished = cut = n_new = n_ref = 0
    for eps in cases:
        for labels in (eps.mutable, eps.mutable[::-1], eps.mutable[1:]):
            for cap in (60, 3000):
                walks = []
                for walk in (mutation._bfs, involution_only_bfs):
                    del calls[:]
                    parents = {eps: (None, None)}
                    walks.append((list(islice(walk(eps, parents, labels), cap)), parents, len(calls)))
                (new, new_parents, new_calls), (ref, ref_parents, ref_calls) = walks
                assert new == ref and new_parents == ref_parents
                assert new_calls <= ref_calls
                n_new += new_calls
                n_ref += ref_calls
                finished += len(new) < cap
                cut += len(new) == cap
    assert finished >= 3 and cut >= 3
    assert n_new <= 0.8 * n_ref


def test_large_entry_search_beam_empties_like_oracle(calls):
    eps = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -1], [-1, 0, 1]])
    new, n_new = counted(calls, mutation.large_entry_search, eps, 100)
    old, n_old = counted(calls, oracle.large_entry_search, eps, 100)
    assert new is old is None
    assert (n_new, n_old) == (15, 28)


def test_kernel_matches_mutate():
    """`mutate(k).rows` is `_mutated_rows` of the parent's rows along seeded
    walks from restrictions of every GLS seed (G2 has non-unit d); a frozen or
    an unknown label raises the same exception type and message from both."""
    rng = random.Random(20264)
    steps = 0
    raised = set()
    for name in GLS_SEEDS:
        for eps in restrictions(rng, name, 4, (2, 5)):
            for _ in range(6):
                for k in eps.mutable:
                    assert eps.mutate(k).rows == mutation._mutated_rows(eps._lab, eps.frozen, eps.rows, k)
                    steps += 1
                for k in (min(eps.frozen), 99):
                    outcomes = []
                    for call in (eps.mutate, lambda k: mutation._mutated_rows(eps._lab, eps.frozen, eps.rows, k)):
                        with pytest.raises(MutationError) as exc:
                            call(k)
                        outcomes.append((type(exc.value), str(exc.value)))
                    assert outcomes[0] == outcomes[1]
                    raised.add(outcomes[0][0])
                eps = eps.mutate(rng.choice(eps.mutable))
            assert name != "G2" or set(eps.d) != {1}
    assert raised == {FrozenIndexError, MutationError}
    assert steps >= 300


def test_frozen_drop_scorer_matches_oracle():
    """The beam's row scorer gives the oracle's (value, r, s) along seeded
    walks, ties included: the first pair in row order, then frozen label order."""
    tie = exchange_matrix([1, 2, 3, 4], [3, 4], [1, 1, 1, 1], [[0, 1, -2, -2], [-1, 0, -2, -2]])
    assert mutation._best_frozen_drop(tie._lab, tie.rows) == oracle._best_frozen_drop(tie) == (2, 1, 3)
    rng = random.Random(20265)
    ties = 0
    for eps in (eps for name in GLS_SEEDS for eps in restrictions(rng, name, 4, (2, 5))):
        for _ in range(8):
            best = mutation._best_frozen_drop(eps._lab, eps.rows)
            assert best == oracle._best_frozen_drop(eps)
            ties += sum(-eps.entry(r, s) == best[0] for r in eps.mutable for s in eps.frozen) > 1
            eps = eps.mutate(rng.choice(eps.mutable))
    assert ties >= 20


def test_every_beam_state_is_a_valid_matrix(monkeypatch):
    """Every row tuple the beam makes builds through the validating constructor
    with the root's cols, frozen and d, over the oracle-differential cases."""
    kernel = mutation._mutated_rows
    built = []

    def checked(lab, frozen, rows, k):
        out = kernel(lab, frozen, rows, k)
        built.append(ExtendedExchangeMatrix(root.cols, frozen, root.d, out))
        return out

    monkeypatch.setattr(mutation, "_mutated_rows", checked)
    rng = random.Random(20262)
    for root in (eps for name in GLS_SEEDS for eps in restrictions(rng, name, 6, (2, 5))):
        for target, budget, width in [(2, 300, 8), (4, 600, 16), (8, 1500, 64), (30, 400, 4)]:
            wit = mutation.large_entry_search(root, target, budget, width)
            assert wit is None or wit.trace.verify()
    assert len(built) > 10000


def test_beam_builds_a_matrix_only_for_its_witness(monkeypatch):
    """The constructor runs once for a witness past the root, and never for
    None or for a root that is its own witness."""
    init = ExtendedExchangeMatrix.__init__
    built = []
    monkeypatch.setattr(ExtendedExchangeMatrix, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    empties = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -1], [-1, 0, 1]])
    c3 = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict({1, 2, 3, 6, 8})
    for eps, target, want in [(empties, 100, 0), (c3, 8, 1), (c3, 1, 1), (c3.mutate(6), 1, 0)]:
        del built[:]
        wit = mutation.large_entry_search(eps, target)
        assert len(built) == want
        assert (wit is None) == (eps is empties)
        assert wit is None or (wit.trace.seq != ()) == (want == 1)


def one_frozen_cycles():
    """Affine-A cycles and finite-type pieces with one frozen column whose raw
    entries are seeded, so the FT search meets clean witnesses, fallback
    witnesses and none at all."""
    rng = random.Random("ft-cycles")
    shapes = [(A12, 3), (A21, 3), (A22, 4), ([(1, 2), (2, 3), (3, 4), (1, 4)], 4), ([(1, 2), (2, 3)], 3)]
    out = []
    for arrows, n in shapes:
        for _ in range(6):
            entries = [(r, n + 1, rng.randint(-2, 2)) for r in range(1, n + 1)]
            out.append(cycle_matrix(arrows, n + 1, frozen=(n + 1,), frozen_entries=entries))
    return out


def test_ft_infinite_witness_matches_oracle(calls):
    cases = [matrix_from_obj(load_fixture("ft_a22.json")["matrix"])]
    cases += one_frozen_cycles()
    cases.append(exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, -1], [-1, 0, -1]]))
    rng = random.Random("ft-gls")
    for name in ("B3", "C3", "D4", "A5"):
        cases += [eps.restrict({*eps.mutable, min(eps.frozen)}) for eps in restrictions(rng, name, 3)]
    kinds = set()
    strict = 0
    for eps in cases:
        for budget in (512, 40):
            new, n_new = counted(calls, mutation.ft_infinite_witness, eps, budget)
            old, n_old = counted(calls, oracle.ft_infinite_witness, eps, budget)
            assert witness_view(new) == witness_view(old)
            if new is None or isinstance(new, tuple):
                kinds.add("none" if new is None else "error")
            else:
                assert new.trace.verify()
                kinds.add("clean" if new.b2 == 0 and new.b1 > 0 else "fallback")
            strict += check_fewer_calls(n_new, n_old, len(eps.mutable))
    assert kinds == {"clean", "fallback", "none", "error"}
    assert strict >= 40


@pytest.mark.parametrize(
    "arrows, n",
    [(A12, 3), (A21, 3), (A22, 4), ([(1, 2), (2, 3), (3, 4), (1, 4)], 4), ([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 5)],
)
def test_apq_normalize_matches_oracle(arrows, n, calls):
    runs = strict = 0
    for perm in list(permutations(range(1, n + 1)))[:6]:
        relabeled = [(perm[i - 1], perm[j - 1]) for i, j in arrows]
        q = to_quiver(cycle_matrix(relabeled, n))
        for a in q.matrix.mutable:
            new, n_new = counted(calls, mutation.apq_normalize, q, a)
            old, n_old = counted(calls, oracle.apq_normalize, q, a)
            assert (new.seq, new.result) == (old.seq, old.result)
            runs += 1
            strict += check_fewer_calls(n_new, n_old, n - 1)
    assert 2 * strict >= runs
