import copy
import dataclasses
import json
import pickle
import random
from collections import Counter
from fractions import Fraction as Q
from importlib import resources

import pytest

from clustrop.glsseed import gls_exchange_matrix
from clustrop.jsonio import matrix_from_obj, matrix_to_obj
from clustrop.mutation import (
    ExtendedExchangeMatrix,
    FrozenIndexError,
    MutationError,
    MutationTrace,
    exchange_matrix,
)
from clustrop.rootsys import cartan_matrix

NINE = (3, 2, 3, 2, 1, 2, 3, 2, 1)


def load_fixture(name):
    return json.loads((resources.files("clustrop") / "fixtures" / name).read_text())


def random_matrix(rng, n_mut=None, n_frozen=None, span=3):
    """Random skew-symmetrizable extended matrix with small entries."""
    n_mut = n_mut if n_mut is not None else rng.randint(2, 4)
    n_frozen = n_frozen if n_frozen is not None else rng.randint(0, 2)
    cols = list(range(1, n_mut + n_frozen + 1))
    frozen = cols[n_mut:]
    d = [rng.choice([1, 2, 3]) for _ in cols]
    omega = [[0] * n_mut for _ in range(n_mut)]
    for i in range(n_mut):
        for j in range(i + 1, n_mut):
            w = rng.randint(-span, span)
            omega[i][j] = w
            omega[j][i] = -w
    rows = []
    for i in range(n_mut):
        row = [omega[i][j] * d[j] for j in range(n_mut)]
        for _ in range(n_frozen):
            row.append(rng.randint(-span, span))
        rows.append(row)
    return exchange_matrix(cols, frozen, d, rows)


def test_c3_restriction_fixture():
    fx = load_fixture("restrict_c3.json")
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict(fx["keep"])
    assert eps == matrix_from_obj(fx["expected"])


def test_c3_mutation_sequence_fixture():
    fx = load_fixture("mutseq_c3.json")
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict(fx["keep"]).mutate_seq(fx["seq"])
    assert eps == matrix_from_obj(fx["expected"])


def test_b3_mutation_fixture():
    fx = load_fixture("mut_b3.json")
    eps = gls_exchange_matrix(cartan_matrix("B", 3), NINE).restrict(fx["keep"]).mutate_seq(fx["seq"])
    assert eps == matrix_from_obj(fx["expected"])
    assert eps.row(6) == (0, 2, -2, 0, 1)


def test_g2_sequence_replays_and_matches_oracle():
    fx = load_fixture("mutseq_g2.json")
    eps = gls_exchange_matrix(cartan_matrix("G", 2), (1, 2, 1, 2, 1, 2)).restrict(fx["keep"])
    out = eps.mutate_seq(fx["seq"])
    expected = matrix_from_obj(fx["expected"])
    assert out == expected
    # frozen column singled out
    assert [out.entry(r, 5) for r in out.mutable] == [expected.entry(r, 5) for r in expected.mutable]


def test_mutation_rejects_frozen_direction():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE)
    with pytest.raises(FrozenIndexError, match=r"^cannot mutate at frozen label 7$"):
        eps.mutate(7)


def test_mutation_is_involutive_randomized():
    rng = random.Random(20240)
    for _ in range(1000):
        eps = random_matrix(rng)
        k = rng.choice(eps.mutable)
        assert eps.mutate(k).mutate(k) == eps


def test_mutation_preserves_skew_symmetrizer_randomized():
    rng = random.Random(20241)
    for _ in range(1000):
        eps = random_matrix(rng)
        for k in rng.choices(eps.mutable, k=3):
            eps = eps.mutate(k)  # constructor revalidates the relation
        for r in eps.mutable:
            for s in eps.mutable:
                assert eps.entry(r, s) * eps.dcol(r) + eps.entry(s, r) * eps.dcol(s) == 0


def test_restrict_commutes_with_mutation_randomized():
    rng = random.Random(20242)
    for _ in range(1000):
        eps = random_matrix(rng, n_mut=3, n_frozen=2)
        keep = sorted(rng.sample(eps.cols, rng.randint(2, 4)))
        mutable_kept = [k for k in keep if k not in eps.frozen]
        if not mutable_kept:
            continue
        k = rng.choice(mutable_kept)
        assert eps.mutate(k).restrict(keep) == eps.restrict(keep).mutate(k)


def test_restrict_commutes_on_c3_fixture():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE)
    keep = {1, 2, 3, 6, 8}
    assert eps.mutate(3).restrict(keep) == eps.restrict(keep).mutate(3)


def test_restrict_to_full_set_is_identity():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE)
    assert eps.restrict(eps.cols) == eps


def test_labels_preserved_under_mutation_and_restriction():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict({1, 2, 3, 6, 8})
    assert eps.cols == (1, 2, 3, 6, 8)
    assert eps.mutate(6).cols == (1, 2, 3, 6, 8)


def test_constructor_rejects_bad_symmetrizer():
    with pytest.raises(MutationError):
        exchange_matrix([1, 2], [], [1, 1], [[0, 2], [-1, 0]])


def test_exchange_matrix_refuses_non_integer_entries():
    """An entry is taken only if it equals an integer; int() would read 3/2
    as 1 and give a skew-symmetric matrix that was never asked for."""
    with pytest.raises(MutationError, match="^rows entry 3/2 is not an integer$"):
        exchange_matrix([1, 2], [], [1, 1], [[0, Q(3, 2)], [Q(-3, 2), 0]])
    with pytest.raises(MutationError, match="^rows entry 0.5 is not an integer$"):
        exchange_matrix([1, 2], [2], [1, 1], [[0, 0.5]])


def test_exchange_matrix_refuses_non_integer_d():
    with pytest.raises(MutationError, match="^d entry 1.9 is not an integer$"):
        exchange_matrix([1, 2], [], [1.9, 1], [[0, 1], [-1, 0]])
    with pytest.raises(MutationError, match="^d entry 1/2 is not an integer$"):
        exchange_matrix([1, 2], [], [1, Q(1, 2)], [[0, 1], [-1, 0]])


def test_exchange_matrix_refuses_bools_and_non_numbers():
    with pytest.raises(MutationError, match="^rows entry True is not an integer$"):
        exchange_matrix([1, 2], [], [1, 1], [[0, True], [-1, 0]])
    with pytest.raises(MutationError, match="^d entry True is not an integer$"):
        exchange_matrix([1, 2], [], [True, 1], [[0, 1], [-1, 0]])
    for bad in ("1", None, float("inf"), float("nan")):
        with pytest.raises(MutationError, match="^rows entry .* is not an integer$"):
            exchange_matrix([1, 2], [2], [1, 1], [[0, bad]])


def test_exchange_matrix_takes_values_equal_to_integers():
    eps = exchange_matrix([1, 2], [], [Q(2), 1.0], [[0, Q(-1)], [2.0, 0]])
    assert eps == exchange_matrix([1, 2], [], [2, 1], [[0, -1], [2, 0]])
    assert all(type(x) is int for x in (*eps.d, *eps.rows[0], *eps.rows[1]))


def test_exchange_matrix_refuses_non_integer_cols():
    """A label that is not an integer would build and mutate, and then be
    written to a matrix file that `matrix_from_obj` refuses."""
    with pytest.raises(MutationError, match="^cols entry 1.5 is not an integer$"):
        exchange_matrix([1.5, "x"], [], [1, 1], [[0, 1], [-1, 0]])
    with pytest.raises(MutationError, match="^cols entry True is not an integer$"):
        exchange_matrix([True, 2], [], [1, 1], [[0, 1], [-1, 0]])
    eps = exchange_matrix([1.0, Q(2)], [], [1, 1], [[0, 1], [-1, 0]])
    assert eps.cols == (1, 2) and all(type(k) is int for k in eps.cols)


def test_exchange_matrix_refuses_non_integer_frozen():
    with pytest.raises(MutationError, match="^frozen entry 2.5 is not an integer$"):
        exchange_matrix([1, 2], [2.5], [1, 1], [[0, 1]])
    with pytest.raises(MutationError, match="^frozen entry 2 is not an integer$"):
        exchange_matrix([1, 2], ["2"], [1, 1], [[0, 1]])
    eps = exchange_matrix([1, 2], [2.0], [1, 1], [[0, 1]])
    assert eps.frozen == {2} and all(type(k) is int for k in eps.frozen)


def test_trace_replay():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict({1, 2, 3, 6, 8})
    tr = MutationTrace(eps, (6, 2, 3), eps.mutate_seq((6, 2, 3)))
    assert tr.verify()
    assert not MutationTrace(eps, (6, 2), tr.result).verify()


# -- differential and rejection checks against the pairwise rules ---------------


def oracle_mutate_rows(eps, k):
    """Rows of mu_k(eps) by eps'_rs = eps_rs + sgn(eps_ks)[eps_rk eps_ks]_+ with
    row and column k negated, read entry by entry through the label API."""
    rows = []
    for r in eps.mutable:
        row = []
        for s in eps.cols:
            if r == k or s == k:
                row.append(-eps.entry(r, s))
            else:
                e_rk, e_ks = eps.entry(r, k), eps.entry(k, s)
                row.append(eps.entry(r, s) + ((e_ks > 0) - (e_ks < 0)) * max(e_rk * e_ks, 0))
        rows.append(tuple(row))
    return tuple(rows)


def oracle_skew_violation(cols, frozen, d, rows):
    """First (r, s) over the full square of mutable labels, in label order,
    with eps_rs d_r + eps_sr d_s != 0; None if there is none."""
    mut = [c for c in cols if c not in frozen]

    def entry(r, s):
        return rows[mut.index(r)][cols.index(s)]

    for r in mut:
        for s in mut:
            if entry(r, s) * d[cols.index(r)] + entry(s, r) * d[cols.index(s)] != 0:
                return (r, s)
    return None


def differential_start_matrices(rng):
    """Restrictions of the GLS seeds (each keeps a mutable label) and random
    skew-symmetrizable matrices with frozen columns."""
    seeds = [
        gls_exchange_matrix(cartan_matrix("C", 3), NINE),
        gls_exchange_matrix(cartan_matrix("B", 3), NINE),
        gls_exchange_matrix(cartan_matrix("G", 2), (1, 2, 1, 2, 1, 2)),
        gls_exchange_matrix(cartan_matrix("A", 4), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)),
    ]
    out = []
    for i in range(120):
        eps = seeds[i % len(seeds)]
        keep = set(rng.sample(eps.cols, rng.randint(2, len(eps.cols))))
        keep.add(rng.choice(eps.mutable))
        out.append(eps.restrict(keep))
    for _ in range(120):
        out.append(random_matrix(rng, n_mut=rng.randint(1, 5), n_frozen=rng.randint(1, 3)))
    return out


def test_mutate_matches_sign_rule_oracle():
    """The kernel builds the shear vector [±row_k]_+ of a sign only for a row
    with that sign of eps_rk, so the walk covers columns k with eps_rk of one
    sign only, of each sign, of both, and |eps_rk| >= 2 of each sign (C3, B3
    and G2 have non-unit d)."""
    rng = random.Random(20250)
    cases = 0
    unit = wide = 0  # rows r != k changed through |eps_rk| == 1 and through |eps_rk| >= 2
    columns = Counter()
    for eps in differential_start_matrices(rng):
        for _ in range(6):
            k = rng.choice(eps.mutable)
            child = eps.mutate(k)
            assert child.rows == oracle_mutate_rows(eps, k)
            col = [eps.entry(r, k) for r in eps.mutable if r != k]
            pos, neg = any(x > 0 for x in col), any(x < 0 for x in col)
            columns["positive only"] += pos and not neg
            columns["negative only"] += neg and not pos
            columns["both signs"] += pos and neg
            columns["wide positive"] += any(x >= 2 for x in col)
            columns["wide negative"] += any(x <= -2 for x in col)
            unit += sum(abs(x) == 1 for x in col)
            wide += sum(abs(x) >= 2 for x in col)
            eps = child
            cases += 1
    assert cases >= 1000
    assert unit >= 100 and wide >= 100
    assert len(columns) == 5 and min(columns.values()) >= 100, columns


def test_skew_check_reports_the_oracles_first_failing_pair():
    rng = random.Random(20251)
    bad = 0
    for eps in differential_start_matrices(rng):
        rows = [list(row) for row in eps.rows]
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(len(rows))][rng.randrange(len(eps.cols))] += rng.choice([-1, 1])
        want = oracle_skew_violation(eps.cols, eps.frozen, eps.d, rows)
        if want is None:
            assert exchange_matrix(eps.cols, eps.frozen, eps.d, rows).rows == tuple(map(tuple, rows))
            continue
        bad += 1
        with pytest.raises(MutationError) as exc:
            exchange_matrix(eps.cols, eps.frozen, eps.d, rows)
        assert str(exc.value) == f"not skew-symmetrizable at ({want[0]},{want[1]})"
    assert bad >= 100


@pytest.mark.parametrize(
    "cols, frozen, d, rows, message",
    [
        ([1, 1], [], [1, 1], [[0, 0], [0, 0]], "duplicate column labels"),
        ([1, 2], [3], [1, 1], [[0, 0], [0, 0]], "frozen labels must be columns"),
        ([1, 2], [], [1, 0], [[0, 0], [0, 0]], "d must be positive, one entry per column"),
        ([1, 2], [], [1], [[0, 0], [0, 0]], "d must be positive, one entry per column"),
        ([1, 2], [2], [1, 1], [[0, 1], [-1, 0]], "need one row per mutable label"),
        ([1, 2], [], [1, 1], [[0, 1], [-1]], "row length must match column count"),
        ([1, 2, 3], [], [1, 1, 1], [[0, 1, 0], [-1, 0, 2], [0, -1, 0]], "not skew-symmetrizable at (2,3)"),
        ([1, 2], [], [2, 1], [[0, 1], [-1, 0]], "not skew-symmetrizable at (1,2)"),
        ([1, 2], [], [1, 1], [[0, 1], [-1, 1]], "not skew-symmetrizable at (2,2)"),
    ],
)
def test_constructor_rejection_messages(cols, frozen, d, rows, message):
    with pytest.raises(MutationError) as exc:
        exchange_matrix(cols, frozen, d, rows)
    assert type(exc.value) is MutationError
    assert str(exc.value) == message


def test_label_record_is_not_a_field():
    a = gls_exchange_matrix(cartan_matrix("C", 3), NINE).restrict({1, 2, 3, 6, 8})
    b = exchange_matrix(a.cols, a.frozen, a.d, a.rows)
    assert a == b and hash(a) == hash(b)
    assert a.mutate(3) == b.mutate(3) and hash(a.mutate(3)) == hash(b.mutate(3))
    # the stored hash is the value the generated one computed from the four fields
    for eps in (a, a.mutate(3), a.mutable_part()):
        assert hash(eps) == hash((eps.cols, eps.frozen, eps.d, eps.rows))
    assert [f.name for f in dataclasses.fields(ExtendedExchangeMatrix)] == ["cols", "frozen", "d", "rows"]


def test_max_abs_entry_matches_entrywise_scan():
    rng = random.Random(350)
    mats = [random_matrix(rng, span=rng.randint(0, 4)) for _ in range(60)]
    # all-frozen (no rows), rows of zeros, and rows whose largest magnitude is negative
    mats += [exchange_matrix([1, 2], [1, 2], [1, 1], []), exchange_matrix([1, 2], [2], [1, 1], [[0, 0]])]
    mats += [exchange_matrix([1, 2, 3], [2, 3], [1, 1, 1], [[0, -5, -2]])]
    for eps in mats:
        assert eps.max_abs_entry() == max((abs(x) for row in eps.rows for x in row), default=0)
    assert [eps.max_abs_entry() for eps in mats[-3:]] == [0, 0, 5]


def test_label_record_is_keyed_by_d():
    """Matrices sharing (cols, frozen) but not d get their own records, and
    each is checked against its own d, whichever was built first."""
    unit = exchange_matrix([1, 2, 3], [3], [1, 1, 1], [[0, 1, 2], [-1, 0, 1]])
    skew = exchange_matrix([1, 2, 3], [3], [2, 1, 1], [[0, 1, 2], [-2, 0, 1]])
    assert unit._lab is not skew._lab
    assert [p[4:] for p in unit._lab.pairs] == [(1, 1), (1, 1), (1, 1)]
    assert [p[4:] for p in skew._lab.pairs] == [(2, 2), (2, 1), (1, 1)]
    for d, rows in [([2, 1, 1], unit.rows), ([1, 1, 1], skew.rows), ([2, 1, 1], unit.rows)]:
        with pytest.raises(MutationError, match=r"not skew-symmetrizable at \(1,2\)"):
            exchange_matrix([1, 2, 3], [3], d, rows)
    assert unit.mutate(1).mutate(1) == unit and skew.mutate(2).mutate(2) == skew


@pytest.mark.parametrize(
    "cols, frozen, d, message",
    [
        ([1, 1], [], [1, 1], "duplicate column labels"),
        ([1, 2], [3], [1, 1], "frozen labels must be columns"),
        ([1, 2], [], [1, 0], "d must be positive, one entry per column"),
        ([1, 2], [], [1, 1, 1], "d must be positive, one entry per column"),
    ],
)
def test_invalid_label_triple_raises_on_every_construction(cols, frozen, d, message):
    """The record is cached, but an exception is not: the same invalid matrix
    raises the same message every time it is built."""
    for _ in range(2):
        with pytest.raises(MutationError) as exc:
            exchange_matrix(cols, frozen, d, [[0, 0], [0, 0]])
        assert type(exc.value) is MutationError and str(exc.value) == message


def test_pickle_and_copy_round_trips():
    """GLS restrictions and matrices mutated from them survive pickle and copy."""
    rng = random.Random(20252)
    mats = []
    for eps in differential_start_matrices(rng)[:120:6]:
        mats += [eps, eps.mutate_seq(rng.choice(eps.mutable) for _ in range(rng.randint(1, 5)))]
    for eps in mats:
        for twin in (pickle.loads(pickle.dumps(eps)), copy.copy(eps), copy.deepcopy(eps)):
            assert type(twin) is ExtendedExchangeMatrix
            assert twin == eps and hash(twin) == hash(eps)
            assert (twin.cols, twin.frozen, twin.d, twin.rows) == (eps.cols, eps.frozen, eps.d, eps.rows)
            for k in eps.mutable:
                assert twin.mutate(k) == eps.mutate(k) and hash(twin.mutate(k)) == hash(eps.mutate(k))


ROWS3 = ((0, 1, 1), (-1, 0, 2))


def test_constructor_stores_normalised_fields():
    """A tuple of frozen labels and a frozenset build one matrix with one hash."""
    a = ExtendedExchangeMatrix((1, 2, 3), (3,), (1, 1, 1), ROWS3)
    b = ExtendedExchangeMatrix((1, 2, 3), frozenset({3}), (1, 1, 1), ROWS3)
    assert a == b and hash(a) == hash(b)
    assert a.frozen == frozenset({3}) and type(a.frozen) is frozenset
    assert a.mutate(1) == b.mutate(1) and hash(a.mutate(1)) == hash(b.mutate(1))


def test_restrict_and_json_round_trip_of_tuple_frozen_compare_equal():
    a = ExtendedExchangeMatrix((1, 2, 3), (3,), (1, 1, 1), ROWS3)
    assert a.restrict(a.cols) == a
    assert matrix_from_obj(json.loads(json.dumps(matrix_to_obj(a)))) == a


def test_constructor_takes_list_labels():
    a = ExtendedExchangeMatrix([1, 2, 3], [3], [1, 1, 1], ROWS3)
    assert a == ExtendedExchangeMatrix((1, 2, 3), frozenset({3}), (1, 1, 1), ROWS3)
    assert (type(a.cols), type(a.frozen), type(a.d)) == (tuple, frozenset, tuple)


@pytest.mark.parametrize(
    "rows",
    [list(ROWS3), [], [list(row) for row in ROWS3], (ROWS3[0], list(ROWS3[1])), (list(ROWS3[0]), ROWS3[1])],
)
def test_constructor_refuses_rows_that_are_not_tuples(rows):
    with pytest.raises(MutationError) as exc:
        ExtendedExchangeMatrix((1, 2, 3), (3,), (1, 1, 1), rows)
    assert type(exc.value) is MutationError and str(exc.value) == "rows must be tuples"


def test_restrict_refuses_labels_that_are_not_columns():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE)
    for keep in ([1, 2, 99], {99}, (3, 6, 8, 0)):
        with pytest.raises(MutationError) as exc:
            eps.restrict(keep)
        assert type(exc.value) is MutationError
        assert str(exc.value) == f"unknown label {99 if 99 in keep else 0}"
    assert eps.restrict([8, 6, 3, 2, 1, 6]) == eps.restrict({1, 2, 3, 6, 8})


def test_unknown_labels_raise_mutation_errors():
    eps = gls_exchange_matrix(cartan_matrix("C", 3), NINE)
    for call in (lambda: eps.entry(99, 1), lambda: eps.entry(1, 99), lambda: eps.row(99), lambda: eps.mutate(99)):
        with pytest.raises(MutationError, match="unknown label 99"):
            call()
    with pytest.raises(FrozenIndexError):
        eps.entry(7, 1)
