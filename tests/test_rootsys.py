import pytest

from clustrop.rootsys import (
    CartanError,
    apply_word,
    cartan_matrix,
    inversion_roots,
    is_longest,
    is_positive,
    is_reduced,
    parse_cartan_type,
    parse_word,
    positive_roots,
    reflect,
    simple_root,
    word_indices,
)

C3_WORD = (3, 2, 3, 2, 1, 2, 3, 2, 1)
D4_WORD = (2, 4, 1, 2, 4, 3, 2, 4, 1, 2, 3, 4)


def weyl_elements(C):
    """Brute-force Weyl group via closure of simple-reflection matrices (small ranks)."""
    simples = [tuple(simple_root(C, j) for j in C.indices) for _ in [0]][0]

    def act(i, cols):
        return tuple(reflect(C, i, c) for c in cols)

    identity = simples
    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for i in C.indices:
            h = act(i, g)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def test_cartan_c3_matches_drawn_matrix():
    C = cartan_matrix("C", 3)
    assert C.a == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def test_cartan_g2_matches_drawn_matrix():
    assert cartan_matrix("G", 2).a == ((2, -3), (-1, 2))


def test_cartan_a2():
    assert cartan_matrix("A", 2).a == ((2, -1), (-1, 2))


def test_cartan_b3():
    assert cartan_matrix("B", 3).a == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_symmetrizer_relation():
    for label, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        C = cartan_matrix(label, rank)
        for i in C.indices:
            for j in C.indices:
                assert C.entry(i, j) * C.d(j) == C.entry(j, i) * C.d(i)


@pytest.mark.parametrize(
    "label, rank, diag",
    [
        ("A", 1, (1,)),
        ("A", 4, (1, 1, 1, 1)),
        ("B", 2, (1, 2)),
        ("B", 3, (1, 1, 2)),
        ("B", 4, (1, 1, 1, 2)),
        ("C", 2, (2, 1)),
        ("C", 3, (2, 2, 1)),
        ("C", 4, (2, 2, 2, 1)),
        ("D", 4, (1, 1, 1, 1)),
        ("D", 5, (1, 1, 1, 1, 1)),
        ("E", 6, (1,) * 6),
        ("E", 7, (1,) * 7),
        ("E", 8, (1,) * 8),
        ("F", 4, (1, 1, 2, 2)),
        ("G", 2, (3, 1)),
    ],
)
def test_symmetrizer_values(label, rank, diag):
    assert cartan_matrix(label, rank).diag == diag


@pytest.mark.parametrize("label,rank", [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)])
def test_invalid_types_rejected(label, rank):
    with pytest.raises(CartanError):
        cartan_matrix(label, rank)


def test_parse_cartan_type():
    assert parse_cartan_type("C3").a == cartan_matrix("C", 3).a
    assert parse_cartan_type("g2").rank == 2
    with pytest.raises(CartanError):
        parse_cartan_type("3C")


def test_parse_word():
    assert parse_word("3,2,3,2,1,2,3,2,1") == C3_WORD
    with pytest.raises(CartanError):
        parse_word("1,x,2")


def test_reflect_simple_negates():
    A2 = cartan_matrix("A", 2)
    assert reflect(A2, 1, simple_root(A2, 1)) == (-1, 0)


def test_reflect_a2_adjacent():
    A2 = cartan_matrix("A", 2)
    assert reflect(A2, 1, simple_root(A2, 2)) == (1, 1)


def test_reflect_c3_doubled_edge():
    C3 = cartan_matrix("C", 3)
    assert reflect(C3, 2, simple_root(C3, 3)) == (0, 2, 1)


def test_reflect_is_involution():
    C3 = cartan_matrix("C", 3)
    for r in [(1, 0, 0), (1, 2, -1), (-2, 3, 1), (0, -1, 4)]:
        for i in C3.indices:
            assert reflect(C3, i, reflect(C3, i, r)) == r


def test_is_reduced_repeat_letter():
    A2 = cartan_matrix("A", 2)
    assert not is_reduced(A2, (1, 1))


def test_is_reduced_c3_long_word():
    assert is_reduced(cartan_matrix("C", 3), C3_WORD)


def test_is_reduced_a2_against_brute_force():
    # reduced expressions of length L exist exactly for elements of length L
    A2 = cartan_matrix("A", 2)
    assert is_reduced(A2, (1, 2, 1))
    elements = weyl_elements(A2)
    assert len(elements) == 6
    from itertools import product

    for L in range(1, 5):
        for w in product((1, 2), repeat=L):
            shorter = set()
            for M in range(L):
                for v in product((1, 2), repeat=M):
                    shorter.add(tuple(apply_word(A2, v, simple_root(A2, j)) for j in A2.indices))
            image = tuple(apply_word(A2, w, simple_root(A2, j)) for j in A2.indices)
            assert is_reduced(A2, w) == (image not in shorter)


def test_reduced_betas_positive_distinct_and_break():
    C3 = cartan_matrix("C", 3)
    betas = inversion_roots(C3, C3_WORD)
    assert all(is_positive(b) for b in betas)
    assert len(set(betas)) == len(betas)
    # appending any letter keeps or breaks reducedness exactly when a repeat/negative appears
    for j in C3.indices:
        assert not is_reduced(C3, C3_WORD + (j,))


def test_is_longest_c3_and_d4():
    assert is_longest(cartan_matrix("C", 3), C3_WORD)
    assert is_longest(cartan_matrix("D", 4), D4_WORD)


def test_is_longest_short_word():
    assert not is_longest(cartan_matrix("A", 2), (1, 2))


def test_positive_root_counts():
    assert len(positive_roots(cartan_matrix("A", 2))) == 3
    assert len(positive_roots(cartan_matrix("C", 3))) == 9
    assert len(positive_roots(cartan_matrix("D", 4))) == 12
    assert len(positive_roots(cartan_matrix("G", 2))) == 6


def test_longest_sends_simples_negative():
    for label, rank, w in [("C", 3, C3_WORD), ("G", 2, (1, 2, 1, 2, 1, 2))]:
        C = cartan_matrix(label, rank)
        assert is_longest(C, w)
        for j in C.indices:
            image = apply_word(C, w, simple_root(C, j))
            assert all(c <= 0 for c in image)


def test_word_indices_c3():
    idx = word_indices(C3_WORD)
    assert idx.j_fr == (7, 8, 9)
    assert idx.j_uf == (1, 2, 3, 4, 5, 6)
    assert idx.kp(1) == 3 and idx.kp(2) == 4 and idx.kp(7) == 10
    assert idx.km(3) == 1 and idx.km(1) == 0


def test_word_indices_g2():
    idx = word_indices((1, 2, 1, 2, 1, 2))
    assert idx.j_fr == (5, 6)


def test_word_indices_distinct_letters():
    idx = word_indices((2, 4, 1, 3))
    assert idx.j_fr == (1, 2, 3, 4)
    assert idx.j_uf == ()
    assert idx.supp == (1, 2, 3, 4)
