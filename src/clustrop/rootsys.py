"""Cartan matrices of finite type, root arithmetic, and reduced-word checks.

Roots are integer coefficient vectors in the simple-root basis, indices are
1-based throughout (node k of the Dynkin diagram is index k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm

Root = tuple[int, ...]
Word = tuple[int, ...]

_VALID_TYPES = "ABCDEFG"


class CartanError(ValueError):
    pass


@dataclass(frozen=True)
class CartanMatrix:
    """Cartan matrix with its symmetrizer.

    `a[i][j]` is 0-based storage for the entry a_{i+1,j+1}.  `diag` holds the
    positive integers d with a[i][j]*d[j] == a[j][i]*d[i]; with this scaling
    the column weights attach to word positions as skew-symmetrizers.
    """

    type_label: str
    rank: int
    a: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        for i in range(n):
            if self.a[i][i] != 2:
                raise CartanError("diagonal entries must be 2")
            for j in range(n):
                if i != j and self.a[i][j] > 0:
                    raise CartanError("off-diagonal entries must be <= 0")
                if (self.a[i][j] == 0) != (self.a[j][i] == 0):
                    raise CartanError("zero pattern must be symmetric")
                if self.a[i][j] * self.diag[j] != self.a[j][i] * self.diag[i]:
                    raise CartanError("diag does not symmetrize the matrix")
        if any(d <= 0 for d in self.diag):
            raise CartanError("symmetrizer entries must be positive")

    def entry(self, i: int, j: int) -> int:
        """a_{i,j} with 1-based indices."""
        return self.a[i - 1][j - 1]

    def d(self, i: int) -> int:
        return self.diag[i - 1]

    @property
    def indices(self) -> range:
        return range(1, self.rank + 1)

    def is_symmetric(self) -> bool:
        return all(self.a[i][j] == self.a[j][i] for i in range(self.rank) for j in range(self.rank))

    def __str__(self):
        return f"{self.type_label}{self.rank}"


def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def cartan_matrix(type_label: str, rank: int) -> CartanMatrix:
    """Standard Cartan matrix of the given finite type, nodes numbered 1..rank.

    Numbering follows the usual Bourbaki diagrams: chains for A/B/C/F/G with
    the multiple edge at the high end (B_n: a[n][n-1] = -2, C_n: a[n-1][n] = -2,
    G_2: a[1][2] = -3), the fork of D_n at nodes n-1, n, and the branch node
    of E_n attached to node 4.
    """
    t = type_label.upper()
    n = rank
    if t == "A" and n >= 1:
        a = _chain(n)
    elif t == "B" and n >= 2:
        a = _chain(n)
        a[n - 1][n - 2] = -2
    elif t == "C" and n >= 2:
        a = _chain(n)
        a[n - 2][n - 1] = -2
    elif t == "D" and n >= 4:
        # chain on 1..n-1, node n attached to the branch node n-2
        a = _chain(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 3][n - 1] = -1
        a[n - 1][n - 3] = -1
    elif t == "E" and n in (6, 7, 8):
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (2, 4)] + [(k, k + 1) for k in range(4, n)]
        for i, j in edges:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
    elif t == "F" and n == 4:
        a = _chain(4)
        a[2][1] = -2
    elif t == "G" and n == 2:
        a = [[2, -3], [-1, 2]]
    else:
        raise CartanError(f"invalid finite type {type_label}{rank}")
    return CartanMatrix(t, n, tuple(tuple(r) for r in a), _symmetrizer(a))


def _symmetrizer(a) -> tuple[int, ...]:
    """Positive integers d (gcd 1) with a[i][j]*d[j] == a[j][i]*d[i]."""
    n = len(a)
    d: list[Q | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * a[j][i] / a[i][j]
                    stack.append(j)
    den = lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def parse_cartan_type(text: str) -> CartanMatrix:
    """Parse strings like "C3" or "g2" into a Cartan matrix."""
    text = text.strip()
    if not text or text[0].upper() not in _VALID_TYPES or not text[1:].isdigit():
        raise CartanError(f"cannot parse Cartan type {text!r}")
    return cartan_matrix(text[0], int(text[1:]))


def parse_word(text: str) -> Word:
    """Parse a comma-separated letter list like "3,2,3,2,1" into a word."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise CartanError(f"cannot parse word {text!r}") from None


def check_word(C: CartanMatrix, w: Word) -> None:
    for letter in w:
        if not 1 <= letter <= C.rank:
            raise CartanError(f"letter {letter} out of range for {C}")


def simple_root(C: CartanMatrix, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in C.indices)


def reflect(C: CartanMatrix, i: int, r: Root) -> Root:
    """Apply the simple reflection s_i:  s_i(v) = v - <pairing with alpha_i^vee> alpha_i."""
    if not 1 <= i <= C.rank:
        raise CartanError(f"reflection index {i} out of range for {C}")
    pairing = sum(C.entry(i, j) * r[j - 1] for j in C.indices)
    return tuple(c - pairing if j == i else c for j, c in zip(C.indices, r))


def apply_word(C: CartanMatrix, w: Word, r: Root) -> Root:
    """Apply s_{i_1} s_{i_2} ... s_{i_m} to r (rightmost letter acts first)."""
    for letter in reversed(w):
        r = reflect(C, letter, r)
    return r


def is_positive(r: Root) -> bool:
    return any(c != 0 for c in r) and all(c >= 0 for c in r)


def roots(C: CartanMatrix) -> set[Root]:
    """All roots, generated from the simple ones by reflection closure."""
    found = {simple_root(C, i) for i in C.indices}
    frontier = list(found)
    while frontier:
        r = frontier.pop()
        for i in C.indices:
            s = reflect(C, i, r)
            if s not in found:
                found.add(s)
                frontier.append(s)
    return found


def positive_roots(C: CartanMatrix) -> set[Root]:
    return {r for r in roots(C) if is_positive(r)}


def inversion_roots(C: CartanMatrix, w: Word) -> list[Root]:
    """The roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) for k = 1..m."""
    check_word(C, w)
    betas = []
    for k in range(len(w)):
        betas.append(apply_word(C, w[:k], simple_root(C, w[k])))
    return betas


def is_reduced(C: CartanMatrix, w: Word) -> bool:
    betas = inversion_roots(C, w)
    return all(is_positive(b) for b in betas) and len(set(betas)) == len(betas)


def is_longest(C: CartanMatrix, w: Word) -> bool:
    """True iff w is a reduced expression of the longest element."""
    return len(w) == len(positive_roots(C)) and is_reduced(C, w)


@dataclass(frozen=True)
class WordIndices:
    """Position bookkeeping of a word: successors k+, predecessors k-,
    frozen positions (last occurrence of each letter), and support."""

    word: Word
    kplus: tuple[int, ...]
    kminus: tuple[int, ...]
    j_fr: tuple[int, ...]
    j_uf: tuple[int, ...]
    supp: tuple[int, ...]

    def kp(self, k: int) -> int:
        return self.kplus[k - 1]

    def km(self, k: int) -> int:
        return self.kminus[k - 1]


def word_indices(w: Word) -> WordIndices:
    m = len(w)
    kplus = []
    kminus = []
    for k in range(1, m + 1):
        nxt = next((j for j in range(k + 1, m + 1) if w[j - 1] == w[k - 1]), m + 1)
        prv = max((j for j in range(1, k) if w[j - 1] == w[k - 1]), default=0)
        kplus.append(nxt)
        kminus.append(prv)
    j_fr = tuple(k for k in range(1, m + 1) if kplus[k - 1] == m + 1)
    j_uf = tuple(k for k in range(1, m + 1) if kplus[k - 1] != m + 1)
    return WordIndices(tuple(w), tuple(kplus), tuple(kminus), j_fr, j_uf, tuple(sorted(set(w))))
