"""Initial exchange matrices attached to reduced words.

The matrix lives on column labels 1..m (word positions); rows are the
positions whose letter reappears later, the remaining positions are frozen.
Entry (r, s) follows the five-case rule driven by the successor positions
r+, s+ and the Cartan entries between the letters.
"""

from __future__ import annotations

from .mutation import ExtendedExchangeMatrix, MutationError, Quiver, to_quiver
from .rootsys import CartanMatrix, Word, is_reduced, word_indices


class NotReducedError(MutationError):
    pass


def gls_exchange_matrix(C: CartanMatrix, w: Word) -> ExtendedExchangeMatrix:
    """Seed matrix of a reduced word: rows J_uf, columns 1..m, d_j = diag[i_j]."""
    if not is_reduced(C, w):
        raise NotReducedError(f"word {w} is not reduced for {C}")
    m = len(w)
    idx = word_indices(w)
    kp = idx.kp

    def entry(r, s):
        if r == kp(s):
            return -1
        if s < r < kp(s) < kp(r):
            return -C.entry(w[s - 1], w[r - 1])
        if kp(r) == s:
            return 1
        if r < s < kp(r) < kp(s):
            return C.entry(w[s - 1], w[r - 1])
        return 0

    cols = tuple(range(1, m + 1))
    rows = tuple(tuple(entry(r, s) for s in cols) for r in idx.j_uf)
    d = tuple(C.d(w[j - 1]) for j in cols)
    return ExtendedExchangeMatrix(cols, frozenset(idx.j_fr), d, rows)


def gls_quiver(C: CartanMatrix, w: Word) -> Quiver:
    """Quiver view of the seed matrix; only for symmetric Cartan matrices."""
    if not C.is_symmetric():
        raise MutationError(f"{C} is not simply laced; no quiver view")
    return to_quiver(gls_exchange_matrix(C, w))
