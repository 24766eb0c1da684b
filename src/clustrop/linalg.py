"""Small exact linear algebra helpers over the rationals.

Everything here works on tuples of Fraction (or int) and never touches
floating point.  Matrices are tuples of row tuples.  Every elimination
(`rank`, `solve`, `rref`, `mat_inverse`) is one fraction-free Bareiss pass
(`_bareiss`) on rows cleared to integers.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def qvec(v) -> Vec:
    return tuple(x if type(x) is Q else Q(x) for x in v)


def dot(x, y) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def is_zero(x) -> bool:
    return all(a == 0 for a in x)


def _clear(row, den: int = 0) -> list[int]:
    """The row times den, by default the lcm of its denominators: a positive
    scale, so the row's span, its solutions and its signs stay the same."""
    den = den or lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _bareiss(M: list[list[int]], jordan: bool = False) -> list[int]:
    """Fraction-free (Bareiss 1968) elimination of an integer matrix in place;
    returns the pivot columns.  Every entry stays a minor of the input, so
    each division is exact.  With jordan the entries above each pivot are
    cleared too, and every pivot row ends with the last pivot on its pivot."""
    pivots: list[int] = []
    prev, r, n = 1, 0, len(M)
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, n) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        row, p = M[r], M[r][c]
        for i in range(0 if jordan else r + 1, n):
            if i != r:
                a = M[i][c]
                M[i] = [(p * x - a * y) // prev for x, y in zip(M[i], row)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots


def rank(rows) -> int:
    return len(_bareiss([_clear(r) for r in rows]))


def solve(A, b) -> Vec | None:
    """One exact solution of A x = b (free variables 0), or None if inconsistent."""
    n = len(A[0]) if A else 0
    M = [_clear(tuple(row) + (bv,)) for row, bv in zip(A, b)]
    pivots = _bareiss(M, jordan=True)
    if pivots and pivots[-1] == n:
        return None
    x = [Q(0)] * n
    for row, c in zip(M, pivots):
        x[c] = Q(row[n], row[c])
    return tuple(x)


def rref(rows) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form of a copy; returns (matrix, pivot columns).
    The Jordan pass on the cleared rows leaves each pivot row a multiple of
    its reduced row, and the zero rows last."""
    M = [_clear(qvec(r)) for r in rows]
    pivots = _bareiss(M, jordan=True)
    reduced = [[Q(x, row[c]) for x in row] for row, c in zip(M, pivots)]
    return reduced + [list(map(Q, row)) for row in M[len(pivots):]], pivots


def mat_inverse(A) -> Mat:
    n = len(A)
    M = [_clear(qvec(tuple(row) + tuple(int(i == j) for j in range(n)))) for i, row in enumerate(A)]
    pivots = _bareiss(M, jordan=True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Q(x, row[i]) for x in row[n:]) for i, row in enumerate(M[:n]))


def primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by its content: the primitive vector of its direction."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
