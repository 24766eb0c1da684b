"""Small exact linear algebra helpers over the rationals.

Everything here works on tuples of Fraction (or int) and never touches
floating point.  Matrices are tuples of row tuples.
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


def vadd(x, y) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x) -> Vec:
    c = Q(c)
    return tuple(c * a for a in x)


def is_zero(x) -> bool:
    return all(a == 0 for a in x)


def matvec(A, x) -> Vec:
    return tuple(dot(row, x) for row in A)


def mat_transpose(A) -> Mat:
    return tuple(zip(*A))


def rref(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form (in place on a copy); returns (matrix, pivot columns)."""
    M = [list(map(Q, r)) for r in rows]
    if not M:
        return M, []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


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


def mat_inverse(A) -> Mat:
    n = len(A)
    aug = [list(map(Q, row)) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(A)]
    M, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(M[i][n:]) for i in range(n))


def primitive(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    ints = v if all(type(x) is int for x in v) else _clear(qvec(v))
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)
