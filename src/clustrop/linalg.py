"""Small exact linear algebra helpers over the rationals.

Everything here works on tuples of Fraction (or int) and never touches
floating point.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def qvec(v) -> Vec:
    return tuple(Q(x) for x in v)


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


def rank(rows) -> int:
    return len(rref(list(rows))[1])


def solve(A, b) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent."""
    n = len(A[0]) if A else 0
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    M, pivots = rref(aug)
    for row in M:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = M[r][-1]
    return tuple(x)


def mat_inverse(A) -> Mat:
    n = len(A)
    aug = [list(map(Q, row)) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(A)]
    M, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(M[i][n:]) for i in range(n))


def lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else abs(a or b)


def primitive(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    v = qvec(v)
    if is_zero(v):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
