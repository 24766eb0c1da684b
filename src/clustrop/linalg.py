"""Small exact linear algebra helpers over the rationals.

Everything here works on tuples of Fraction (or int) and never touches
floating point.  Matrices are tuples of row tuples.  Every elimination
(`rank`, `solve`, `rref`, `mat_inverse`, and in `polytopes` the double
description, `hull_any` and `qgf_solve`) is one fraction-free Bareiss pass
(`_bareiss`) on rows cleared to integers, which reads rows only until it
has as many independent ones as it needs.
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


def _bareiss(rows, n: int) -> list[tuple[int, int, list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows, one row at a time,
    up to n rows independent in their first n entries: a row is kept iff its reduction by the rows
    kept before it leaves a nonzero there, so the kept rows are the first independent ones and the
    rows after the n-th are never read.  Returns (pivot column, input index, row) for the kept rows
    in pivot order: each row is zero at the other pivots and carries the last pivot on its own.
    Every entry stays a minor of the input, so each division is exact."""
    D, kept = 1, []
    for i, v in enumerate(rows):
        w = [D * x for x in v]
        for c, _, b in kept:
            if a := v[c]:
                w = [x - a * y for x, y in zip(w, b)]
        c = next((c for c in range(n) if w[c]), None)
        if c is not None:
            p = w[c]
            kept = [(j, k, [(p * x - b[c] * y) // D for x, y in zip(b, w)]) for j, k, b in kept] + [(c, i, w)]
            D = p
            if len(kept) == n:
                break
    return sorted(kept)


def rank(rows) -> int:
    M = [_clear(r) for r in rows]
    return len(_bareiss(M, len(M[0]) if M else 0))


def solve(A, b) -> Vec | None:
    """One exact solution of A x = b (free variables 0), or None if inconsistent."""
    n = len(A[0]) if A else 0
    kept = _bareiss([_clear(tuple(row) + (bv,)) for row, bv in zip(A, b)], n + 1)
    if kept and kept[-1][0] == n:
        return None
    x = [Q(0)] * n
    for c, _, row in kept:
        x[c] = Q(row[n], row[c])
    return tuple(x)


def rref(rows) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form of a copy; returns (matrix, pivot columns).
    Each kept row of the Jordan pass on the cleared rows is a multiple of its
    reduced row, and the zero rows come last."""
    M = [_clear(qvec(r)) for r in rows]
    kept = _bareiss(M, len(M[0]) if M else 0)
    reduced = [[Q(x, row[c]) for x in row] for c, _, row in kept]
    return reduced + [[Q(0)] * len(M[0]) for _ in M[len(kept):]], [c for c, *_ in kept]


def mat_inverse(A) -> Mat:
    n = len(A)
    M = [_clear(qvec(tuple(row) + tuple(int(i == j) for j in range(n)))) for i, row in enumerate(A)]
    kept = _bareiss(M, n)
    if len(kept) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Q(x, row[i]) for x in row[n:]) for i, _, row in kept)


def primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by its content: the primitive vector of its direction."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
