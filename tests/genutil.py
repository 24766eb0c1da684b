"""Seeded random generators shared by the property and acceptance suites,
the paper-scale polytopes they gate on, and a log of `lattice_points` walks."""

import contextlib
import sys
from fractions import Fraction as Q

from clustrop import polytopes
from clustrop.mutation import exchange_matrix
from clustrop.polytopes import DegenerateError, PolytopeError, halfspace, hull, polar_dual, vertices_from_facets
from clustrop.rootsys import cartan_matrix


def random_exchange(rng, n_mut=None, n_frozen=None, span=3, unit_d=False):
    """Random skew-symmetrizable extended matrix with small entries."""
    n_mut = n_mut if n_mut is not None else rng.randint(2, 4)
    n_frozen = n_frozen if n_frozen is not None else rng.randint(0, 2)
    cols = list(range(1, n_mut + n_frozen + 1))
    d = [1] * len(cols) if unit_d else [rng.choice([1, 2, 3]) for _ in cols]
    omega = [[0] * n_mut for _ in range(n_mut)]
    for i in range(n_mut):
        for j in range(i + 1, n_mut):
            w = rng.randint(-span, span)
            omega[i][j], omega[j][i] = w, -w
    rows = [
        [omega[i][j] * d[j] for j in range(n_mut)] + [rng.randint(-span, span) for _ in range(n_frozen)]
        for i in range(n_mut)
    ]
    return exchange_matrix(cols, cols[n_mut:], d, rows)


def random_polytope_with_interior_origin(rng, dim):
    """Random rational polytope containing 0 strictly: a random simplex around
    the origin plus a few extra sample points."""
    while True:
        pts = []
        for i in range(dim):
            for sign in (1, -1):
                c = Q(rng.randint(1, 6), rng.choice([1, 2, 3]))
                pts.append(tuple(sign * c if j == i else Q(0) for j in range(dim)))
        for _ in range(rng.randint(0, 3)):
            pts.append(tuple(Q(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(dim)))
        try:
            return hull(pts, dim)
        except (DegenerateError, PolytopeError):
            continue


def random_primitive_vector(rng, dim, span=3):
    from math import gcd

    while True:
        v = [rng.randint(-span, span) for _ in range(dim)]
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        if g == 1:
            return tuple(v)


def random_qgf_polytope(rng, dim, max_size=3):
    """QGF polytope with center 0: a positive multiple of the polar dual of a
    random lattice polytope with primitive vertices around the origin."""
    while True:
        prims = {random_primitive_vector(rng, dim) for _ in range(rng.randint(dim + 1, dim + 4))}
        # force the origin strictly inside by adding opposite unit pairs
        for i in range(dim):
            prims.add(tuple(1 if j == i else 0 for j in range(dim)))
            prims.add(tuple(-1 if j == i else 0 for j in range(dim)))
        try:
            D = hull(list(prims), dim)
        except (DegenerateError, PolytopeError):
            continue
        # non-vertex primitives just drop out of the hull; the vertices stay primitive
        nu = rng.randint(1, max_size)
        return polar_dual(D).scale(nu), nu


def gelfand_tsetlin(n):
    """The Gelfand-Tsetlin polytope of Fl(n) at 2 rho: patterns under the top
    row (2(n - 1), ..., 2, 0), each entry between its two upper neighbours,
    in the coordinates of rows n - 1, ..., 1."""
    top = [2 * (n - 1 - i) for i in range(n)]
    var = {(k, i): None for k in range(n - 1, 0, -1) for i in range(k)}
    var = {key: c for c, key in enumerate(var)}
    m = len(var)

    def entry(k, i):  # (coefficients, constant)
        return ([0] * m, top[i]) if k == n else ([int(c == var[k, i]) for c in range(m)], 0)

    halves = []
    for k, i in var:
        for (a, b), (c, d) in ((entry(k + 1, i), entry(k, i)), (entry(k, i), entry(k + 1, i + 1))):
            halves.append(halfspace(tuple(x - y for x, y in zip(a, c)), b - d))
    return hull(vertices_from_facets(halves, m), m)


def string_polytope_A(n, lam):
    """The string polytope of type A_n for the word (1; 2, 1; 3, 2, 1; ...) at
    the weight with <lam, h_i> = lam[i - 1]: Littelmann's cone, a_1 >= a_2 >= ...
    >= a_j >= 0 in block j, cut by the lambda-inequalities a_k <= <lam, h_(i_k)>
    - sum over l > k of a_l <alpha_(i_l), h_(i_k)> (Littelmann 1998;
    Berenstein-Zelevinsky 2001)."""
    word = [i for j in range(1, n + 1) for i in range(j, 0, -1)]
    N, C = len(word), cartan_matrix("A", n)
    halves, start = [], 0
    for j in range(1, n + 1):
        block = range(start, start + j)
        for k in block:  # a_k >= a_(k+1) inside the block, and the block's last entry >= 0
            halves.append(halfspace(tuple(int(t == k) - int(t == k + 1 and k + 1 in block) for t in range(N)), 0))
        start += j
    for k, i in enumerate(word):
        normal = tuple(-1 if t == k else -C.a[i - 1][word[t] - 1] if t > k else 0 for t in range(N))
        halves.append(halfspace(normal, lam[i - 1]))
    return hull(vertices_from_facets(halves, N), N)


# Delta_212121(2 rho) of G2, written <n, u> >= -b as (n, b): six facets at b = 2, six at b = 0
G2_DELTA_FACETS = (
    ((-1, 0, -1, 0, -1, 0), 2), ((0, -1, 0, -1, 0, -1), 2), ((0, 0, -1, 0, -1, 0), 2),
    ((0, 0, 0, -1, 0, -1), 2), ((0, 0, 0, 0, -1, 0), 2), ((0, 0, 0, 0, 0, -1), 2),
    ((0, 0, 0, 0, 0, 1), 0), ((0, 0, 0, 0, 1, 0), 0), ((0, 0, 0, 1, 1, 0), 0),
    ((0, 0, 2, 1, 1, 0), 0), ((0, 1, 2, 1, 1, 0), 0), ((1, 1, 2, 1, 1, 0), 0),
)


def g2_delta():
    """Delta_212121(2 rho) of G2 from its 12 facets."""
    return hull(vertices_from_facets([halfspace(n, b) for n, b in G2_DELTA_FACETS], 6), 6)


@contextlib.contextmanager
def walk_log():
    """Log every `lattice_points` walk run inside the block: one [order, nodes]
    per call, the coordinate order read off its frame and the walk nodes, the
    calls of its inner `walk`, each one prefix visited.  Counted by
    `sys.setprofile`, so the count is exact and takes no clock."""
    walk = next(c for c in polytopes.lattice_points.__code__.co_consts if getattr(c, "co_name", "") == "walk")
    log = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            if frame.f_back.f_code is walk:
                log[-1][1] += 1
            else:
                log.append([list(frame.f_back.f_locals["order"]), 1])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield log
    finally:
        sys.setprofile(previous)
