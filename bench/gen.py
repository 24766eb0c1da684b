"""Seeded input generators owned by the benchmark.

Every generator draws from the `random.Random` it is handed, so one seed gives
one input stream.  Nothing here imports the test helpers: editing the tests
cannot move a workload.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from importlib import resources
from math import gcd

from clustrop import glsseed
from clustrop.mutation import ExtendedExchangeMatrix, exchange_matrix
from clustrop.polytopes import DegenerateError, PolytopeError, RationalPolytope, hull, polar_dual
from clustrop.rootsys import cartan_matrix

# The committed GLS seeds (reduced words of the longest element), as in the
# fixtures gls_c3, gls_b3, quiver_a5 and quiver_d4.
NINE = (3, 2, 3, 2, 1, 2, 3, 2, 1)
GLS_SEEDS = {
    "C3": (("C", 3), NINE),
    "B3": (("B", 3), NINE),
    "A5": (("A", 5), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1)),
    "D4": (("D", 4), (2, 4, 1, 2, 4, 3, 2, 4, 1, 2, 3, 4)),
}


def gls_seed_matrices() -> dict[str, ExtendedExchangeMatrix]:
    return {name: glsseed.gls_exchange_matrix(cartan_matrix(*ct), word) for name, (ct, word) in GLS_SEEDS.items()}


def fixture(name: str) -> dict:
    return json.loads((resources.files("clustrop") / "fixtures" / name).read_text())


def gls_restriction(rng, eps: ExtendedExchangeMatrix, n_mut: int, n_frozen: int) -> ExtendedExchangeMatrix:
    """Restriction to `n_mut` mutable and `n_frozen` >= 1 frozen labels; the
    mutable labels form a connected piece of the mutable diagram, so the
    search has a single component to explore."""
    if n_frozen < 1:
        raise ValueError("a restriction keeps at least one frozen label")
    mut = list(eps.mutable)
    keep = [rng.choice(mut)]
    while len(keep) < n_mut:
        nbrs = sorted({s for r in keep for s in mut if s not in keep and eps.entry(r, s) != 0})
        keep.append(rng.choice(nbrs or [s for s in mut if s not in keep]))
    frozen = rng.sample(sorted(eps.frozen), n_frozen)
    return eps.restrict(keep + frozen)


def admissible_matrix(rng, dim: int) -> ExtendedExchangeMatrix:
    """Unit-d matrix on labels 1..dim with a skew-symmetric mutable part and
    entries in {-1, 0, 1}; at least one label is mutable."""
    n_mut = rng.randint(1, dim)
    rows = [[0] * dim for _ in range(n_mut)]
    for i in range(n_mut):
        for j in range(i + 1, n_mut):
            w = rng.randint(-1, 1)
            rows[i][j], rows[j][i] = w, -w
        for j in range(n_mut, dim):
            rows[i][j] = rng.randint(-1, 1)
    cols = list(range(1, dim + 1))
    return exchange_matrix(cols, cols[n_mut:], [1] * dim, rows)


def _primitive_vector(rng, dim: int, span: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(dim))
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        if g == 1:
            return v


def qgf_polytope(rng, dim: int, max_size: int = 3) -> tuple[RationalPolytope, int]:
    """(P, nu) with P = nu * polar dual of a lattice polytope whose vertices are
    primitive and surround the origin; P is QGF of size nu with center 0."""
    while True:
        prims = {_primitive_vector(rng, dim, 3) for _ in range(rng.randint(dim + 1, dim + 4))}
        for i in range(dim):
            for sign in (1, -1):
                prims.add(tuple(sign if j == i else 0 for j in range(dim)))
        try:
            D = hull(sorted(prims), dim)
        except (DegenerateError, PolytopeError):
            continue
        nu = rng.randint(1, max_size)
        return polar_dual(D).scale(nu), nu


def interior_origin_points(rng, dim: int, extent: int, extra: int) -> list[tuple[Q, ...]]:
    """Point cloud on the half-integer grid whose hull holds the origin
    strictly inside: +-c e_i with c in [1/2, extent/2], plus `extra` points
    of the box [-extent/2, extent/2]^dim, so the bounding box never grows
    past that box."""
    pts = []
    for i in range(dim):
        for sign in (1, -1):
            c = Q(sign * rng.randint(1, extent), 2)
            pts.append(tuple(c if j == i else Q(0) for j in range(dim)))
    for _ in range(extra):
        pts.append(tuple(Q(rng.randint(-extent, extent), 2) for _ in range(dim)))
    return pts
