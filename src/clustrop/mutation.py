"""Extended exchange matrices, mutations, quiver views, and mutation-class searches.

Matrices keep their column labels through every operation, so restricted
matrices mutate by original label.  Rows are stored for mutable labels only;
entries with both indices frozen are undefined and never materialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple


class MutationError(ValueError):
    pass


class FrozenIndexError(MutationError):
    pass


def _pos(x):
    return x if x > 0 else 0


class _Labels(NamedTuple):
    """Read-only label record shared by every matrix with the same (cols, frozen)."""

    ci: dict[int, int]  # column label -> column index
    mutable: tuple[int, ...]  # mutable labels in column order
    ri: dict[int, int]  # mutable label -> row index
    mcols: tuple[int, ...]  # column index of each row's label
    fcols: tuple[tuple[int, int], ...]  # (label, column index) per frozen label, sorted


@lru_cache(maxsize=32)
def _labels(cols: tuple[int, ...], frozen: frozenset[int]) -> _Labels:
    ci = {c: i for i, c in enumerate(cols)}
    mutable = tuple(c for c in cols if c not in frozen)
    ri = {r: i for i, r in enumerate(mutable)}
    return _Labels(ci, mutable, ri, tuple(map(ci.get, mutable)), tuple((s, ci[s]) for s in sorted(frozen)))


@dataclass(frozen=True)
class ExtendedExchangeMatrix:
    """Integer exchange matrix with mutable rows, all columns, and skew-symmetrizer d.

    cols:   ordered column labels J
    frozen: subset of J (no rows stored for these)
    d:      positive integer per column, aligned with cols
    rows:   one integer row per mutable label, aligned with cols

    Every instance, mutated ones included, is validated on construction; the
    label lookups read a record shared through `_labels`, not a field.
    """

    cols: tuple[int, ...]
    frozen: frozenset[int]
    d: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols, d, rows = self.cols, self.d, self.rows
        colset = set(cols)
        if len(colset) != len(cols):
            raise MutationError("duplicate column labels")
        if not self.frozen <= colset:
            raise MutationError("frozen labels must be columns")
        lab = _labels(cols, frozenset(self.frozen))
        object.__setattr__(self, "_lab", lab)
        if any(x <= 0 for x in d) or len(d) != len(cols):
            raise MutationError("d must be positive, one entry per column")
        if len(rows) != len(lab.mutable):
            raise MutationError("need one row per mutable label")
        for row in rows:
            if len(row) != len(cols):
                raise MutationError("row length must match column count")
        # eps_rs d_r + eps_sr d_s == 0 is symmetric in (r, s), so scanning
        # b >= a reports the same first failing pair as the full square
        mc = lab.mcols
        for a, row_a in enumerate(rows):
            ca = mc[a]
            da = d[ca]
            for b in range(a, len(rows)):
                cb = mc[b]
                if row_a[cb] * da + rows[b][ca] * d[cb] != 0:
                    raise MutationError(f"not skew-symmetrizable at ({lab.mutable[a]},{lab.mutable[b]})")

    @property
    def mutable(self) -> tuple[int, ...]:
        return self._lab.mutable

    def col_index(self, s: int) -> int:
        try:
            return self._lab.ci[s]
        except KeyError:
            raise MutationError(f"unknown label {s}") from None

    def row_index(self, r: int) -> int:
        if r in self.frozen:
            raise FrozenIndexError(f"label {r} is frozen")
        try:
            return self._lab.ri[r]
        except KeyError:
            raise MutationError(f"unknown label {r}") from None

    def dcol(self, s: int) -> int:
        return self.d[self.col_index(s)]

    def entry(self, r: int, s: int) -> int:
        return self.rows[self.row_index(r)][self.col_index(s)]

    def row(self, r: int) -> tuple[int, ...]:
        return self.rows[self.row_index(r)]

    def full_entry(self, r: int, s: int) -> int:
        """Entry with the frozen-row value recovered from the symmetrizer relation."""
        if r not in self.frozen:
            return self.entry(r, s)
        if s in self.frozen:
            raise MutationError(f"entry ({r},{s}) with both labels frozen is undefined")
        val = Q(-self.entry(s, r) * self.dcol(s), self.dcol(r))
        if val.denominator != 1:
            raise MutationError(f"non-integer induced entry at ({r},{s})")
        return int(val)

    def mutate(self, k: int) -> "ExtendedExchangeMatrix":
        """Matrix mutation in direction k (a mutable label); involutive, keeps d.

        eps_rs + sgn(eps_ks)[eps_rk eps_ks]_+ is eps_rs + eps_rk [±eps_ks]_+ with
        the sign of eps_rk; row and column k change sign."""
        if k in self.frozen:
            raise FrozenIndexError(f"cannot mutate at frozen label {k}")
        ki = self.col_index(k)
        kr = self._lab.ri[k]
        krow = self.rows[kr]
        kpos = [x if x > 0 else 0 for x in krow]
        kneg = [-x if x < 0 else 0 for x in krow]
        new_rows = []
        for r, row in enumerate(self.rows):
            if r == kr:
                new_rows.append(tuple(-x for x in row))
                continue
            e_rk = row[ki]
            new = [a + e_rk * b for a, b in zip(row, kpos if e_rk > 0 else kneg)] if e_rk else list(row)
            new[ki] = -e_rk  # kpos and kneg vanish at k
            new_rows.append(tuple(new))
        return ExtendedExchangeMatrix(self.cols, self.frozen, self.d, tuple(new_rows))

    def mutate_seq(self, seq) -> "ExtendedExchangeMatrix":
        eps = self
        for k in seq:
            eps = eps.mutate(k)
        return eps

    def restrict(self, keep) -> "ExtendedExchangeMatrix":
        """Columns restricted to keep, rows to keep ∩ mutable; labels preserved."""
        keep = set(keep)
        cols = tuple(c for c in self.cols if c in keep)
        idx = [self.col_index(c) for c in cols]
        frozen = frozenset(c for c in cols if c in self.frozen)
        d = tuple(self.d[i] for i in idx)
        rows = tuple(tuple(row[i] for i in idx) for r, row in zip(self.mutable, self.rows) if r in keep)
        return ExtendedExchangeMatrix(cols, frozen, d, rows)

    def mutable_part(self) -> "ExtendedExchangeMatrix":
        return self.restrict(self.mutable)

    def max_abs_entry(self) -> int:
        return max((abs(x) for row in self.rows for x in row), default=0)

    def is_skew_symmetric(self) -> bool:
        mut = self.mutable
        return all(self.entry(r, s) == -self.entry(s, r) for r in mut for s in mut)


def exchange_matrix(cols, frozen, d, rows) -> ExtendedExchangeMatrix:
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    return ExtendedExchangeMatrix(tuple(cols), frozenset(frozen), tuple(int(x) for x in d), rows)


@dataclass(frozen=True)
class MutationTrace:
    """A mutation sequence with its endpoints; replaying seq reproduces result."""

    initial: ExtendedExchangeMatrix
    seq: tuple[int, ...]
    result: ExtendedExchangeMatrix

    def verify(self) -> bool:
        return self.initial.mutate_seq(self.seq) == self.result


def make_trace(eps: ExtendedExchangeMatrix, seq) -> MutationTrace:
    seq = tuple(seq)
    return MutationTrace(eps, seq, eps.mutate_seq(seq))


# ---------------------------------------------------------------------------
# Seed bases


@dataclass(frozen=True)
class SeedBasis:
    """Lattice basis e_j with the scaled dual basis f_j = d_j^{-1} e*_j.

    Vectors are stored as coordinate tuples in the initial basis; the pairing
    of coordinate vectors is the plain dot product, so <f_j, e_i> = d_j^{-1} δ_ij
    holds at the start and is preserved by mutation.
    """

    cols: tuple[int, ...]
    d: tuple[int, ...]
    e: tuple[tuple[int, ...], ...]
    f: tuple[tuple[Q, ...], ...]

    @classmethod
    def initial(cls, cols, d) -> "SeedBasis":
        cols = tuple(cols)
        d = tuple(d)
        n = len(cols)
        e = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        f = tuple(tuple(Q(1, d[i]) if i == j else Q(0) for j in range(n)) for i in range(n))
        return cls(cols, d, e, f)

    def pairing(self, j: int, i: int) -> Q:
        return sum((a * b for a, b in zip(self.f[j], self.e[i])), Q(0))


def mutate_seed_basis(basis: SeedBasis, eps: ExtendedExchangeMatrix, k: int) -> SeedBasis:
    """Seed mutation: e'_k = -e_k, e'_j = e_j + [eps_{j,k}]_+ e_k, and the dual
    update f'_k = -f_k + sum_i [-eps_{k,i}]_+ f_i that keeps <f_j, e_i> = d_j^{-1} δ_ij."""
    if k in eps.frozen:
        raise FrozenIndexError(f"cannot mutate at frozen label {k}")
    if basis.cols != eps.cols:
        raise MutationError("basis and matrix have different labels")
    ki = eps.col_index(k)
    new_e = []
    for j, label in enumerate(eps.cols):
        if label == k:
            new_e.append(tuple(-x for x in basis.e[j]))
        else:
            c = _pos(eps.full_entry(label, k))
            new_e.append(tuple(x + c * y for x, y in zip(basis.e[j], basis.e[ki])))
    new_f = list(basis.f)
    acc = tuple(-x for x in basis.f[ki])
    for i, label in enumerate(eps.cols):
        if label == k:
            continue
        c = _pos(-eps.entry(k, label))
        if c:
            acc = tuple(x + c * y for x, y in zip(acc, basis.f[i]))
    new_f[ki] = acc
    return SeedBasis(basis.cols, basis.d, tuple(new_e), tuple(new_f))


# ---------------------------------------------------------------------------
# Quivers


@dataclass(frozen=True)
class Quiver:
    """Arrow view of a skew-symmetric exchange matrix.

    arrows maps (i, j) to the number of arrows i -> j; eps_{j,i} >= 0 gives
    eps_{j,i} arrows from i to j, frozen-incident arrows come from the
    skew-symmetric extension.  Raw frozen-column entries are kept alongside.
    """

    vertices: tuple[int, ...]
    frozen: frozenset[int]
    arrows: tuple[tuple[int, int, int], ...]
    frozen_entries: tuple[tuple[int, int, int], ...]
    matrix: ExtendedExchangeMatrix

    def arrow_dict(self) -> dict[tuple[int, int], int]:
        return {(a, b): m for a, b, m in self.arrows}


def to_quiver(eps: ExtendedExchangeMatrix) -> Quiver:
    mut = eps.mutable
    muts = set(mut)
    if not eps.is_skew_symmetric():
        raise MutationError("quiver view needs a skew-symmetric mutable part")
    dvals = {eps.dcol(r) for r in mut}
    if len(dvals) > 1:
        raise MutationError("quiver view needs equal d on mutable labels")
    arrows = {}
    for r in mut:
        for s in eps.cols:
            if s == r:
                continue
            e = eps.entry(r, s)
            if e > 0:
                arrows[(s, r)] = e
            elif e < 0 and s not in muts:
                # skew-symmetric extension decides the frozen-incident arrows
                arrows[(r, s)] = -e
    fz = tuple(
        (r, s, eps.entry(r, s))
        for r in mut
        for s in eps.cols
        if s in eps.frozen and eps.entry(r, s) != 0
    )
    arr = tuple(sorted((i, j, m) for (i, j), m in arrows.items()))
    return Quiver(eps.cols, eps.frozen, arr, fz, eps)


def double_arrows(q: Quiver) -> list[tuple[int, int]]:
    """Ordered pairs of mutable vertices joined by two or more arrows."""
    muts = set(q.vertices) - set(q.frozen)
    return sorted((i, j) for i, j, m in q.arrows if m >= 2 and i in muts and j in muts)


def diagram_weights(eps: ExtendedExchangeMatrix) -> dict[tuple[int, int], int]:
    """Edge weights |eps_{r,s} * eps_{s,r}| of the mutable part, keyed by
    unordered pairs (r < s).  Frozen connections are not drawn here; their raw
    entries live on the quiver view instead."""
    out = {}
    mut = eps.mutable
    for i, r in enumerate(mut):
        for s in mut[i + 1:]:
            w = abs(eps.entry(r, s) * eps.entry(s, r))
            if w:
                out[(r, s)] = w
    return out


def affine_a_type(q: Quiver) -> tuple[int, int] | None:
    """(p, q) if the mutable part is an acyclically oriented cycle with p
    arrows one way and q the other (p >= q >= 1); None otherwise.  The
    two-vertex double arrow counts as (1, 1)."""
    mut = tuple(v for v in q.vertices if v not in q.frozen)
    adj = {}
    for i, j, m in q.arrows:
        if i in q.frozen or j in q.frozen:
            continue
        adj[(i, j)] = m
    if len(mut) == 2:
        i, j = mut
        if adj in ({(i, j): 2}, {(j, i): 2}):
            return (1, 1)
        return None
    if len(mut) < 3:
        return None
    if any(m != 1 for m in adj.values()):
        return None
    neighbors = {v: set() for v in mut}
    for i, j in adj:
        neighbors[i].add(j)
        neighbors[j].add(i)
    if any(len(ns) != 2 for ns in neighbors.values()):
        return None
    # walk the cycle and check it covers everything
    start = mut[0]
    prev, cur = start, next(iter(neighbors[start]))
    seen = [start]
    while cur != start:
        seen.append(cur)
        nxt = next(v for v in neighbors[cur] if v != prev)
        prev, cur = cur, nxt
    if len(seen) != len(mut):
        return None
    fwd = sum(1 for a, b in zip(seen, seen[1:] + seen[:1]) if (a, b) in adj)
    bwd = len(mut) - fwd
    if fwd == 0 or bwd == 0:
        return None
    return (max(fwd, bwd), min(fwd, bwd))


def apq_normalize(q: Quiver, a: int) -> MutationTrace:
    """Shortest mutation sequence avoiding `a` whose result has a double arrow
    out of `a`.  Input must be an acyclically oriented cycle type."""
    if affine_a_type(q) is None:
        raise MutationError("quiver is not an acyclically oriented cycle with both orientations")
    mut = [v for v in q.vertices if v not in q.frozen]
    if a not in mut:
        raise MutationError(f"vertex {a} is not mutable")
    directions = [v for v in mut if v != a]
    start = q.matrix

    def has_double_out(eps):
        return any(
            eps.entry(v, a) >= 2 for v in eps.mutable if v != a
        )

    seen = {start}
    queue = deque([(start, ())])
    while queue:
        eps, seq = queue.popleft()
        if has_double_out(eps):
            return MutationTrace(start, seq, eps)
        for k in directions:
            child = eps.mutate(k)
            if child not in seen:
                seen.add(child)
                queue.append((child, seq + (k,)))
    raise MutationError("mutation class exhausted without a double arrow (not affine A?)")


@dataclass(frozen=True)
class FTWitness:
    """Double arrow v1 => v2 plus its net frozen-arrow counts b1, b2."""

    trace: MutationTrace
    v1: int
    v2: int
    b1: int
    b2: int

    def condition(self) -> bool:
        return self.b1 != -self.b2 or self.b2 < 0


def _ft_candidates(eps: ExtendedExchangeMatrix, f: int):
    """Qualifying (v1, v2, b1, b2) witnesses in eps, best first."""
    out = []
    mut = eps.mutable
    for v1 in mut:
        for v2 in mut:
            if v1 == v2 or eps.entry(v2, v1) < 2:
                continue
            b1 = -eps.entry(v1, f)
            b2 = -eps.entry(v2, f)
            if b1 != -b2 or b2 < 0:
                out.append((v1, v2, b1, b2))
    # prefer the clean shape: b2 == 0 with b1 as positive as possible
    out.sort(key=lambda t: (t[3] != 0, -t[2], t[0], t[1]))
    return out


def ft_infinite_witness(eps: ExtendedExchangeMatrix, budget: int = 4096) -> FTWitness | None:
    """BFS the mutation class for a double arrow whose frozen-arrow counts
    certify mutation-infiniteness (b1 != -b2 or b2 < 0).  Requires exactly one
    frozen column and a skew-symmetric, mutation-finite mutable part.  Returns
    None when the node budget runs out; that is never a finiteness claim.

    Witnesses shaped like the constructive one (b2 = 0 with b1 > 0) are
    preferred: the search keeps scanning for one and only falls back to the
    first other qualifying witness when the budget ends without it."""
    if len(eps.frozen) != 1:
        raise MutationError("criterion needs exactly one frozen column")
    if not eps.is_skew_symmetric():
        raise MutationError("criterion needs a skew-symmetric mutable part")
    fin = mutable_finiteness(eps, node_cap=budget)
    if fin == "infinite":
        raise MutationError("mutable part is already mutation infinite")
    (f,) = tuple(eps.frozen)
    seen = {eps}
    queue = deque([(eps, ())])
    nodes = 0
    fallback = None
    while queue and nodes < budget:
        cur, seq = queue.popleft()
        nodes += 1
        cand = _ft_candidates(cur, f)
        if cand:
            v1, v2, b1, b2 = cand[0]
            wit = FTWitness(MutationTrace(eps, seq, cur), v1, v2, b1, b2)
            if b2 == 0 and b1 > 0:
                return wit
            if fallback is None:
                fallback = wit
        for k in cur.mutable:
            child = cur.mutate(k)
            if child not in seen:
                seen.add(child)
                queue.append((child, seq + (k,)))
    return fallback


# ---------------------------------------------------------------------------
# Class enumeration and entry searches


@dataclass(frozen=True)
class BFSResult:
    """Outcome of an exhaustive labeled-class BFS."""

    status: str  # "finite" | "entry_exceeded" | "cap_exhausted"
    class_size: int
    matrices: tuple[ExtendedExchangeMatrix, ...]
    trace: MutationTrace | None


def mutation_class_bfs(eps: ExtendedExchangeMatrix, node_cap: int, entry_cap: int) -> BFSResult:
    """Exhaustive BFS with exact labeled-matrix dedup.

    finite          the class closed under all mutations within node_cap
    entry_exceeded  first trace reaching |entry| > entry_cap
    cap_exhausted   node_cap hit first (no claim either way)
    """
    if node_cap <= 0 or entry_cap <= 0:
        raise MutationError("caps must be positive")
    if eps.max_abs_entry() > entry_cap:
        return BFSResult("entry_exceeded", 1, (), MutationTrace(eps, (), eps))
    seen = {eps}
    queue = deque([(eps, ())])
    explored = 0
    while queue:
        cur, seq = queue.popleft()
        explored += 1
        for k in cur.mutable:
            child = cur.mutate(k)
            if child in seen:
                continue
            if child.max_abs_entry() > entry_cap:
                return BFSResult(
                    "entry_exceeded", len(seen), (), MutationTrace(eps, seq + (k,), child)
                )
            seen.add(child)
            if len(seen) > node_cap:
                return BFSResult("cap_exhausted", len(seen), (), None)
            queue.append((child, seq + (k,)))
    return BFSResult("finite", len(seen), tuple(sorted(seen, key=lambda m: m.rows)), None)


def mutable_finiteness(eps: ExtendedExchangeMatrix, node_cap: int = 4096) -> str:
    """Three-valued mutation-finiteness of the mutable part: "finite",
    "infinite" (certified), or "unknown" (cap hit).

    In the skew-symmetric case an |entry| >= 3 anywhere in the class is the
    standard infiniteness certificate; entry growth past a generous cap is
    reported as unknown rather than coerced.
    """
    part = eps.mutable_part()
    skew = part.is_skew_symmetric()
    if skew and part.max_abs_entry() >= 3 and len(part.cols) >= 3:
        return "infinite"
    res = mutation_class_bfs(part, node_cap=node_cap, entry_cap=max(3, part.max_abs_entry()))
    if res.status == "finite":
        return "finite"
    exceeded = res.status == "entry_exceeded"
    if exceeded and skew and len(part.cols) >= 3 and res.trace.result.max_abs_entry() >= 3:
        return "infinite"
    return "unknown"


@dataclass(frozen=True)
class LargeEntryWitness:
    """Trace to a matrix with -eps_{r,s} >= target at mutable r, frozen s."""

    trace: MutationTrace
    r: int
    s: int
    value: int


def _best_frozen_drop(eps: ExtendedExchangeMatrix):
    best = None
    fcols = eps._lab.fcols
    for r, row in zip(eps.mutable, eps.rows):
        for s, i in fcols:
            v = -row[i]
            if best is None or v > best[0]:
                best = (v, r, s)
    return best


def large_entry_search(
    eps: ExtendedExchangeMatrix,
    target: int,
    budget: int = 20000,
    beam_width: int = 64,
) -> LargeEntryWitness | None:
    """Deterministic beam search for a mutation-equivalent matrix with a
    frozen-column entry -eps_{r,s} >= target.

    States are scored by the largest frozen-column magnitude; ties break
    lexicographically on the mutation sequence.  Returns None when the search
    stops without a witness: the expansion budget is spent, or the beam
    empties because every child was already reached by a sequence no longer
    than its own.  The beam keeps only beam_width states per layer, so None is
    never a nonexistence claim.
    """
    if target < 1:
        raise MutationError("target must be >= 1")
    if not eps.frozen:
        raise MutationError("matrix has no frozen column")

    hit = _best_frozen_drop(eps)
    if hit and hit[0] >= target:
        return LargeEntryWitness(MutationTrace(eps, (), eps), hit[1], hit[2], hit[0])

    beam = [(eps, ())]
    seen = {eps: ()}
    expanded = 0
    while beam and expanded < budget:
        children = []
        for cur, seq in beam:
            for k in cur.mutable:
                expanded += 1
                child = cur.mutate(k)
                cseq = seq + (k,)
                prev = seen.get(child)
                if prev is not None and prev <= cseq:
                    continue
                seen[child] = cseq
                # one scan of the frozen columns gives both the hit test and the beam key
                children.append((child, cseq, _best_frozen_drop(child)))
        hits = [(cseq, child, best) for child, cseq, best in children if best[0] >= target]
        if hits:
            cseq, child, (val, r, s) = min(hits, key=lambda t: t[0])
            return LargeEntryWitness(MutationTrace(eps, cseq, child), r, s, val)
        children.sort(key=lambda t: (-max(0, t[2][0]), t[1]))
        beam = [(child, cseq) for child, cseq, _ in children[:beam_width]]
    return None
