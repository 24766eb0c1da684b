"""Extended exchange matrices, mutations, quiver views, and mutation-class searches.

Matrices keep their column labels through every operation, so restricted
matrices mutate by original label.  Rows are stored for mutable labels only;
entries with both indices frozen are undefined and never materialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import add, mul, neg, sub
from typing import NamedTuple


class MutationError(ValueError):
    pass


class FrozenIndexError(MutationError):
    pass


class _Labels(NamedTuple):
    """Read-only record shared by every matrix with the same (cols, frozen, d)."""

    ci: dict[int, int]  # column label -> column index
    mutable: tuple[int, ...]  # mutable labels in column order
    ri: dict[int, int]  # mutable label -> row index
    mcols: tuple[int, ...]  # column index of each row's label
    fcols: tuple[tuple[int, int], ...]  # (label, column index) per frozen label, sorted
    pairs: tuple[tuple[int, int, int, int, int, int], ...]  # (a, b, col_a, col_b, d_a, d_b) per row pair b >= a


@lru_cache(maxsize=32)
def _labels(cols: tuple[int, ...], frozen: frozenset[int], d: tuple[int, ...]) -> _Labels:
    """The checks that read only (cols, frozen, d), then the shared record.
    lru_cache keeps no exception, so an invalid triple raises on every call."""
    colset = set(cols)
    if len(colset) != len(cols):
        raise MutationError("duplicate column labels")
    if not frozen <= colset:
        raise MutationError("frozen labels must be columns")
    if any(x <= 0 for x in d) or len(d) != len(cols):
        raise MutationError("d must be positive, one entry per column")
    ci = {c: i for i, c in enumerate(cols)}
    mutable = tuple(c for c in cols if c not in frozen)
    ri = {r: i for i, r in enumerate(mutable)}
    mcols = tuple(map(ci.get, mutable))
    # eps_rs d_r + eps_sr d_s == 0 is symmetric in (r, s), so the pairs b >= a
    # report the same first failing pair as the full square
    pairs = tuple((a, b, ca, cb, d[ca], d[cb]) for a, ca in enumerate(mcols) for b, cb in enumerate(mcols[a:], a))
    return _Labels(ci, mutable, ri, mcols, tuple((s, ci[s]) for s in sorted(frozen)), pairs)


def _mutated_rows(lab: _Labels, frozen: frozenset[int], rows: tuple, k: int) -> tuple:
    """The one mutation kernel: the rows of mu_k of the matrix with label record lab and these
    rows.  Mutation keeps skew-symmetrizability with the same d, so valid rows give valid rows.
    eps_rs + sgn(eps_ks)[eps_rk eps_ks]_+ is eps_rs + eps_rk [±eps_ks]_+ with the sign of
    eps_rk; -2 at k in both vectors negates column k; row k changes sign.  A row is one map
    into an exact-size list: tuple(map(...)) over-allocates and shrinks, so freed rows are
    not reused and peak memory grows, for no speed-up."""
    kr = lab.ri.get(k)
    if kr is None:
        if k in frozen:
            raise FrozenIndexError(f"cannot mutate at frozen label {k}")
        raise MutationError(f"unknown label {k}")
    ki = lab.mcols[kr]
    krow = rows[kr]
    kpos = [x if x > 0 else 0 for x in krow]
    kneg = [-x if x < 0 else 0 for x in krow]
    kpos[ki] = kneg[ki] = -2
    new_rows = []
    for row in rows:
        e_rk = row[ki]
        if not e_rk:
            new_rows.append(row)  # eps_rk == 0 leaves the row as it is (and eps_kk == 0: row k is set below)
        elif e_rk == 1:
            new_rows.append(tuple([*map(add, row, kpos)]))
        elif e_rk == -1:
            new_rows.append(tuple([*map(sub, row, kneg)]))
        else:
            new_rows.append(tuple([*map(add, row, map(mul, kpos if e_rk > 0 else kneg, repeat(e_rk)))]))
    new_rows[kr] = tuple([*map(neg, krow)])
    return tuple(new_rows)


@dataclass(frozen=True, init=False)
class ExtendedExchangeMatrix:
    """Integer exchange matrix with mutable rows, all columns, and skew-symmetrizer d.

    cols:   ordered column labels J
    frozen: subset of J (no rows stored for these)
    d:      positive integer per column, aligned with cols
    rows:   one integer row per mutable label, aligned with cols

    Every instance, mutated ones included, is validated by the one explicit constructor:
    `_labels` checks (cols, frozen, d), normalised to tuple, frozenset and tuple, and shares
    its record (label lookups and skew pairs); each matrix checks that rows is a tuple of
    tuples, its row count, row lengths and skew, then stores the normalised fields, the record
    and its hash (not fields: dict lookups do not rehash rows) through `_SLOT_SETTERS`, once
    each.  `__reduce__` rebuilds through the constructor, so copies revalidate.
    """

    __slots__ = ("cols", "frozen", "d", "rows", "_lab", "_hash")
    cols: tuple[int, ...]
    frozen: frozenset[int]
    d: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, cols, frozen, d, rows):
        cols, frozen, d = tuple(cols), frozenset(frozen), tuple(d)  # no copy when already normalised
        lab = _labels(cols, frozen, d)
        if type(rows) is not tuple or len(rows) != len(lab.mutable):
            raise MutationError("need one row per mutable label" if type(rows) is tuple else "rows must be tuples")
        n = len(cols)
        for row in rows:
            if len(row) != n or type(row) is not tuple:
                raise MutationError("row length must match column count" if len(row) != n else "rows must be tuples")
        for a, b, ca, cb, da, db in lab.pairs:
            if rows[a][cb] * da + rows[b][ca] * db != 0:
                raise MutationError(f"not skew-symmetrizable at ({lab.mutable[a]},{lab.mutable[b]})")
        set_cols, set_frozen, set_d, set_rows, set_lab, set_hash = _SLOT_SETTERS  # no name lookups
        set_cols(self, cols)
        set_frozen(self, frozen)
        set_d(self, d)
        set_rows(self, rows)
        set_lab(self, lab)
        set_hash(self, hash((cols, frozen, d, rows)))

    def __reduce__(self):
        return ExtendedExchangeMatrix, (self.cols, self.frozen, self.d, self.rows)

    def __hash__(self):
        return self._hash

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

    def mutate(self, k: int) -> "ExtendedExchangeMatrix":
        """Matrix mutation in direction k (a mutable label); involutive, keeps d.  `_mutated_rows` gives the rows."""
        rows = _mutated_rows(self._lab, self.frozen, self.rows, k)
        return ExtendedExchangeMatrix(self.cols, self.frozen, self.d, rows)

    def mutate_seq(self, seq) -> "ExtendedExchangeMatrix":
        eps = self
        for k in seq:
            eps = eps.mutate(k)
        return eps

    def restrict(self, keep) -> "ExtendedExchangeMatrix":
        """Columns restricted to keep (column labels only), rows to keep ∩ mutable; labels preserved."""
        idx = sorted(set(map(self.col_index, keep)))  # an unknown label raises here
        cols = tuple(self.cols[i] for i in idx)
        keep = set(cols)
        frozen = frozenset(c for c in cols if c in self.frozen)
        d = tuple(self.d[i] for i in idx)
        rows = tuple(tuple(row[i] for i in idx) for r, row in zip(self.mutable, self.rows) if r in keep)
        return ExtendedExchangeMatrix(cols, frozen, d, rows)

    def mutable_part(self) -> "ExtendedExchangeMatrix":
        return self.restrict(self.mutable)

    def max_abs_entry(self) -> int:
        return max(map(abs, chain.from_iterable(self.rows)), default=0)

    def is_skew_symmetric(self) -> bool:
        mut = self.mutable
        return all(self.entry(r, s) == -self.entry(s, r) for r in mut for s in mut)


_SLOT_SETTERS = tuple(getattr(ExtendedExchangeMatrix, f).__set__ for f in ExtendedExchangeMatrix.__slots__)


def _integer(x, what: str) -> int:
    """x as an int if it equals one (2, Fraction(2), 2.0); a bool or any
    other value raises MutationError naming what, so nothing is truncated."""
    try:
        if type(x) is not bool and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise MutationError(f"{what} {x} is not an integer")


def exchange_matrix(cols, frozen, d, rows) -> ExtendedExchangeMatrix:
    """The matrix of plain data; every label, entry and d must be an integer."""
    cols = tuple(_integer(x, "cols entry") for x in cols)
    frozen = frozenset(_integer(x, "frozen entry") for x in frozen)
    rows = tuple(tuple(_integer(x, "rows entry") for x in row) for row in rows)
    return ExtendedExchangeMatrix(cols, frozen, tuple(_integer(x, "d entry") for x in d), rows)


@dataclass(frozen=True)
class MutationTrace:
    """A mutation sequence with its endpoints; replaying seq reproduces result."""

    initial: ExtendedExchangeMatrix
    seq: tuple[int, ...]
    result: ExtendedExchangeMatrix

    def verify(self) -> bool:
        return self.initial.mutate_seq(self.seq) == self.result


def _bfs(root: ExtendedExchangeMatrix, parents: dict, labels):
    """Breadth-first walk from root (parents = {root: (None, None)}) mutating
    along labels, with exact labeled dedup: each new matrix is recorded as
    matrix -> (parent, label) and yielded in discovery order, the order the
    queue serves it.  Mutation is an involution, so a node is never mutated
    back along the label it was reached by: that gives its parent.

    Nor is a node cur = mu_i(parent) mutated along a label k before i in
    labels when eps_ik = 0 in cur: then mu_k and mu_i commute (Fomin-Zelevinsky,
    Cluster algebras IV), so mu_k(cur) = mu_i(sibling) with sibling =
    mu_k(parent).  The sibling was in parents before cur was found, so the
    queue served it first, and it made mu_i(sibling) unless that is its own
    parent (by induction on the serving order, a skipped child counts as
    made).  Every skipped child is already in parents, so discovery order,
    parents and yields are those of the walk without the skip."""
    ci, ri = root._lab.ci, root._lab.ri  # every matrix of the walk has root's cols
    # per label i: its row, the labels before it with their columns, the labels after it
    steps = {i: (ri[i], [(k, ci[k]) for k in labels[:n]], [*labels[n + 1:]]) for n, i in enumerate(labels)}
    queue = deque([(root, labels)])
    while queue:
        cur, ks = queue.popleft()
        for k in ks:
            child = cur.mutate(k)
            if child not in parents:
                parents[child] = (cur, k)
                yield child
                r, before, after = steps[k]
                row = child.rows[r]
                queue.append((child, [j for j, c in before if row[c]] + after))


def _path(parents: dict, node) -> tuple[int, ...]:
    """Mutation sequence from the root of a `_bfs` to node."""
    seq = []
    while parents[node][0] is not None:
        node, k = parents[node]
        seq.append(k)
    return tuple(reversed(seq))


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
    out of `a`.  Input must be an acyclically oriented cycle type.  The BFS
    (`_bfs`) never mutates a node back along the label it was reached by."""
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

    parents = {start: (None, None)}
    for eps in chain([start], _bfs(start, parents, directions)):
        if has_double_out(eps):
            return MutationTrace(start, _path(parents, eps), eps)
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
    first other qualifying witness when the budget ends without it.  The BFS
    (`_bfs`) never mutates a node back along the label it was reached by."""
    if len(eps.frozen) != 1:
        raise MutationError("criterion needs exactly one frozen column")
    if not eps.is_skew_symmetric():
        raise MutationError("criterion needs a skew-symmetric mutable part")
    fin = mutable_finiteness(eps, node_cap=budget)
    if fin == "infinite":
        raise MutationError("mutable part is already mutation infinite")
    (f,) = tuple(eps.frozen)
    parents = {eps: (None, None)}
    fallback = None
    for cur in islice(chain([eps], _bfs(eps, parents, eps.mutable)), budget):
        cand = _ft_candidates(cur, f)
        if cand:
            v1, v2, b1, b2 = cand[0]
            clean = b2 == 0 and b1 > 0
            if clean or fallback is None:
                wit = FTWitness(MutationTrace(eps, _path(parents, cur), cur), v1, v2, b1, b2)
                if clean:
                    return wit
                fallback = wit
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

    The BFS (`_bfs`) never mutates a node back along the label it was reached by.
    A child mu_k(parent) is capped on its rows with a nonzero entry in column k:
    mu_k keeps the other rows but row k, which it negates, and the parent is within the cap.
    """
    if not all(type(c) is int and c > 0 for c in (node_cap, entry_cap)):
        raise MutationError("caps must be positive integers")
    if eps.max_abs_entry() > entry_cap:
        return BFSResult("entry_exceeded", 1, (), MutationTrace(eps, (), eps))
    parents = {eps: (None, None)}
    for child in _bfs(eps, parents, eps.mutable):
        c = eps._lab.ci[parents[child][1]]
        if max(map(abs, chain.from_iterable(r for r in child.rows if r[c])), default=0) > entry_cap:
            # the class size leaves this child out
            return BFSResult("entry_exceeded", len(parents) - 1, (), MutationTrace(eps, _path(parents, child), child))
        if len(parents) > node_cap:
            return BFSResult("cap_exhausted", len(parents), (), None)
    return BFSResult("finite", len(parents), tuple(sorted(parents, key=lambda m: m.rows)), None)


def _component(part: ExtendedExchangeMatrix, r: int) -> list[int]:
    """The labels joined to r by nonzero entries of the square matrix part."""
    comp = [r]
    for u in comp:
        comp += [s for s, x in zip(part.cols, part.row(u)) if x and s not in comp]
    return comp


def mutable_finiteness(eps: ExtendedExchangeMatrix, node_cap: int = 4096) -> str:
    """Three-valued mutation-finiteness of the mutable part: "finite",
    "infinite" (certified), or "unknown" (cap hit).

    In the skew-symmetric case an |entry| >= 3 in a connected component of
    at least 3 vertices, anywhere in the class, is the standard infiniteness
    certificate (a 2-vertex component only changes sign); entry growth past
    a generous cap is reported as unknown rather than coerced.
    """
    part = eps.mutable_part()
    skew = part.is_skew_symmetric()
    wide = [r for r, row in zip(part.mutable, part.rows) if max(map(abs, row), default=0) >= 3]
    if skew and any(len(_component(part, r)) >= 3 for r in wide):
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


def _best_frozen_drop(lab: _Labels, rows: tuple):
    """(value, r, s) of the largest -eps_{r,s}, r mutable and s frozen; the first in row order wins ties."""
    best = None
    fcols = lab.fcols
    for r, row in zip(lab.mutable, rows):
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
    empties because every child was already reached by a sequence that is
    lexicographically no greater than its own (so (2,7,2) displaces (7,)).
    The beam keeps only beam_width states per layer, so None is never a
    nonexistence claim.

    A state is not mutated back along the last label of its sequence (that
    gives its parent, reached by a strict prefix), but the skipped move still
    counts against the budget, so the search stops where it always did.  A
    state that re-enters the beam takes its children from `kids` instead of
    mutating again; its expansions count all the same.  Every state shares
    eps's cols, frozen and d, so the beam mutates, dedups and scores row tuples
    (`_mutated_rows`) and builds, and so validates, a matrix only for a witness.
    """
    if type(target) is not int or target < 1:
        raise MutationError("target must be a positive integer")
    if not all(type(x) is int and x > 0 for x in (budget, beam_width)):
        raise MutationError("budget and beam_width must be positive integers")
    if not eps.frozen:
        raise MutationError("matrix has no frozen column")

    lab, frozen = eps._lab, eps.frozen
    hit = _best_frozen_drop(lab, eps.rows)
    if hit and hit[0] >= target:
        return LargeEntryWitness(MutationTrace(eps, (), eps), hit[1], hit[2], hit[0])

    beam = [(eps.rows, ())]
    seen = {eps.rows: ()}
    kids = {}  # rows -> {label: child rows}: a state that re-enters the beam is not mutated again
    expanded = 0
    while beam and expanded < budget:
        children = []
        for cur, seq in beam:
            last = seq[-1] if seq else None
            memo = kids.setdefault(cur, {})
            for k in lab.mutable:
                expanded += 1
                if k == last:
                    continue
                child = memo.get(k)
                if child is None:
                    child = memo[k] = _mutated_rows(lab, frozen, cur, k)
                cseq = seq + (k,)
                prev = seen.get(child)
                if prev is not None and prev <= cseq:
                    continue
                seen[child] = cseq
                # one scan of the frozen columns gives both the hit test and the beam key
                children.append((child, cseq, _best_frozen_drop(lab, child)))
        hits = [(cseq, child, best) for child, cseq, best in children if best[0] >= target]
        if hits:
            cseq, child, (val, r, s) = min(hits, key=lambda t: t[0])
            found = ExtendedExchangeMatrix(eps.cols, frozen, eps.d, child)
            return LargeEntryWitness(MutationTrace(eps, cseq, found), r, s, val)
        children.sort(key=lambda t: (-max(0, t[2][0]), t[1]))
        beam = [(child, cseq) for child, cseq, _ in children[:beam_width]]
    return None
