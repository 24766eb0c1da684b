"""The mutation-class searches as they were before the involution skip and
the parent-pointer BFS, copied verbatim: `apq_normalize`,
`ft_infinite_witness`, `mutation_class_bfs` and `large_entry_search`.  Every
node carries its full `seq` tuple and is mutated along every label.  They live
only here, as the oracle of the differential tests in
`test_search_differential.py`.  The data types are the package's own; the
scoring helpers are copies written on `entry()`, so the oracle shares no
search code with the package.
"""

from __future__ import annotations

from collections import deque

from clustrop.mutation import (
    BFSResult,
    ExtendedExchangeMatrix,
    FTWitness,
    LargeEntryWitness,
    MutationError,
    MutationTrace,
    Quiver,
    affine_a_type,
    mutable_finiteness,
)


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


def _best_frozen_drop(eps: ExtendedExchangeMatrix):
    """(value, r, s) of the largest -eps_{r,s} over mutable r (column order)
    and frozen s (ascending); the first such pair wins ties."""
    best = None
    for r in eps.mutable:
        for s in sorted(eps.frozen):
            v = -eps.entry(r, s)
            if best is None or v > best[0]:
                best = (v, r, s)
    return best


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
