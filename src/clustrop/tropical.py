"""Tropicalized cluster mutations on points and polytopes, plus the
distinguishing-certificate pipeline built on them.

The tropical map in direction k fixes the hyperplane u_k = 0 and acts by one
unimodular integer map on each side.  One point map (`_trop`) serves points
and polytopes' integer vertex rows (`RationalPolytope.hverts`), whose images
go straight to the constructor.  A polytope's image is read off its cut by
the wall's integer row e_k (`polytopes._cut`); its convexity, and each
condition u_s >= 0, is decided by sign tests on integer rows, so no hull or
double description runs here.  Facets map as integer rows (`_map_facet`) and
go to the polytope as they are.  Convexity reads only the vertices off the
wall, and the facet rows only at those on one side; a non-convex image's
crossings, half-spaces and piece polytopes are made when a caller first
reads them (`TropImage`), so a caller that stops at the convexity flag makes
none.  The test u_s >= 0 on an image, in the certificate and in the
supporting-half-space lemma, reads one accessor (`TropImage.in_halfspace`):
on a non-convex image it maps P's vertices and builds no piece, and it
computes the crossings only where P itself leaves u_s >= 0.  The certificate
replays each stage from the root through the run's image and solve caches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul

# mat_inverse is unused here; bench/spans.py wraps tropical.mat_inverse by name
from .linalg import mat_inverse, qvec  # noqa: F401
from .mutation import ExtendedExchangeMatrix, FrozenIndexError
from .polytopes import (
    Point,
    QGFCertificate,
    RationalPolytope,
    _cut,
    _facet,
    _held,
    _homog,
    _keep,
    _tight_sets,
    crossing_points,  # noqa: F401  unused here; bench/spans.py wraps tropical.crossing_points by name
    hull,  # noqa: F401  unused here; bench/spans.py wraps tropical.hull by name
    lattice_points,
    qgf_solve,
)


class TropicalError(ValueError):
    pass


class PreconditionError(TropicalError):
    """A named precondition failed; `which` identifies it."""

    def __init__(self, which: str, detail: str):
        self.which = which
        super().__init__(f"precondition {which} failed: {detail}")


def _check_direction(eps: ExtendedExchangeMatrix, k: int):
    if k in eps.frozen:
        raise FrozenIndexError(f"tropical mutation at frozen label {k}")
    if k not in eps.cols:
        raise TropicalError(f"unknown label {k}")


def trop_mutate_point(eps: ExtendedExchangeMatrix, k: int, u) -> Point:
    """Piecewise-linear mutation: u_k flips sign, u_j picks up [±eps_{k,j}]_+ u_k
    depending on the sign of u_k."""
    _check_direction(eps, k)
    u = qvec(u)
    if len(u) != len(eps.cols):
        raise TropicalError("point dimension does not match column count")
    return _trop(_side(eps.row(k), 1 if u[eps.col_index(k)] >= 0 else -1), eps.col_index(k), u)


def _side(row, s: int) -> tuple[int, ...]:
    """p = [s row]_+, the shear of the side s u_k >= 0 of the wall (p_k = 0)."""
    return tuple(max(s * e, 0) for e in row)


def _trop(p, ki: int, u) -> Point:
    """The map u_k -> -u_k, u_j -> u_j + p_j u_k of the side s u_k >= 0 that holds u,
    p = `_side(row, s)`, also on integer homogeneous rows with p extended by a 0.
    It fixes the wall; the negated row's map on side -s is its inverse."""
    uk = u[ki]
    out = [uj + pj * uk for uj, pj in zip(u, p)]
    out[ki] = -uk
    return tuple(out)


# ---------------------------------------------------------------------------
# Polytope mutation


@dataclass(frozen=True, init=False)
class TropImage:
    """Image of a polytope under one tropical mutation.

    convex=True carries only the image polytope; otherwise both piece images
    are returned so callers can refuse explicitly.  A non-convex image made
    by `trop_mutate_polytope` builds its pieces when one is first read
    (directly, by equality, hash or repr), then keeps them, so a caller that
    stops at `convex` builds nothing; its `polytope` is None at once.
    `in_halfspace` tests a coordinate's sign on the image with no piece built."""

    convex: bool
    polytope: RationalPolytope | None
    plus_image: RationalPolytope | None = functools.cached_property(lambda self: self._pieces[0])
    minus_image: RationalPolytope | None = functools.cached_property(lambda self: self._pieces[1])

    def __init__(self, convex, polytope=None, plus_image=None, minus_image=None):
        self.__dict__.update(convex=convex, polytope=polytope, plus_image=plus_image, minus_image=minus_image)

    @classmethod
    def _deferred(cls, build, within) -> TropImage:
        """A non-convex image whose pieces build() = (plus_image, minus_image) makes on first read,
        and whose `in_halfspace(ci)` is within(ci)."""
        img = cls.__new__(cls)
        img.__dict__.update(convex=False, polytope=None, _build=build, _within=within)
        return img

    _pieces = functools.cached_property(lambda self: self.__dict__.pop("_build")())

    def in_halfspace(self, ci: int) -> bool:
        """True iff the image lies in u_c >= 0, c the column of index ci: iff entry ci is >= 0 on
        integer homogeneous rows (t u, t) that generate it.  A non-convex image made by
        `trop_mutate_polytope` reads them with no piece built."""
        within = self.__dict__.get("_within")
        if within:
            return within(ci)
        parts = (self.polytope,) if self.convex else (self.plus_image, self.minus_image)
        return all(hp[ci] >= 0 for part in parts for hp in part.hverts)


def trop_mutate_polytope(eps: ExtendedExchangeMatrix, k: int, P: RationalPolytope) -> TropImage:
    """Image of P under the tropical map in direction k, one unimodular integer
    map on each closed half s u_k >= 0 (s = ±1): P maps whole, or each piece
    of `_cut(P, e_k)` maps with its facet rows (`_map_facet`) and the wall.

    The two piece images A (of s = 1) and B meet exactly in the section of P
    by the wall, which both maps fix.  Their union is convex iff B lies in
    each of A's mapped facet half-spaces, which are then with B's the hull's;
    if not, both piece images are returned, convex False.  One direction
    decides: at each ridge of the section one facet of A and one of B meet
    the wall, and the union is convex near the ridge iff their dihedral
    angles sum to at most pi, a condition symmetric in A and B.  So if B
    lies in A's half-spaces the union is locally convex, hence convex
    (Tietze-Nakajima), and B's half-spaces, facets of that convex union,
    hold A.  B is the hull of the section and its vertices off the wall, so
    the test maps A's facets, those tight at P's vertices strictly on side 1
    (`_held`, read off those vertices alone), one at a time and reads them at
    the images of P's vertices strictly on side -1.  A refusal computes no
    incidence at any other vertex and no crossing; a convex image computes
    both (`_cut`) at once, a non-convex one on first read."""
    _check_direction(eps, k)
    P.require_full_dim()
    m = P.ambient_dim
    if m != len(eps.cols):
        raise TropicalError("polytope ambient dimension does not match column count")
    ki, row = eps.col_index(k), eps.row(k)
    vals = [hp[ki] for hp in P.hverts]  # the vertex rows against the wall u_k = 0
    p = {s: _side(row, s) + (0,) for s in (1, -1)}  # the 0 keeps the homogenizing coordinate
    ia, ib = ([i for i, v in enumerate(vals) if s * v > 0] for s in (1, -1))
    if not (ia and ib):
        s = 1 if ia else -1
        img = [_trop(p[s], ki, hp) for hp in P.hverts]
        return TropImage(True, RationalPolytope(img, m, m, [_facet(_map_facet(f.row, p[s], ki)) for f in P.facets]))
    ra = (_map_facet(f.row, p[1], ki) for f in _held(P, ia))
    vb = [_trop(p[-1], ki, P.hverts[i]) for i in ib]

    def cut():  # the rows of P and the crossings, which the maps fix, mapped; the pieces; their facet rows mapped
        hpts, cvals, pieces = _cut(P, tuple(int(i == ki) for i in range(m)) + (0,))  # the wall's row e_k
        rows = [[_map_facet(f.row, p[s], ki) for f in fs] for s, (_, fs) in zip((1, -1), pieces)]
        return [_trop(p[1 if v >= 0 else -1], ki, hp) for hp, v in zip(hpts, cvals)], pieces, rows

    if all(sum(map(mul, r, u)) >= 0 for r in ra for u in vb):
        img, _, (ra, rb) = cut()
        facets = [_facet(r) for r in set(ra + rb)]
        keep = _keep(_tight_sets(facets, img), m)
        return TropImage(True, RationalPolytope([u for u, kept in zip(img, keep) if kept], m, m, facets))

    def build():
        img, pieces, rows = cut()
        # the piece on side s maps into -s u_k >= 0
        walls = [tuple(-s * int(i == ki) for i in range(m)) + (0,) for s in (1, -1)]
        return [RationalPolytope([img[i] for i in idx], m, m, [_facet(r) for r in rs + [w]])
                for (idx, _), rs, w in zip(pieces, rows, walls)]

    def within(ci):
        # each piece's image is the hull of its side's vertices of P, mapped, and the crossings, points
        # of P that both maps fix: where P lies in u_c >= 0, the mapped vertices decide alone
        if any(hp[ci] < 0 for hp in P.hverts):
            return all(hp[ci] >= 0 for hp in cut()[0])
        return all(_trop(p[1 if v >= 0 else -1], ki, hp)[ci] >= 0 for hp, v in zip(P.hverts, vals))

    return TropImage._deferred(build, within)


def _map_facet(row, p, ki: int) -> tuple[int, ...]:
    """The facet row (a, num) of a polytope in s u_k >= 0 under `_trop(p, ki, .)`,
    as (a', num) with a'_k = <a, p> - a_k (p's homogenizing 0 drops num): still
    primitive, since p_k = 0 and the map is unimodular."""
    return row[:ki] + (sum(map(mul, row, p)) - row[ki],) + row[ki + 1:]


@dataclass(frozen=True)
class CenterReport:
    """Fixedness of a point under every mutable tropical direction."""

    fixed: bool
    violations: tuple[tuple[int, Q], ...]  # (direction, offending coordinate)


def center_fixedness(eps: ExtendedExchangeMatrix, u0) -> CenterReport:
    """True iff u0 has coordinate 0 at every mutable label; cross-checked in each direction by
    `_trop` on u0's integer homogeneous coordinates, which the map fixes iff it fixes u0."""
    u0 = qvec(u0)
    if len(u0) != len(eps.cols):
        raise TropicalError("point dimension does not match column count")
    hu = _homog(u0, len(u0))
    violations = []
    for k in eps.mutable:
        coord = u0[eps.col_index(k)]
        fixed_direct = _trop(_side(eps.row(k), 1 if coord >= 0 else -1) + (0,), eps.col_index(k), hu) == hu
        if fixed_direct != (coord == 0):
            raise AssertionError("fixed-point check disagrees with coordinate test")
        if coord != 0:
            violations.append((k, coord))
    return CenterReport(not violations, tuple(violations))


@dataclass(frozen=True)
class PreservationReport:
    """QGF data before and after one convex tropical mutation."""

    initial: QGFCertificate
    image: RationalPolytope
    mutated: QGFCertificate


def qgf_preservation_check(eps: ExtendedExchangeMatrix, k: int, P: RationalPolytope) -> PreservationReport:
    """Check that a QGF polytope with tropical-fixed center stays QGF of the
    same size and center, which `center_fixedness` checks the map fixes.
    Each precondition failure is raised individually as PreconditionError."""
    cert, msg = qgf_solve(P)
    if cert is None:
        raise PreconditionError("qgf", msg)
    rep = center_fixedness(eps, cert.center)
    if not rep.fixed:
        raise PreconditionError("center_fixed", f"violations at {rep.violations}")
    image = trop_mutate_polytope(eps, k, P)
    if not image.convex:
        raise PreconditionError("convex_image", "tropical image is not convex")
    cert2, msg2 = qgf_solve(image.polytope)
    if cert2 is None:
        raise PreconditionError("mutated_qgf", msg2)
    if cert2.size != cert.size or cert2.center != cert.center:
        raise AssertionError(
            f"QGF data not preserved: size {cert.size}->{cert2.size}, center {cert.center}->{cert2.center}"
        )
    return PreservationReport(cert, image.polytope, cert2)


@dataclass(frozen=True)
class SupportCheck:
    holds: bool
    witness: Point | None

    def __bool__(self):
        return self.holds


def supporting_halfspace_lemma(
    eps: ExtendedExchangeMatrix, r: int, s: int, P: RationalPolytope
) -> SupportCheck:
    """Verify that {u_s - eps_{r,s} u_r >= 0} supports P, under the stated
    preconditions (origin inside, P and its r-mutation inside {u_s >= 0},
    eps_{r,s} <= 0).  Returns the exact tightness witness."""
    _check_direction(eps, r)
    n = len(eps.cols)
    si = eps.col_index(s)
    ri = eps.col_index(r)
    origin = tuple(Q(0) for _ in range(n))
    if not P.contains(origin):
        raise PreconditionError("origin", "0 not in the polytope")
    if not all(hp[si] >= 0 for hp in P.hverts):
        raise PreconditionError("halfspace", f"polytope not contained in u_{s} >= 0")
    entry = eps.entry(r, s)
    if entry > 0:
        raise PreconditionError("entry_sign", f"eps_({r},{s}) = {entry} > 0")
    image = trop_mutate_polytope(eps, r, P)
    if not image.in_halfspace(si):
        raise PreconditionError("image_halfspace", f"mutated polytope not contained in u_{s} >= 0")
    support = [int(i == si) - entry * int(i == ri) for i in range(n)] + [0]  # the row of u_s - entry u_r >= 0
    vals = [sum(map(mul, support, hp)) for hp in P.hverts]
    if min(vals) < 0:
        return SupportCheck(False, None)
    return SupportCheck(True, P.vertices[vals.index(0)] if 0 in vals else origin)


# ---------------------------------------------------------------------------
# Families and the distinguishing certificate


@dataclass(frozen=True)
class Stage:
    seq: tuple[int, ...]
    r: int
    s: int


@dataclass(frozen=True)
class FamilySpec:
    """Initial matrix and polytope plus nested mutation stages, each naming a
    (row, column) pair to monitor."""

    matrix: ExtendedExchangeMatrix
    polytope: RationalPolytope
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if self.polytope.ambient_dim != len(self.matrix.cols):
            raise TropicalError("polytope dimension does not match matrix columns")
        prev: tuple[int, ...] = ()
        for st in self.stages:
            for what, x in (("r", st.r), ("s", st.s), *(("seq entry", k) for k in st.seq)):
                if type(x) is not int:
                    raise TropicalError(f"stage {what} {x!r} is not an integer")
            if st.seq[: len(prev)] != prev:
                raise TropicalError(f"stage sequence {st.seq} does not extend {prev}")
            prev = st.seq
            if st.r in self.matrix.frozen:
                raise TropicalError(f"stage pair row {st.r} is frozen")
            if st.r not in self.matrix.cols:
                raise TropicalError(f"stage pair row {st.r} unknown")
            if st.s not in self.matrix.cols:
                raise TropicalError(f"stage pair column {st.s} unknown")
            for k in st.seq:
                if k in self.matrix.frozen:
                    raise TropicalError(f"stage sequence mutates frozen label {k}")
                if k not in self.matrix.cols:
                    raise TropicalError(f"stage sequence mutates unknown label {k}")


@dataclass(frozen=True)
class StageRecord:
    """Per-stage certificate data; a stage whose replay was blocked keeps only
    its pair and a note, every check reading False."""

    seq: tuple[int, ...]
    r: int
    s: int
    entry: int | None = None
    entry_nonpositive: bool = False
    cond_polytope: bool = False
    cond_image: bool = False
    qgf_ok: bool = False
    size_ok: bool = False
    center_ok: bool = False
    a_s: Q | None = None
    q: int | None = None
    lower_bound: int | None = None
    segment_count: int | None = None
    dual_count: int | None = None
    valid: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DistinguishCertificate:
    """Machine-checked record of the infinitely-many-tori criterion at desk scale.

    Global flags cover the initial polytope; each stage record carries the
    monitored matrix entry, both half-space conditions, and the verified dual
    lattice count against the 1 - entry lower bound."""

    origin_ok: bool
    initial_qgf: bool
    center: Point | None
    size: int | None
    center_fixed: bool
    q: int | None
    stages: tuple[StageRecord, ...]
    counts_strictly_increasing: bool
    pairwise_distinct: bool
    notes: tuple[str, ...]

    @property
    def all_stages_valid(self) -> bool:
        return all(st.valid for st in self.stages)


# a stage counts its dual's points only if the product over J of q (max - min) // t + 1,
# max and min over column J of the dual's vertex rows (t u, t), is at most this cap: an
# upper bound on the points of (1/q)Z^J in the dual's bounding box, each factor exceeding
# them by at most one ([1/3, 2/3] at q = 1 gives 1 and holds none)
ENUMERATION_CAP = 2_000_000


def distinguish_certificate(family: FamilySpec) -> DistinguishCertificate:
    """Replay the family and certify the distinguishing criterion stage by stage.

    Each stage replays its sequence from the family's matrix and polytope
    through the run's caches of `trop_mutate_polytope` and `qgf_solve`.  A
    non-convex image blocks its stage; every later stage extends that prefix,
    meets the same cached image and gets the same note.  Each reached stage
    is certified by `_certify_stage`.
    """
    eps = family.matrix
    P = family.polytope
    mutate, solve = functools.cache(trop_mutate_polytope), functools.cache(qgf_solve)
    notes: list[str] = []
    origin_ok = P.contains(tuple(Q(0) for _ in eps.cols))
    cert, msg = solve(P)
    initial_qgf = cert is not None
    center = cert.center if cert else None
    size = cert.size if cert else None
    if not initial_qgf:
        notes.append(f"initial polytope not QGF: {msg}")
    center_fixed = False
    if cert:
        rep = center_fixedness(eps, cert.center)
        center_fixed = rep.fixed
        if not rep.fixed:
            notes.append(f"center not tropical-fixed: violations {rep.violations}")

    records: list[StageRecord] = []
    for st in family.stages:
        cur_eps, cur_P = eps, P
        for i, k in enumerate(st.seq):
            img = mutate(cur_eps, k, cur_P)
            if not img.convex:
                note = f"replay blocked: non-convex tropical image at direction {k} after {st.seq[:i]}"
                records.append(StageRecord(st.seq, st.r, st.s, notes=(note,)))
                break
            cur_eps, cur_P = cur_eps.mutate(k), img.polytope
        else:
            records.append(_certify_stage(st, cur_eps, cur_P, cert, mutate, solve, origin_ok and center_fixed))

    qs = {rec.q for rec in records if rec.q is not None}
    global_q = qs.pop() if len(qs) == 1 else None
    if global_q is None and records:
        notes.append("stages do not share a single q; counts are not comparable")
    counts = [rec.dual_count for rec in records]
    increasing = (
        bool(records)
        and all(rec.valid for rec in records)
        and global_q is not None
        and all(a is not None and b is not None and a < b for a, b in zip(counts, counts[1:]))
    )
    distinct = increasing and origin_ok and initial_qgf and center_fixed
    return DistinguishCertificate(
        origin_ok, initial_qgf, center, size, center_fixed, global_q,
        tuple(records), increasing, distinct, tuple(notes),
    )


def _certify_stage(
    st: Stage, eps: ExtendedExchangeMatrix, P: RationalPolytope, cert: QGFCertificate | None,
    mutate, solve, premises: bool = True,
) -> StageRecord:
    """Certify one replayed stage: eps and P are the matrix and polytope after
    st.seq, cert the initial polytope's QGF certificate (None if it has none),
    mutate and solve `trop_mutate_polytope` and `qgf_solve` or the run's caches of them,
    premises whether 0 lies in the initial polytope and its center is tropical-fixed.

    Records eps_{r,s}, checks both half-space conditions, computes q from
    size/a_s in lowest terms, verifies the dual lattice points along the
    monitored segment, and counts all dual points in (1/q)Z^J.  Failed
    conditions are noted; enumeration infeasibility is reported, never
    silently skipped.
    """
    notes: list[str] = []
    entry = eps.entry(st.r, st.s)
    entry_np = entry <= 0
    if not entry_np:
        notes.append(f"entry {entry} is positive; lower bound not applicable")
    si = eps.col_index(st.s)
    cond2 = all(hp[si] >= 0 for hp in P.hverts)
    cond3 = mutate(eps, st.r, P).in_halfspace(si)
    if not cond2:
        notes.append(f"polytope leaves the half-space u_{st.s} >= 0")
    if not cond3:
        notes.append(f"mutated polytope leaves the half-space u_{st.s} >= 0")

    scert, smsg = solve(P)
    qgf_ok = scert is not None
    size_ok = bool(scert and cert and scert.size == cert.size)
    center_ok = bool(scert and cert and scert.center == cert.center)
    if not qgf_ok:
        notes.append(f"stage polytope not QGF: {smsg}")
    checks = (entry, entry_np, cond2, cond3, qgf_ok, size_ok, center_ok)
    if not (scert and cert):
        return StageRecord(st.seq, st.r, st.s, *checks, notes=tuple(notes))
    if not size_ok:
        notes.append(f"size changed: {cert.size} -> {scert.size}")
    if not center_ok:
        notes.append(f"center moved: {cert.center} -> {scert.center}")
    a_s = cert.center[si]
    if a_s == 0:
        notes.append(f"a_s = <u0, e_{st.s}> is zero; segment scaling undefined")
        return StageRecord(st.seq, st.r, st.s, *checks, a_s, notes=tuple(notes))

    frac = Q(cert.size) / a_s
    p_num, q = frac.numerator, frac.denominator
    lower = 1 - min(entry, 0)
    # point j is k/q, k = p e_s + sign j e_r: in the dual iff <a, k> + q num >= 0 on every row (a, num)
    count_on_seg = abs(p_num) * abs(min(entry, 0))
    sign = 1 if p_num >= 0 else -1
    ri = eps.col_index(st.r)
    rows = [(f.row[si] * p_num + q * f.row[-1], sign * f.row[ri]) for f in scert.dual.facets]
    seg_count = sum(all(b + j * c >= 0 for b, c in rows) for j in range(count_on_seg + 1))
    if seg_count < count_on_seg + 1:
        notes.append(f"only {seg_count}/{count_on_seg + 1} segment points inside the dual")
    *cols, (t, *_) = zip(*scert.dual.hverts)
    cells = math.prod(q * (max(col) - min(col)) // t + 1 for col in cols)
    dual_count = None
    if cells > ENUMERATION_CAP:
        notes.append(f"dual enumeration infeasible: {cells} candidate cells exceed cap {ENUMERATION_CAP}")
    else:
        dual_count = len(lattice_points(scert.dual, q))
    conditions_hold = entry_np and cond2 and cond3 and qgf_ok and size_ok and center_ok
    if premises and conditions_hold and seg_count < lower:
        # with every precondition of the lemma satisfied the dual provably
        # contains the whole segment; a miss here is an implementation bug
        raise AssertionError(
            f"segment verification failed on a condition-satisfying stage: {seg_count} < {lower}"
        )
    valid = conditions_hold and dual_count is not None and seg_count >= lower and dual_count >= lower
    return StageRecord(
        st.seq, st.r, st.s, *checks, a_s, q, lower, seg_count, dual_count, valid, tuple(notes)
    )
