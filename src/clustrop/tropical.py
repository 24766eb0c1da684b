"""Tropicalized cluster mutations on points and polytopes, plus the
distinguishing-certificate pipeline built on them.

The tropical map in direction k fixes the hyperplane u_k = 0 and acts by one
unimodular integer map on each side.  One point map (`_trop`) serves points
and the integer homogeneous coordinates of polytope vertices.  A polytope's
image is read off its cut by the wall (`polytopes._cut`), and its convexity
is decided by sign tests on the mapped facets' integer rows, so no hull or
double description runs here.  A non-convex image's half-spaces and piece
polytopes are built when a caller first reads them (`TropImage`), so a
caller that stops at the convexity flag builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul

# mat_inverse is unused here; bench/spans.py wraps tropical.mat_inverse by name
from .linalg import mat_inverse, qvec  # noqa: F401
from .mutation import ExtendedExchangeMatrix, FrozenIndexError
from .polytopes import (
    HalfSpace,
    Point,
    QGFCertificate,
    RationalPolytope,
    _cut,
    _homog,
    _keep,
    _polytope,
    _tight_sets,
    crossing_points,  # noqa: F401  unused here; bench/spans.py wraps tropical.crossing_points by name
    halfspace,
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
    return _trop(eps.row(k), eps.col_index(k), u)


def _pos(x):
    return x if x > 0 else 0


def _trop(row, ki: int, u) -> Point:
    """The point map of exchange row `row` at column ki, also on integer
    homogeneous coordinates with `row` extended by a 0; the negated row gives
    its inverse."""
    uk = u[ki]
    sign = 1 if uk >= 0 else -1
    out = [uj + _pos(sign * e) * uk for uj, e in zip(u, row)]
    out[ki] = -uk
    return tuple(out)


# ---------------------------------------------------------------------------
# Polytope mutation


_PIECES = ("plus_image", "minus_image")


@dataclass(frozen=True, init=False)
class TropImage:
    """Image of a polytope under one tropical mutation.

    convex=True carries only the image polytope; otherwise both piece images
    are returned so callers can refuse explicitly.  A non-convex image made
    by `trop_mutate_polytope` builds its pieces when one is first read
    (directly, by `piece_vertices`, equality, hash or repr), then keeps them,
    so a caller that stops at `convex` builds nothing; its `polytope` is None
    at once."""

    convex: bool
    polytope: RationalPolytope | None
    plus_image: RationalPolytope | None
    minus_image: RationalPolytope | None

    def __init__(self, convex, polytope=None, plus_image=None, minus_image=None):
        self.__dict__.update(convex=convex, polytope=polytope, plus_image=plus_image, minus_image=minus_image)

    @classmethod
    def _deferred(cls, build) -> TropImage:
        """A non-convex image whose pieces build() = (plus_image, minus_image) makes on first read."""
        img = cls.__new__(cls)
        img.__dict__.update(convex=False, polytope=None, _build=build)
        return img

    def __getattr__(self, name):
        # reached only when normal lookup fails, so a built piece is read at no extra cost
        build = self.__dict__.get("_build")
        if build is None or name not in _PIECES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(zip(_PIECES, build()))
        del self.__dict__["_build"]
        return self.__dict__[name]

    def piece_vertices(self):
        if self.convex:
            return list(self.polytope.vertices)
        return [v for p in (self.plus_image, self.minus_image) for v in p.vertices]


def trop_mutate_polytope(eps: ExtendedExchangeMatrix, k: int, P: RationalPolytope) -> TropImage:
    """Image of P under the tropical map in direction k, one unimodular integer
    map on each closed half s u_k >= 0 (s = ±1): P maps whole, or each piece
    of `_cut(P, wall)` maps with its facets and the wall.  The union of the
    images is convex iff each satisfies the other's non-wall facets, which are
    then the hull's; if not, both piece images are returned, convex False.
    Convexity is read off the mapped facets' integer rows; a convex image,
    which every caller reads, is built at once, a non-convex one on first
    read (`TropImage`)."""
    _check_direction(eps, k)
    P.require_full_dim()
    m = P.ambient_dim
    if m != len(eps.cols):
        raise TropicalError("polytope ambient dimension does not match column count")
    ki, row = eps.col_index(k), eps.row(k)
    wall = halfspace([int(i == ki) for i in range(m)], 0)
    hpts, vals, pieces = _cut(P, wall)
    # crossings lie on the wall, which the map fixes; the 0 keeps the homogenizing coordinate
    img = [_trop(row + (0,), ki, hp) for hp in hpts]
    if pieces is None:
        s = 1 if max(vals) > 0 else -1
        return TropImage(True, _polytope(m, img, [HalfSpace(*_map_facet(f, row, s, ki)) for f in P.facets]))
    (va, fa), (vb, fb) = (
        ([img[i] for i in idx], [_map_facet(f, row, s, ki) for f in fs]) for (idx, fs), s in zip(pieces, (1, -1))
    )
    # the row of HalfSpace(n, b) is (den n, num) for b = num/den, read here as <n, .> den + num
    ra, rb = ([(n, b.denominator, b.numerator) for n, b in fs] for fs in (fa, fb))
    if all(sum(map(mul, n, u)) * d + c * u[m] >= 0 for rs, vs in ((ra, vb), (rb, va)) for n, d, c in rs for u in vs):
        facets = [HalfSpace(n, b) for n, b in set(fa + fb)]
        keep = _keep(_tight_sets(facets, img), m)
        return TropImage(True, _polytope(m, [u for u, kept in zip(img, keep) if kept], facets))

    def build():
        # the piece on side s maps into -s u_k >= 0
        walls = (HalfSpace(tuple(-x for x in wall.normal), 0), wall)
        return [
            _polytope(m, vs, [HalfSpace(n, b) for n, b in fs] + [w]) for vs, fs, w in zip((va, vb), (fa, fb), walls)
        ]

    return TropImage._deferred(build)


def _map_facet(f: HalfSpace, row, s: int, ki: int) -> tuple[tuple[int, ...], Q]:
    """The facet (n, b) of a polytope in s u_k >= 0 under the map u_k -> -u_k,
    u_j -> u_j + p_j u_k (p = [s row]_+, p_k = 0), as (n', b) with
    n'_k = <n, p> - n_k: primitive and never zero, since the map is unimodular."""
    n = f.normal
    return n[:ki] + (sum(x * _pos(s * e) for x, e in zip(n, row)) - n[ki],) + n[ki + 1:], f.offset


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
        fixed_direct = _trop(eps.row(k) + (0,), eps.col_index(k), hu) == hu
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
    same size with the mutated center.  Each precondition failure is raised
    individually as PreconditionError."""
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
    expected_center = trop_mutate_point(eps, k, cert.center)
    if cert2.size != cert.size or cert2.center != expected_center:
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
    if not all(v[si] >= 0 for v in P.vertices):
        raise PreconditionError("halfspace", f"polytope not contained in u_{s} >= 0")
    entry = eps.entry(r, s)
    if entry > 0:
        raise PreconditionError("entry_sign", f"eps_({r},{s}) = {entry} > 0")
    image = trop_mutate_polytope(eps, r, P)
    if not all(v[si] >= 0 for v in image.piece_vertices()):
        raise PreconditionError("image_halfspace", f"mutated polytope not contained in u_{s} >= 0")
    support = halfspace([-entry if i == ri else int(i == si) for i in range(n)], 0)
    holds = all(map(support.contains, P.vertices))
    witness = None
    if holds:
        witness = next((v for v in P.vertices if support.on_boundary(v)), origin)
    return SupportCheck(holds, witness)


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


# a stage counts its dual's points only if the product over J of int((hi - lo) * q) + 1,
# [lo, hi] the dual's bounding box, is at most this cap: an upper bound on the box's
# points of (1/q)Z^J, each factor exceeding them by at most one ([1/3, 2/3] at q = 1
# gives 1 and holds none)
ENUMERATION_CAP = 2_000_000


def distinguish_certificate(family: FamilySpec) -> DistinguishCertificate:
    """Replay the family and certify the distinguishing criterion stage by stage.

    Stages are replayed by tropical mutation of the polytope; a non-convex
    image blocks that stage and every later one.  Each reached stage is
    certified by `_certify_stage`, which reuses the initial QGF solve and
    the replay's images where the polytope is the same.
    """
    eps = family.matrix
    P = family.polytope
    notes: list[str] = []
    origin_ok = P.contains(tuple(Q(0) for _ in eps.cols))
    cert, msg = qgf_solve(P)
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
    cur_eps, cur_P = eps, P
    images: dict[int, TropImage] = {}  # direction -> image of cur_P under cur_eps
    done: tuple[int, ...] = ()
    blocked: str | None = None
    for st in family.stages:
        if blocked is None:
            for k in st.seq[len(done):]:
                img = images[k] if k in images else trop_mutate_polytope(cur_eps, k, cur_P)
                if not img.convex:
                    blocked = f"non-convex tropical image at direction {k} after {done}"
                    break
                cur_P = img.polytope
                cur_eps = cur_eps.mutate(k)
                done = done + (k,)
                images = {}
        if blocked is None:
            solved = (cert, msg) if cur_P is P else None
            records.append(_certify_stage(st, cur_eps, cur_P, cert, solved, images))
        else:
            records.append(StageRecord(st.seq, st.r, st.s, notes=(f"replay blocked: {blocked}",)))

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
    solved: tuple | None, images: dict[int, TropImage],
) -> StageRecord:
    """Certify one replayed stage: eps and P are the matrix and polytope after
    st.seq, cert the initial polytope's QGF certificate (None if it has none),
    solved qgf_solve(P) if known, images a direction -> image memo for (eps, P).

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
    cond2 = all(v[si] >= 0 for v in P.vertices)
    if st.r not in images:
        images[st.r] = trop_mutate_polytope(eps, st.r, P)
    img = images[st.r]
    cond3 = all(v[si] >= 0 for v in img.piece_vertices())
    if not cond2:
        notes.append(f"polytope leaves the half-space u_{st.s} >= 0")
    if not cond3:
        notes.append(f"mutated polytope leaves the half-space u_{st.s} >= 0")

    scert, smsg = solved or qgf_solve(P)
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
    cells = 1
    for lo, hi in scert.dual.bounding_box():
        cells *= int((hi - lo) * q) + 1
    dual_count = None
    if cells > ENUMERATION_CAP:
        notes.append(f"dual enumeration infeasible: {cells} candidate cells exceed cap {ENUMERATION_CAP}")
    else:
        dual_count = len(lattice_points(scert.dual, q))
    conditions_hold = entry_np and cond2 and cond3 and qgf_ok and size_ok and center_ok
    if conditions_hold and seg_count < lower:
        # with every condition satisfied the dual provably contains
        # the whole segment; a miss here is an implementation bug
        raise AssertionError(
            f"segment verification failed on a condition-satisfying stage: {seg_count} < {lower}"
        )
    valid = conditions_hold and dual_count is not None and seg_count >= lower and dual_count >= lower
    return StageRecord(
        st.seq, st.r, st.s, *checks, a_s, q, lower, seg_count, dual_count, valid, tuple(notes)
    )
