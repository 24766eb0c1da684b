"""JSON (de)serialization for matrices, quivers, polytopes, families, certificates.

Formats:
  matrix    {"cols": [labels], "frozen": [labels], "d": [ints], "rows": {"label": [ints]}}
  polytope  {"vertices": [["p/q", ...], ...]}
  family    {"matrix": ..., "polytope": ..., "stages": [{"seq": [...], "r": k, "s": k}]}

Rationals serialize as "p/q" strings (plain "p" for integers); all writers are
deterministic so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction as Q

from .mutation import ExtendedExchangeMatrix, Quiver, exchange_matrix
from .polytopes import RationalPolytope, hull
from .tropical import DistinguishCertificate, FamilySpec, Stage, StageRecord


class FormatError(ValueError):
    pass


def _need(obj: dict, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"missing field {key!r}")
    return obj[key]


def _array(obj: dict, key: str) -> list:
    """A list field: a JSON string is not read as a list of its characters."""
    val = _need(obj, key)
    if not isinstance(val, list):
        raise FormatError(f"field {key!r} must be a JSON array")
    return val


def _int(x) -> int:
    """A JSON integer or integer string; int() would truncate a float or read a bool."""
    if isinstance(x, (bool, float)):
        raise FormatError(f"integer field holds {json.dumps(x)}")
    return int(x)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- rationals --------------------------------------------------------------


def rat_to_str(x) -> str:
    return str(Q(x))


def rat_from_str(s) -> Q:
    try:
        return Q(str(s))
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse rational {s!r}") from None


# -- matrices ---------------------------------------------------------------


def matrix_to_obj(eps: ExtendedExchangeMatrix) -> dict:
    return {
        "cols": list(eps.cols),
        "frozen": sorted(eps.frozen),
        "d": list(eps.d),
        "rows": {str(r): list(row) for r, row in zip(eps.mutable, eps.rows)},
    }


def matrix_from_obj(obj: dict) -> ExtendedExchangeMatrix:
    try:
        cols = [_int(c) for c in _array(obj, "cols")]
        frozen = [_int(c) for c in _array(obj, "frozen")]
        d = [_int(x) for x in _array(obj, "d")]
        rows = _need(obj, "rows")
        rows_map = {int(k): [_int(x) for x in _array(rows, k)] for k in rows.keys()}
    except FormatError:
        raise
    except (TypeError, ValueError, AttributeError):
        raise FormatError("malformed matrix object") from None
    mutable = [c for c in cols if c not in set(frozen)]
    if set(rows_map) != set(mutable):
        raise FormatError(f"rows keys {sorted(rows_map)} do not match mutable labels {mutable}")
    rows = [rows_map[r] for r in mutable]
    return exchange_matrix(cols, frozen, d, rows)


# -- quivers ----------------------------------------------------------------


def quiver_to_obj(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "frozen": sorted(q.frozen),
        "arrows": [list(a) for a in q.arrows],
        "frozen_entries": [list(t) for t in q.frozen_entries],
    }


# -- polytopes ---------------------------------------------------------------


def polytope_to_obj(P: RationalPolytope) -> dict:
    return {"vertices": [[rat_to_str(x) for x in v] for v in P.vertices]}


def polytope_from_obj(obj: dict) -> RationalPolytope:
    verts = _array(obj, "vertices")
    if not verts:
        raise FormatError("polytope needs a nonempty vertex list")
    if not all(isinstance(v, list) and v for v in verts):
        raise FormatError("polytope vertices must be JSON arrays of at least one coordinate")
    pts = [tuple(rat_from_str(x) for x in v) for v in verts]
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise FormatError("polytope vertices of mixed dimension")
    return hull(pts)


# -- families and certificates ----------------------------------------------


def family_to_obj(f: FamilySpec) -> dict:
    return {
        "matrix": matrix_to_obj(f.matrix),
        "polytope": polytope_to_obj(f.polytope),
        "stages": [{"seq": list(st.seq), "r": st.r, "s": st.s} for st in f.stages],
    }


def family_from_obj(obj: dict) -> FamilySpec:
    eps = matrix_from_obj(_need(obj, "matrix"))
    P = polytope_from_obj(_need(obj, "polytope"))
    stages = []
    for raw in _array(obj, "stages"):
        try:
            stages.append(Stage(tuple(map(_int, _array(raw, "seq"))), _int(_need(raw, "r")), _int(_need(raw, "s"))))
        except (TypeError, ValueError):
            raise FormatError("malformed stage entry") from None
    return FamilySpec(eps, P, tuple(stages))


# certificate fields whose JSON key is not the field name
_CERT_KEYS = {
    "origin_ok": "origin_in_polytope",
    "cond_polytope": "polytope_in_halfspace",
    "cond_image": "image_in_halfspace",
    "qgf_ok": "qgf",
    "size_ok": "size_preserved",
    "center_ok": "center_preserved",
}


def _cert_value(x):
    if isinstance(x, Q):
        return rat_to_str(x)
    if isinstance(x, tuple):
        return [_cert_value(y) for y in x]
    if isinstance(x, StageRecord):
        return certificate_to_obj(x)
    return x


def certificate_to_obj(c: DistinguishCertificate | StageRecord) -> dict:
    """One key per dataclass field (renamed by _CERT_KEYS); stage records nest."""
    return {_CERT_KEYS.get(f.name, f.name): _cert_value(getattr(c, f.name)) for f in fields(c)}
