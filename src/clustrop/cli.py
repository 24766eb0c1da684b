"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 mathematical negative
(e.g. no certificate), 3 search stopped without a witness (budget spent or
beam emptied; never a nonexistence claim).  Outputs are deterministic:
identical inputs and budgets give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .fixture_suite import fixture_suite
from .glsseed import gls_exchange_matrix, gls_quiver
from .mutation import (
    MutationError,
    large_entry_search,
    mutation_class_bfs,
    to_quiver,
)
from .polytopes import (
    PolytopeError,
    halfspace,
    hull,
    lattice_points,
    polar_dual,
    qgf_solve,
    slice_polytope,
)
from .rootsys import CartanError, parse_cartan_type, parse_word
from .tropical import TropicalError, distinguish_certificate, trop_mutate_polytope

OK, USAGE, NEGATIVE, BUDGET = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file {path} is not valid JSON: {exc}") from None


def _emit(text: str, out: str | None):
    """Write text to stdout, or atomically to out: a temporary file beside it
    is written in full, then renamed over it."""
    if not out:
        sys.stdout.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".{os.path.basename(out)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_matrix(args):
    if getattr(args, "infile", None):
        return jsonio.matrix_from_obj(_read_json(args.infile, "matrix"))
    if getattr(args, "type", None) and getattr(args, "word", None):
        return gls_exchange_matrix(parse_cartan_type(args.type), parse_word(args.word))
    raise UsageError("need either --in or both --type and --word")


def _parse_labels(text: str, field: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError(f"field {field} must be a comma-separated integer list") from None


def cmd_seed(args):
    eps = gls_exchange_matrix(parse_cartan_type(args.type), parse_word(args.word))
    _emit(jsonio.dumps(jsonio.matrix_to_obj(eps)), args.out)
    return OK


def cmd_mutate(args):
    eps = _load_matrix(args)
    eps = eps.mutate_seq(_parse_labels(args.seq, "--seq"))
    _emit(jsonio.dumps(jsonio.matrix_to_obj(eps)), args.out)
    return OK


def cmd_restrict(args):
    eps = _load_matrix(args)
    eps = eps.restrict(_parse_labels(args.keep, "--keep"))
    _emit(jsonio.dumps(jsonio.matrix_to_obj(eps)), args.out)
    return OK


def cmd_quiver(args):
    if args.infile or not (args.type and args.word):
        q = to_quiver(_load_matrix(args))
    else:
        q = gls_quiver(parse_cartan_type(args.type), parse_word(args.word))
    _emit(jsonio.dumps(jsonio.quiver_to_obj(q)), args.out)
    return OK


def cmd_search_large_entry(args):
    eps = _load_matrix(args)
    wit = large_entry_search(eps, args.target, budget=args.budget, beam_width=args.beam)
    if wit is None:
        _emit(jsonio.dumps({"found": False, "budget": args.budget}), args.out)
        return BUDGET
    obj = {
        "found": True,
        "seq": list(wit.trace.seq),
        "r": wit.r,
        "s": wit.s,
        "value": wit.value,
        "matrix": jsonio.matrix_to_obj(wit.trace.result),
    }
    _emit(jsonio.dumps(obj), args.out)
    return OK


def cmd_class_bfs(args):
    eps = _load_matrix(args)
    res = mutation_class_bfs(eps, node_cap=args.node_cap, entry_cap=args.entry_cap)
    obj = {"status": res.status, "class_size": res.class_size}
    if res.trace is not None:
        obj["seq"] = list(res.trace.seq)
        obj["max_entry"] = res.trace.result.max_abs_entry()
    _emit(jsonio.dumps(obj), args.out)
    return BUDGET if res.status == "cap_exhausted" else OK


def _load_polytope(args):
    return jsonio.polytope_from_obj(_read_json(args.infile, "polytope"))


def cmd_polytope(args):
    if args.sub == "hull":
        P = _load_polytope(args)
        _emit(jsonio.dumps(jsonio.polytope_to_obj(P)), args.out)
        return OK
    if args.sub == "dual":
        _emit(jsonio.dumps(jsonio.polytope_to_obj(polar_dual(_load_polytope(args)))), args.out)
        return OK
    if args.sub == "qgf":
        cert, msg = qgf_solve(_load_polytope(args))
        if cert is None:
            _emit(jsonio.dumps({"certified": False, "reason": msg}), args.out)
            return NEGATIVE
        obj = {
            "certified": True,
            "center": [jsonio.rat_to_str(x) for x in cert.center],
            "size": cert.size,
            "dual_vertices": [list(v) for v in cert.dual_vertices],
            "dual": jsonio.polytope_to_obj(cert.dual),
        }
        _emit(jsonio.dumps(obj), args.out)
        return OK
    if args.sub == "lattice-points":
        pts = lattice_points(_load_polytope(args), args.q)
        obj = {"q": args.q, "count": len(pts), "points": [[jsonio.rat_to_str(x) for x in p] for p in pts]}
        _emit(jsonio.dumps(obj), args.out)
        return OK
    # "slice": argparse choices rule out any other subcommand
    P = _load_polytope(args)
    if not args.normal:
        raise UsageError("slice needs --normal (and optionally --offset)")
    normal = [jsonio.rat_from_str(x) for x in args.normal.split(",")]
    if len(normal) != P.ambient_dim:
        raise UsageError(f"slice --normal has {len(normal)} entries, polytope is in R^{P.ambient_dim}")
    if not any(normal):
        raise UsageError("slice --normal must be nonzero")
    h = halfspace(normal, jsonio.rat_from_str(args.offset))
    res = slice_polytope(P, h)
    obj = {
        "section": jsonio.polytope_to_obj(res.section) | {"dim": res.section.dim},
        "plus": jsonio.polytope_to_obj(res.plus) | {"dim": res.plus.dim},
        "minus": jsonio.polytope_to_obj(res.minus) | {"dim": res.minus.dim},
    }
    _emit(jsonio.dumps(obj), args.out)
    return OK


def cmd_trop_mutate(args):
    eps = jsonio.matrix_from_obj(_read_json(args.matrix, "matrix"))
    P = _load_polytope(args)
    img = trop_mutate_polytope(eps, args.k, P)
    if img.convex:
        obj = {"convex": True, "polytope": jsonio.polytope_to_obj(img.polytope)}
    else:
        obj = {
            "convex": False,
            "plus_image": jsonio.polytope_to_obj(img.plus_image),
            "minus_image": jsonio.polytope_to_obj(img.minus_image),
        }
    _emit(jsonio.dumps(obj), args.out)
    return OK if img.convex else NEGATIVE


def cmd_certify_distinct(args):
    fam = jsonio.family_from_obj(_read_json(args.family, "family"))
    cert = distinguish_certificate(fam)
    _emit(jsonio.dumps(jsonio.certificate_to_obj(cert)), args.out)
    return OK if cert.pairwise_distinct else NEGATIVE


def cmd_fixtures(args):
    results = fixture_suite()
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f": {r.detail}" if r.detail else ""))
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    _emit("\n".join(lines) + "\n", args.out)
    return OK if ok else NEGATIVE


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = _Parser(prog="clustrop", description="exact cluster mutation and tropical polytope toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_matrix_source(sp):
        sp.add_argument("--in", dest="infile", help="matrix JSON file")
        sp.add_argument("--type", help="Cartan type, e.g. C3")
        sp.add_argument("--word", help="comma-separated word letters")

    sp = sub.add_parser("seed", help="seed matrix of a reduced word")
    sp.add_argument("--type", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_seed)

    sp = sub.add_parser("mutate", help="apply a mutation sequence by column label")
    add_matrix_source(sp)
    sp.add_argument("--seq", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_mutate)

    sp = sub.add_parser("restrict", help="restrict to a label subset")
    add_matrix_source(sp)
    sp.add_argument("--keep", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_restrict)

    sp = sub.add_parser("quiver", help="arrow view of a skew-symmetric matrix")
    add_matrix_source(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_quiver)

    sp = sub.add_parser("search-large-entry", help="beam search for a large frozen-column entry")
    add_matrix_source(sp)
    sp.add_argument("--target", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int, default=20000)
    sp.add_argument("--beam", type=_positive_int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_search_large_entry)

    sp = sub.add_parser("class-bfs", help="exhaustive mutation-class enumeration")
    add_matrix_source(sp)
    sp.add_argument("--node-cap", type=_positive_int, default=10000)
    sp.add_argument("--entry-cap", type=_positive_int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_class_bfs)

    sp = sub.add_parser("polytope", help="polytope operations")
    sp.add_argument("sub", choices=["hull", "dual", "qgf", "lattice-points", "slice"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--q", type=_positive_int, default=1)
    sp.add_argument("--normal", help="hyperplane normal for slice, comma-separated (--normal=-1,0 if negative)")
    sp.add_argument("--offset", default="0", help="hyperplane offset for slice (--offset=-1/2 if negative)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_polytope)

    sp = sub.add_parser("trop-mutate", help="tropical mutation of a polytope")
    sp.add_argument("--in", dest="infile", required=True, help="polytope JSON file")
    sp.add_argument("--matrix", required=True, help="matrix JSON file")
    sp.add_argument("--k", type=int, required=True, help="mutation direction (column label)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_trop_mutate)

    sp = sub.add_parser("certify-distinct", help="distinguishing certificate for a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_certify_distinct)

    sp = sub.add_parser("fixtures", help="run the committed fixture suite")
    sp.add_argument("action", choices=["run"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except (jsonio.FormatError, CartanError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except (MutationError, PolytopeError, TropicalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
