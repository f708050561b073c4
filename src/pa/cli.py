"""Command-line front end.

Every subcommand prints either plain text or, with --json, a single JSON
document with a top-level "schema": "pa/1" field.  Exit codes: 0 success,
1 domain error (bad mathematical input, overflow), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cosetenum, cusplattice, dihedral, orbigraph, verify
from .quat import GroupOverflow, dihedral_degree, group_to_json
from .slopes import (
    Slope,
    canonical,
    components,
    continued_fraction,
    equivalence,
    hat,
    is_hyperbolic,
    parse_slope,
)

SCHEMA = "pa/1"


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad index {text!r}") from None


def _slope_arg(text: str) -> Slope:
    try:
        return parse_slope(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"need three integers, got {text!r}")
    try:
        p, q, r = (int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need three integers, got {text!r}") from None
    if min(p, q, r) < 1:
        raise argparse.ArgumentTypeError("triangle entries must be >= 1")
    return (p, q, r)


def _arrow(text: str) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    if "->" not in text:
        raise argparse.ArgumentTypeError(f"expected 'p q r -> p q r', got {text!r}")
    left, right = text.split("->", 1)
    return (_triple(left), _triple(right))


# ---------------------------------------------------------------------------
# link


def cmd_link_classify(args) -> int:
    r = args.slope
    payload = {
        "command": "link.classify",
        "slope": str(r),
        "components": components(r),
        # the infinite slope is the trivial 2-component link
        "hyperbolic": False if r.is_infinite else is_hyperbolic(r),
    }
    if not r.is_infinite:
        payload["canonical"] = str(canonical(r))
    lines = [
        f"K({r}): components={payload['components']} "
        f"hyperbolic={'true' if payload['hyperbolic'] else 'false'}"
    ]
    if "canonical" in payload:
        lines.append(f"canonical: {payload['canonical']}")
    _emit(args, payload, lines)
    return 0


def cmd_link_equiv(args) -> int:
    verdict = equivalence(args.slope, args.slope2)
    payload = {
        "command": "link.equiv",
        "slopes": [str(args.slope), str(args.slope2)],
        "preserving": verdict.preserving,
        "reversing": verdict.reversing,
        "bridge_swap": verdict.bridge_swap,
        "involution_class": verdict.involution_class,
    }
    lines = [
        f"K({args.slope}) vs K({args.slope2}):",
        f"  preserving={str(verdict.preserving).lower()}"
        f" reversing={str(verdict.reversing).lower()}"
        f" bridge_swap={str(verdict.bridge_swap).lower()}",
        f"  involution_class={verdict.involution_class}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_link_cf(args) -> int:
    terms = continued_fraction(args.slope)
    payload = {
        "command": "link.cf",
        "slope": str(args.slope),
        "terms": list(terms),
    }
    _emit(args, payload, [f"{args.slope} = [{', '.join(map(str, terms))}]"])
    return 0


def cmd_link_hat(args) -> int:
    r = hat(args.slope)
    payload = {"command": "link.hat", "slope": str(args.slope), "hat": str(r)}
    _emit(args, payload, [str(r)])
    return 0


# ---------------------------------------------------------------------------
# heckoid / dihedral / homology


def cmd_heckoid(args) -> int:
    desc = orbigraph.make_heckoid(args.slope, args.index)
    fam = desc.family
    index = fam.get("n", fam.get("m"))
    payload = {
        "command": "heckoid",
        "input_slope": str(args.slope),
        "index": str(args.index),
        "family": fam["tag"],
        "slope": fam["r"],
        "key": orbigraph.canonical_key(desc),
        "graph": orbigraph.graph_to_json(desc.graph),
        "family_params": {k: v for k, v in fam.items() if k != "tag"},
    }
    weights = " ".join(
        f"{e.id}:{orbigraph.weight_str(e.weight)}"
        for e in sorted(desc.graph.edges(), key=lambda e: e.id)
    )
    lines = [
        f"{fam['tag']}({fam['r']};{index})  [from K({args.slope}), n={args.index}]",
        f"key: {payload['key']}",
        f"edges: {weights}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_dihedral(args) -> int:
    r, d1, d2 = args.slope, args.d1, args.d2
    params, group, cert, tag, quotient = dihedral.orbifold(r, d1, d2)
    n = params.n
    desc = orbigraph.make_dihedral(r, d1, d2)
    payload = {
        "command": "dihedral",
        "slope": str(r),
        "d1": d1,
        "d2": d2,
        "k1": params.k1,
        "k2": params.k2,
        "order": len(group),
        "group": f"D{dihedral_degree(group)}",
        "isom": tag,
        "normalizer_order": 8 * n if quotient is not None else None,
        "quotient_order": len(quotient) if quotient is not None else None,
        "key": orbigraph.canonical_key(desc),
        "certificate": cert,
        "quotient_elements": group_to_json(quotient) if quotient is not None else None,
    }
    if dihedral.is_trivial_theta(r, d1, d2):
        payload["normalizer_order"] = 48
    lines = [
        f"O({r};{d1},{d2}): Gamma = {payload['group']}, order {len(group)}",
        f"k1={params.k1} k2={params.k2}",
        f"isometry group: {tag}",
    ]
    if payload["normalizer_order"] is not None:
        lines.append(
            f"normalizer order {payload['normalizer_order']}"
            + (
                f", quotient order {payload['quotient_order']}"
                if payload["quotient_order"] is not None
                else ""
            )
        )
    lines.append(f"key: {payload['key']}")
    _emit(args, payload, lines)
    return 0


def cmd_homology(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if "family" in obj:
        graph = orbigraph.descriptor_from_json(obj).graph
    else:
        graph = orbigraph.graph_from_json(obj)
    report = orbigraph.h1_z2(graph)
    payload = {
        "command": "homology",
        "dimension": report.dimension,
        "basis": list(report.basis),
        "meridian_class": {
            eid: list(vec) for eid, vec in sorted(report.meridian_class.items())
        },
    }
    lines = [
        f"dimension: {report.dimension}",
        f"basis: {', '.join(report.basis) if report.basis else '(none)'}",
    ]
    for eid, vec in sorted(report.meridian_class.items()):
        lines.append(f"  m({eid}) = ({','.join(map(str, vec))})")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# cusp / triangle


def _orbit_json(orbit) -> dict:
    return {
        "representative": [orbit.representative.m, orbit.representative.n],
        "coef2": orbit.coef2,
        "size": len(orbit.members),
        "word": orbit.word,
        "members": [[v.m, v.n] for v in orbit.members],
    }


def _orbit_line(orbit) -> str:
    rep = orbit.representative
    return (
        f"coef2={orbit.coef2} rep=({rep.m},{rep.n}) "
        f"size={len(orbit.members)} word={orbit.word}"
    )


def cmd_cusp(args) -> int:
    kind = cusplattice.lattice(args.kind).kind
    if args.brenner:
        orbits = cusplattice.brenner_candidates(kind)
        payload = {
            "command": "cusp.brenner",
            "kind": kind,
            "orbits": [_orbit_json(o) for o in orbits],
        }
        lines = [f"{kind}: {len(orbits)} candidate orbit(s) below the 2*L1 cutoff"]
        lines += ["  " + _orbit_line(o) for o in orbits]
        _emit(args, payload, lines)
        return 0
    spec = cusplattice.spectrum(kind, args.count)
    payload = {
        "command": "cusp.spectrum",
        "kind": kind,
        "spectrum": [
            {"coef2": value, "orbits": [_orbit_json(o) for o in orbits]}
            for value, orbits in spec
        ],
    }
    lines = [f"{kind} squared-length spectrum (units of l^2):"]
    for value, orbits in spec:
        lines.append(f"  L^2 = {value}: {len(orbits)} orbit(s)")
        lines += ["    " + _orbit_line(o) for o in orbits]
    _emit(args, payload, lines)
    return 0


def cmd_triangle_order(args) -> int:
    order = cosetenum.image_order(args.word, args.type)
    payload = {
        "command": "triangle.order",
        "type": list(args.type),
        "word": args.word,
        "order": order,
    }
    _emit(args, payload, [f"|{args.word}| = {order} in T{args.type}"])
    return 0


def cmd_triangle_image(args) -> int:
    src, dst = args.map
    order = cosetenum.image_order(args.word, src, dst)
    payload = {
        "command": "triangle.image",
        "source": list(src),
        "target": list(dst),
        "word": args.word,
        "order": order,
    }
    _emit(
        args,
        payload,
        [f"|{args.word}| = {order} under T{src} -> T{dst}"],
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.all:
        selector = None
    elif args.checks:
        unknown = sorted(set(args.checks) - set(verify.CHECKS))
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(unknown)}")
        selector = args.checks
    else:
        raise UsageError("verify needs --all or at least one check id")
    results = verify.run_checks(selector)
    payload = {
        "command": "verify",
        "checks": [
            {
                "id": res.check_id,
                "criterion": res.criterion,
                "anchor": res.anchor,
                "status": res.status,
                "witness": res.witness,
            }
            for res in results
        ],
        "passed": sum(res.ok for res in results),
        "failed": sum(not res.ok for res in results),
    }
    lines = []
    for res in results:
        lines.append(
            f"{'PASS' if res.ok else 'FAIL'}  {res.check_id}  "
            f"(criterion {res.criterion}) {res.anchor}"
        )
        if not res.ok:
            lines.append(f"      witness: {res.witness}")
    lines.append(f"{payload['passed']}/{len(results)} checks passed")
    _emit(args, payload, lines)
    return 0 if payload["failed"] == 0 else 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pa",
        description="Exact arithmetic for 2-bridge slopes, Heckoid graphs, "
        "dihedral orbifold groups, rigid-cusp lattices and triangle groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="2-bridge link slope arithmetic")
    linksub = link.add_subparsers(dest="subcommand", required=True)
    p = linksub.add_parser("classify", parents=[common])
    p.add_argument("slope", type=_slope_arg)
    p.set_defaults(func=cmd_link_classify)
    p = linksub.add_parser("equiv", parents=[common])
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("slope2", type=_slope_arg)
    p.set_defaults(func=cmd_link_equiv)
    p = linksub.add_parser("cf", parents=[common])
    p.add_argument("slope", type=_slope_arg)
    p.set_defaults(func=cmd_link_cf)
    p = linksub.add_parser("hat", parents=[common])
    p.add_argument("slope", type=_slope_arg)
    p.set_defaults(func=cmd_link_hat)

    p = sub.add_parser("heckoid", parents=[common], help="Heckoid orbifold graph")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("index", type=_fraction, help="half-integer index n (2n >= 3)")
    p.set_defaults(func=cmd_heckoid)

    p = sub.add_parser(
        "dihedral", parents=[common], help="dihedral orbifold group and isometries"
    )
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.set_defaults(func=cmd_dihedral)

    p = sub.add_parser("cusp", parents=[common], help="rigid-cusp lattice spectra")
    p.add_argument("kind", choices=["244", "236", "T244", "T236"])
    p.add_argument("--count", type=int, default=3, help="spectrum length")
    p.add_argument(
        "--brenner",
        action="store_true",
        help="list only orbits short enough to generate a parabolic pair",
    )
    p.set_defaults(func=cmd_cusp)

    tri = sub.add_parser("triangle", help="triangle-group word orders")
    trisub = tri.add_subparsers(dest="subcommand", required=True)
    p = trisub.add_parser("order", parents=[common])
    p.add_argument("type", type=_triple, help='spherical type, e.g. "2 3 3"')
    p.add_argument("word", help="word over a,b,c (A,B,C inverses, digits repeat)")
    p.set_defaults(func=cmd_triangle_order)
    p = trisub.add_parser("image", parents=[common])
    p.add_argument("map", type=_arrow, help='e.g. "2 4 4 -> 2 2 4"')
    p.add_argument("word")
    p.set_defaults(func=cmd_triangle_image)

    p = sub.add_parser(
        "homology", parents=[common], help="Z2 homology of a graph orbifold JSON file"
    )
    p.add_argument("path")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify", parents=[common], help="run the verification checks")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("checks", nargs="*", metavar="check-id")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage/help already
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (
        ValueError,
        ArithmeticError,
        GroupOverflow,
        KeyError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
