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

# Each command imports the layers it needs, so a process loads only those
# of the command it runs; the layers' functions are called as module
# attributes.
from . import slopes

SCHEMA = "pa/1"


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _int_arg(text: str) -> int:
    try:
        return slopes.parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fraction(text: str) -> Fraction:
    # "a", "a/b" or "a.b" (= "ab" / 10**len("b")) read by parse_int: no
    # exponent, as Fraction("1e9999999") would compute 10**9999999.
    num, slash, den = text.partition("/")
    try:
        if slash:
            return Fraction(slopes.parse_int(num), slopes.parse_int(den))
        whole, _, decimals = text.partition(".")
        return Fraction(slopes.parse_int(whole + decimals), 10 ** len(decimals))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad index {text!r}") from None


def _slope_arg(text: str) -> slopes.Slope:
    try:
        return slopes.parse_slope(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"need three integers, got {text!r}")
    try:
        p, q, r = (slopes.parse_int(x) for x in parts)
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
        "components": slopes.components(r),
        # the infinite slope is the trivial 2-component link
        "hyperbolic": False if r.is_infinite else slopes.is_hyperbolic(r),
    }
    if not r.is_infinite:
        payload["canonical"] = str(slopes.canonical(r))
    lines = [
        f"K({r}): components={payload['components']} "
        f"hyperbolic={'true' if payload['hyperbolic'] else 'false'}"
    ]
    if "canonical" in payload:
        lines.append(f"canonical: {payload['canonical']}")
    _emit(args, payload, lines)
    return 0


def cmd_link_equiv(args) -> int:
    verdict = slopes.equivalence(args.slope, args.slope2)
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
    terms = slopes.continued_fraction(args.slope)
    payload = {
        "command": "link.cf",
        "slope": str(args.slope),
        "terms": list(terms),
    }
    _emit(args, payload, [f"{args.slope} = [{', '.join(map(str, terms))}]"])
    return 0


def cmd_link_hat(args) -> int:
    r = slopes.hat(args.slope)
    payload = {"command": "link.hat", "slope": str(args.slope), "hat": str(r)}
    _emit(args, payload, [str(r)])
    return 0


# ---------------------------------------------------------------------------
# heckoid / dihedral / homology


def cmd_heckoid(args) -> int:
    from . import orbigraph

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
    from . import dihedral, quat

    r, d1, d2 = args.slope, args.d1, args.d2
    params, cert, tag, quotient = dihedral.orbifold(r, d1, d2)
    payload = {
        "command": "dihedral",
        "slope": str(r),
        "d1": d1,
        "d2": d2,
        "k1": params.k1,
        "k2": params.k2,
        "order": cert["order"],
        "group": f"D{cert['order_f']}",
        "isom": tag,
        "normalizer_order": cert["order"] * len(quotient) if quotient is not None else None,
        "quotient_order": len(quotient) if quotient is not None else None,
        "key": slopes.dihedral_key(r, d1, d2),
        "certificate": dict(cert),
        "quotient_elements": quat.group_to_json(quotient) if quotient is not None else None,
    }
    lines = [
        f"O({r};{d1},{d2}): Gamma = {payload['group']}, order {cert['order']}",
        f"k1={params.k1} k2={params.k2}",
        f"isometry group: {tag}",
    ]
    if payload["normalizer_order"] is not None:
        lines.append(
            f"normalizer order {payload['normalizer_order']}, "
            f"quotient order {payload['quotient_order']}"
        )
    lines.append(f"key: {payload['key']}")
    _emit(args, payload, lines)
    return 0


def cmd_homology(args) -> int:
    from . import orbigraph

    with open(args.path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.path}: JSON nested too deeply") from None
    report = orbigraph.h1_z2(orbigraph.descriptor_from_json(obj).graph)
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
    from . import cusplattice

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
    from . import cosetenum

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
    from . import cosetenum

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
    from . import verify

    unknown = sorted(set(args.checks) - set(verify.CHECKS))
    if unknown:
        raise UsageError(f"unknown check ids: {', '.join(unknown)}")
    if args.all:
        selector = None
    elif args.checks:
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
#
# Each level of the tree is a table of choices: _COMMANDS, and the leaves
# of link and triangle.  A query runs one leaf, so main builds only the
# branch its words name; every other choice is a bare placeholder, which
# argparse still lists in the usage, the help and the invalid-choice
# error, so those read the same whichever branch is filled in.


def _leaf(p: argparse.ArgumentParser, func) -> argparse.ArgumentParser:
    """Make ``p`` a leaf that runs ``func``: every leaf takes --json."""
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=func)
    return p


def _add_link_classify(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_link_classify)
    p.add_argument("slope", type=_slope_arg)


def _add_link_equiv(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_link_equiv)
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("slope2", type=_slope_arg)


def _add_link_cf(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_link_cf)
    p.add_argument("slope", type=_slope_arg)


def _add_link_hat(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_link_hat)
    p.add_argument("slope", type=_slope_arg)


def _add_heckoid(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_heckoid)
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("index", type=_fraction, help="half-integer index n (2n >= 3)")


def _add_dihedral(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_dihedral)
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("d1", type=_int_arg)
    p.add_argument("d2", type=_int_arg)


def _add_cusp(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_cusp)
    p.add_argument("kind", choices=["244", "236", "T244", "T236"])
    p.add_argument("--count", type=_int_arg, default=3, help="spectrum length")
    p.add_argument(
        "--brenner",
        action="store_true",
        help="list only orbits short enough to generate a parabolic pair",
    )


def _add_triangle_order(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_triangle_order)
    p.add_argument("type", type=_triple, help='spherical type, e.g. "2 3 3"')
    p.add_argument("word", help="word over a,b,c (A,B,C inverses, digits repeat)")


def _add_triangle_image(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_triangle_image)
    p.add_argument("map", type=_arrow, help='e.g. "2 4 4 -> 2 2 4"')
    p.add_argument("word")


def _add_homology(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_homology)
    p.add_argument("path")


def _add_verify(p: argparse.ArgumentParser) -> None:
    _leaf(p, cmd_verify)
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("checks", nargs="*", metavar="check-id")


# Each table maps a choice, in help order, to its help (None for a leaf,
# which its command's help does not list) and to the function adding its
# arguments, or to the table of its own choices.  Those functions name
# their cmd_ function when the parser is built, not at import, so a
# tracer that replaces it on the module sees every call.
_LINK = {
    "classify": (None, _add_link_classify),
    "equiv": (None, _add_link_equiv),
    "cf": (None, _add_link_cf),
    "hat": (None, _add_link_hat),
}
_TRIANGLE = {
    "order": (None, _add_triangle_order),
    "image": (None, _add_triangle_image),
}
_COMMANDS = {
    "link": ("2-bridge link slope arithmetic", _LINK),
    "heckoid": ("Heckoid orbifold graph", _add_heckoid),
    "dihedral": ("dihedral orbifold group and isometries", _add_dihedral),
    "cusp": ("rigid-cusp lattice spectra", _add_cusp),
    "triangle": ("triangle-group word orders", _TRIANGLE),
    "homology": ("Z2 homology of a graph orbifold JSON file", _add_homology),
    "verify": ("run the verification checks", _add_verify),
}


def _add_choices(parser, prog: str, dest: str, choices: dict, words) -> None:
    """Add the level ``choices`` to ``parser``, whose usage starts ``prog``.

    When ``words[0]`` is one of the choices, only it is filled in, and the
    level below it is read from ``words[1:]``; otherwise every choice is,
    with every level below it.  Any other choice is a bare placeholder:
    no -h and no arguments.
    """
    # Passing prog spares argparse formatting the parent's usage to find it.
    sub = parser.add_subparsers(dest=dest, required=True, prog=prog)
    named = words[0] if words and words[0] in choices else None
    for name, (help_text, fill) in choices.items():
        # a help of None would still list the choice in the parent's help
        kwargs = {} if help_text is None else {"help": help_text}
        if named not in (None, name):
            sub.add_parser(name, add_help=False, **kwargs)
        elif isinstance(fill, dict):  # a command with leaves of its own
            p = sub.add_parser(name, **kwargs)
            _add_choices(p, f"{prog} {name}", "subcommand", fill, words[1:] if named else ())
        else:
            fill(sub.add_parser(name, **kwargs))


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The ``pa`` parser with only the branch ``argv`` names filled in: its
    first word when that is a command, then its second when that is one of
    the command's leaves.  ``build_parser()`` is the whole tree."""
    parser = argparse.ArgumentParser(
        prog="pa",
        description="Exact arithmetic for 2-bridge slopes, Heckoid graphs, "
        "dihedral orbifold groups, rigid-cusp lattices and triangle groups.",
    )
    _add_choices(parser, "pa", "command", _COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A word that names no choice ("-h", "--json", an unknown one) gets
    # every branch below it, and so argparse's own message.
    parser = build_parser(argv)
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
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
