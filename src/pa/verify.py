"""The verification harness: every mechanized claim as a named check.

Each check replays one acceptance criterion and returns a witness payload;
the CLI `verify` subcommand and the acceptance test suite both run these.
Checks are pure and deterministic; failures carry a minimal counterexample
in the witness.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from . import cosetenum, cusplattice, dihedral, groups, orbigraph, slopes
from .orbigraph import INF, ParedOrbifoldDescriptor
from .slopes import Slope, hat, slope


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    criterion: int
    anchor: str
    status: str  # "pass" | "fail"
    witness: dict

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _sweep_slopes(p_max: int) -> list[Slope]:
    return [
        Slope(q, p)
        for p in range(1, p_max + 1)
        for q in range(p)
        if gcd(q, p) == 1
    ]


def _coprime_pairs(d_max: int) -> list[tuple[int, int]]:
    return [
        (d1, d2)
        for d1 in range(1, d_max + 1)
        for d2 in range(1, d_max + 1)
        if gcd(d1, d2) == 1
    ]


# ---------------------------------------------------------------------------
# Criteria 1-3: one pass over the dihedral sweep
#
# Checks 1-3 walk the same points q/p (p <= 8), (d1, d2) coprime (d <= 4):
# check 1 every point, checks 2 and 3 the points away from (1, 1) and the
# trivial theta.  The pass closes each point's Gamma, and there finds
# N(Gamma)/Gamma from Gamma's cosets, once, and hands the point to the
# predicates of the checks still open.


def _table(quotient: groups.FinGroup) -> list[list]:
    return [[quotient.mul(a, b) for b in quotient] for a in quotient]


class _step:
    """A step of ``_Point``: run at its first read, and its value kept in
    the point's ``__dict__``, where later reads find it before this
    descriptor (it defines no ``__set__``).  A step that raises stores
    nothing.  ``functools.cached_property`` does the same, but takes a lock
    on every first read before Python 3.12; a point belongs to one sweep
    and one thread."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, point, owner=None):
        if point is None:
            return self
        value = point.__dict__[self.name] = self.fn(point)
        return value


class _Point:
    """The shared work at one sweep point (r; d1, d2).  Each step runs when
    the first predicate reaches it and keeps its value for the later ones.
    A step that raises keeps nothing, so the next predicate that reaches it
    runs it again and meets the same exception: the steps are
    deterministic, and every predicate sees what a sweep of its own would
    have seen, in its own order."""

    def __init__(self, r: Slope, d1: int, d2: int):
        self.r, self.d1, self.d2 = r, d1, d2
        self.name = f"({r};{d1},{d2})"
        # (1, 1) and the trivial theta: only check 1 reaches these points
        self.exceptional = (d1, d2) == (1, 1) or dihedral.is_trivial_theta(r, d1, d2)

    @_step
    def params(self) -> dihedral.DihedralParams:
        return dihedral.params_for(self.r, self.d1, self.d2)

    @_step
    def gamma(self) -> tuple:
        """Gamma closed coset by coset, and its certificate."""
        return dihedral.gamma(self.params)

    @_step
    def quotient(self) -> groups.FinGroup:
        """N(Gamma)/Gamma from Gamma's cosets; N(Gamma) is never listed."""
        return dihedral.normalizer(self.params, self.gamma[0])

    @_step
    def tag(self) -> str:
        return groups.recognize(self.quotient)

    @_step
    def record(self) -> dihedral.Orbifold:
        return dihedral.orbifold(self.r, self.d1, self.d2)

    @_step
    def cert(self):
        """Gamma's lattice certificate: the record's at an ordinary point,
        where checks 2 and 3 build the record anyway, and
        ``dihedral.gamma_lattice``'s at an exceptional one, where check 1,
        which reads only |Gamma|, is the only reader."""
        if self.exceptional:
            return dihedral.gamma_lattice(self.r, self.d1, self.d2).cert
        return self.record.cert

    def order_agrees(self) -> bool:
        """Whether the torus-lattice |Gamma| (``cert``) is the closure's."""
        return self.cert["order"] == len(self.gamma[0])

    @_step
    def lattice_agrees(self) -> bool:
        """Whether ``dihedral.orbifold``'s record agrees with the closures:
        on |Gamma| and, with the closure's quotient N(Gamma)/Gamma, on its
        tag, its elements (the printed coset labels) and its multiplication
        table.  Checks 2 and 3 both read it, and the tables are built and
        compared once."""
        if not self.order_agrees():
            return False
        record, quotient = self.record, self.quotient
        return (
            record.isom == self.tag
            and record.quotient.elements == quotient.elements
            and _table(record.quotient) == _table(quotient)
        )


# Each predicate returns None when the point passes, else the check's
# witness; an exception it lets through fails the check as ``run_checks``
# fails a check that raises.


def _order_fault(point: _Point) -> dict | None:
    """Criterion 1: |Gamma| = 2n with the dihedral relation, recognized as
    dihedral of degree n from its presentation.

    order(f) = |<f>| = n, order(J) = 2 and J f J^-1 = f^-1 make Gamma =
    <f, J> a quotient of D_n = <a, b | a^n, b^2, (ab)^2>, and |Gamma| = 2n =
    |D_n| makes it D_n itself (von Dyck's theorem), with no search for a
    rotation of order n."""
    group, cert = point.gamma
    n = point.params.n
    if len(group) != 2 * n or not cert["dihedral_relation"]:
        return {"point": point.name, "cert": dict(cert)}
    if (cert["order_f"], cert["order_J"]) != (n, 2):
        return {"point": point.name, "not_dihedral": n}
    if not point.order_agrees():
        return {"point": point.name, "lattice": "disagrees"}
    return None


def _isometry_fault(point: _Point) -> dict | None:
    """Criterion 2: N(Gamma)/Gamma is (Z2)^2, every element an involution."""
    quotient = point.quotient
    tag = point.tag
    if tag != dihedral.TAG_Z2SQ or len(quotient) != 4:
        return {"point": point.name, "tag": tag}
    for g in quotient:
        if quotient.mul(g, g) != quotient.identity:
            return {"point": point.name, "non_involution": True}
    if not point.lattice_agrees:
        return {"point": point.name, "lattice": "disagrees"}
    return None


def _normalizer_fault(point: _Point) -> dict | None:
    """Criterion 3: the claimed N(Gamma) normalizes Gamma and has order
    |Gamma| * |N(Gamma)/Gamma| = 8n."""
    group, _ = point.gamma  # an ArithmeticError in Gamma itself is no normalizer fault
    try:
        quotient = point.quotient
    except ArithmeticError as err:
        return {"point": point.name, "error": str(err)}
    order = len(group) * len(quotient)
    if order != 8 * point.params.n:
        return {"point": point.name, "order": order}
    if not point.lattice_agrees:
        return {"point": point.name, "lattice": "disagrees"}
    return None


# check id -> (whether it covers the points at (1, 1) and the trivial theta,
# predicate)
_DIHEDRAL_PREDICATES = {
    "dihedral-order": (True, _order_fault),
    "isometry-groups": (False, _isometry_fault),
    "normalizer-soundness": (False, _normalizer_fault),
}


def _error_witness(err: Exception) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


def _dihedral_verdicts(ids) -> dict[str, tuple[bool, dict]]:
    """(ok, witness) of each check in ``ids`` among checks 1-3, from one
    pass.  A check stops at its first faulty point; only the current point's
    groups are held."""
    passed = {cid: 0 for cid in ids}
    verdicts = {}
    sweep = ((r, d1, d2) for r in _sweep_slopes(8) for d1, d2 in _coprime_pairs(4))
    for r, d1, d2 in sweep:
        if not passed:
            break
        point = _Point(r, d1, d2)
        for cid in list(passed):
            whole_sweep, predicate = _DIHEDRAL_PREDICATES[cid]
            if point.exceptional and not whole_sweep:
                continue
            try:
                witness = predicate(point)
            except Exception as err:
                witness = _error_witness(err)
            if witness is None:
                passed[cid] += 1
            else:
                verdicts[cid] = (False, witness)
                del passed[cid]
    for cid, points in passed.items():
        verdicts[cid] = (True, {"points": points})
    return verdicts


def check_dihedral_order() -> tuple[bool, dict]:
    return _dihedral_verdicts(["dihedral-order"])["dihedral-order"]


def check_isometry_groups() -> tuple[bool, dict]:
    return _dihedral_verdicts(["isometry-groups"])["isometry-groups"]


def check_normalizer_soundness() -> tuple[bool, dict]:
    return _dihedral_verdicts(["normalizer-soundness"])["normalizer-soundness"]


def check_theta_isom() -> tuple[bool, dict]:
    quotient, details = dihedral.exceptional_isom()
    ok = (
        len(quotient) == 12
        and details["type"] == dihedral.TAG_D3xZ2
        and details["normalizer_pairs"] == 96
        and details["normalizer_isometries"] == 48
    )
    return ok, details


# ---------------------------------------------------------------------------
# Criterion 4: cusp spectra


def _check_cusp(kind: str, values_expected, words) -> tuple[bool, dict]:
    spec = cusplattice.spectrum(kind, 3)
    values = [v for v, _ in spec]
    if values != list(values_expected):
        return False, {"kind": kind, "values": values}
    for (value, orbits), word in zip(spec, words):
        if len(orbits) != 1:
            return False, {"kind": kind, "value": value, "orbits": len(orbits)}
        orbit = orbits[0]
        members = {(v.m, v.n) for v in orbit.members}
        for w in (word, orbit.word):
            iso = cusplattice.evaluate_word(kind, w)
            vec = cusplattice.as_lattice_vector(kind, iso)
            if vec is None or (vec.m, vec.n) not in members:
                return False, {"kind": kind, "word": w, "missed_orbit": value}
    # the second shortest class contains the product of the two basis words
    return True, {"kind": kind, "values": values}


def check_cusp_244() -> tuple[bool, dict]:
    return _check_cusp("T244", (4, 8, 16), ["bba", "bbacca", "bbabba"])


def check_cusp_236() -> tuple[bool, dict]:
    return _check_cusp("T236", (12, 36, 48), ["accc", "accccacc", "acccaccc"])


# ---------------------------------------------------------------------------
# Criterion 5: Brenner filter


def check_brenner_filter() -> tuple[bool, dict]:
    witness = {}
    for kind, expected in (("T244", [4, 8]), ("T236", [12, 36])):
        orbits = cusplattice.brenner_candidates(kind)
        got = [o.coef2 for o in orbits]
        witness[kind] = {"coef2": got, "words": [o.word for o in orbits]}
        if got != expected:
            return False, witness
    return True, witness


# ---------------------------------------------------------------------------
# Criterion 6: triangle groups


def check_triangle_orders() -> tuple[bool, dict]:
    count = 0
    for p in range(2, 7):
        for q in range(2, 7):
            for r in range(2, 7):
                expected = cosetenum.spherical_triangle_order(p, q, r)
                if expected is None:
                    continue
                group = cosetenum.triangle_group(p, q, r)
                if len(group) != expected:
                    return False, {"type": (p, q, r), "order": len(group),
                                   "expected": expected}
                count += 1
    return True, {"spherical_triples": count}


def check_triangle_images() -> tuple[bool, dict]:
    targets = ((2, 2, 2), (2, 2, 4), (2, 4, 2))
    orders_bba = [cosetenum.image_order("b2a", (2, 4, 4), t) for t in targets]
    orders_bbacca = [cosetenum.image_order("b2ac2a", (2, 4, 4), t) for t in targets]
    witness = {"b2a": orders_bba, "b2ac2a": orders_bbacca}
    if orders_bba != [2, 2, 2] or orders_bbacca != [1, 2, 2]:
        return False, witness
    # (2,3,6) candidates into (2,3,3): both have order 2 and the longer one
    # is conjugate to a
    o1 = cosetenum.image_order("ac3", (2, 3, 6), (2, 3, 3))
    o2 = cosetenum.image_order("ac4ac2", (2, 3, 6), (2, 3, 3))
    witness["ac3"] = o1
    witness["ac4ac2"] = o2
    if (o1, o2) != (2, 2):
        return False, witness
    G, (img_long, img_a) = cosetenum.triangle_word_images(
        (2, 3, 3), ["ac4ac2", "a"]
    )
    conj_a = G.are_conjugate(img_long, img_a)
    witness["ac4ac2_conj_a"] = conj_a
    # c2a and b2a become conjugate in the (2,2,4) quotient
    H, (img_c2a, img_b2a) = cosetenum.triangle_word_images(
        (2, 2, 4), ["c2a", "b2a"]
    )
    conj_cb = H.are_conjugate(img_c2a, img_b2a)
    witness["c2a_conj_b2a_in_224"] = conj_cb
    return conj_a and conj_cb, witness


# ---------------------------------------------------------------------------
# Criterion 7: homology case table


def check_homology_cases() -> tuple[bool, dict]:
    # The Z2 complex sees only the parity of each weight: a finite odd
    # weight kills its meridian, and a weight-1 edge, elided, leaves one
    # generator fewer and one relation fewer.  So the case table's rows for
    # d+ = 1, d- odd hold wherever d+ and d- are both odd.
    #
    # make_dihedral reads r only through the parity of p, so the 874 points
    # give 38 graphs, one per (p mod 2, d+, d-): each is built and its
    # report read once, at the first point with its key.  The reports live
    # as long as this call.
    reports = {}
    points = 0
    for r in _sweep_slopes(12):
        for d1, d2 in _coprime_pairs(5):
            key = (r.p % 2, d1, d2)
            report = reports.get(key)
            if report is None:
                graph = orbigraph.make_dihedral(r, d1, d2).graph
                report = reports[key] = orbigraph.h1_z2(graph)
            fault = _homology_fault(r.p % 2 == 0, d1 % 2 == 1 and d2 % 2 == 1, report)
            if fault is not None:
                return False, {"point": f"({r};{d1},{d2})", "dim": report.dimension} | fault
            points += 1
    return True, {"points": points}


def _homology_fault(p_even: bool, both_odd: bool, report) -> dict | None:
    """None when the report fits the case table's row, else the witness's
    keys past the point and the dimension.  ``meridian_class`` is keyed by
    the graph's edge ids: the arcs K1..K4 and, unless elided, tminus.
    (d+, d-) is coprime, so one of them is even unless both are odd."""
    classes = report.meridian_class
    if not both_odd:
        return None if report.dimension == 2 else {}
    if p_even:  # two components: free of rank 2
        if report.dimension != 2:
            return {}
        if any(classes.get("tminus", ())):
            return {"tminus_nonzero": True}
        return None
    # knot: rank 1 with equal arc meridians
    if report.dimension != 1:
        return {}
    arcs = {c for eid, c in classes.items() if eid.startswith("K")}
    if len(arcs) != 1 or (0,) in arcs:
        return {"arc_classes": sorted(arcs)}
    return None


# ---------------------------------------------------------------------------
# Criterion 8: Heckoid classification


def _expected_heckoid(r: Slope, n) -> tuple[str, str, int]:
    """Family selection re-derived from scratch (duplicates the rule on
    purpose: the check must not trust make_heckoid's own branch)."""
    twice = int(Fraction(n) * 2)
    p, q = r.p, r.q % (2 * r.p)
    if twice % 2 == 0:
        return ("M0", str(r), twice // 2)
    if p % 2 == 1:
        half = q // 2 if q % 2 == 0 else (p + q) // 2
        return ("M1", str(Slope(half, p)), twice)
    return ("M2", str(Slope(q, p // 2)), twice)


_FAMILY_WEIGHTS = {
    "M0": lambda n: sorted(["inf", "inf", str(n)]),
    "M1": lambda m: sorted(["inf", "2", str(m)]),
    "M2": lambda m: sorted(["inf", "inf", "2", "2", "2", str(m)]),
}


def check_heckoid_classification() -> tuple[bool, dict]:
    points = 0
    indices = [2, 3, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]
    for r in _sweep_slopes(13):
        for n in indices:
            desc = orbigraph.make_heckoid(r, n)
            tag, rhat, idx = _expected_heckoid(r, n)
            fam = desc.family
            got = (fam["tag"], fam["r"], fam.get("n", fam.get("m")))
            if got != (tag, rhat, idx):
                return False, {"point": f"({r};{n})", "got": got,
                               "expected": (tag, rhat, idx)}
            weights = sorted(
                orbigraph.weight_str(e.weight) for e in desc.graph.edges()
            )
            if weights != _FAMILY_WEIGHTS[tag](idx):
                return False, {"point": f"({r};{n})", "weights": weights}
            if orbigraph.check_sc(desc.graph):
                return False, {"point": f"({r};{n})", "sc": "violated"}
            points += 1
    if points < 200:
        return False, {"points": points, "needed": 200}

    # canonical_key invariance: M2(a/b;m) vs M2((a+b)/b;m)
    key_moves = 0
    for r in _sweep_slopes(13):
        if r.p % 2 == 1:
            continue
        desc = orbigraph.make_heckoid(r, Fraction(5, 2))
        s = slope(desc.family["r"])
        shifted = dict(desc.family, r=str(Slope(s.q + s.p, s.p)))
        desc2 = ParedOrbifoldDescriptor(desc.graph, shifted)
        if orbigraph.canonical_key(desc) != orbigraph.canonical_key(desc2):
            return False, {"m2_move": str(s)}
        key_moves += 1

    # O(q/p;d+,d-) vs O(q'/p;d-,d+) for qq' = 1 mod p
    for r in _sweep_slopes(20):
        if r.p < 2:
            continue
        qinv = pow(r.q, -1, r.p)
        for d1, d2 in ((1, 2), (2, 3), (3, 4)):
            if slopes.dihedral_key(r, d1, d2) != slopes.dihedral_key(Slope(qinv, r.p), d2, d1):
                return False, {"o_move": f"({r};{d1},{d2})"}
            key_moves += 1
    return True, {"points": points, "key_moves": key_moves}


# ---------------------------------------------------------------------------
# Criterion 9: no floating point in the core modules


CORE_MODULES = (
    "slopes.py",
    "groups.py",
    "quat.py",
    "orbigraph.py",
    "dihedral.py",
    "cusplattice.py",
    "cosetenum.py",
)


# One pass over tokenize's own grammar.  Comments and strings (triple-quoted
# first, each with any prefix) are matched whole, so no number or name inside
# them is seen; f-strings, numbers and the name ``float`` are captured.  The
# first alternative, tried first, eats in one match a run of two kinds of
# piece, neither of which holds a token the scan reports:
# - characters that start no comment, string, number or name (spaces,
#   operators, brackets): no other alternative can match at any of them;
# - whole identifiers other than ``float``: ``\w*`` must reach the
#   identifier's end, since the lookahead refuses a following word
#   character, and an identifier followed directly by a quote is refused at
#   every length, as it is a string prefix (``rb``, ``f``).  An identifier
#   eaten here starts with neither a digit nor ``.``, so it starts no
#   comment, string or number, and the name alternative would have
#   captured it whole and discarded it; numbers match exactly as before.
# So no token is lost.  On valid Python every other match starts where a
# tokenize token starts, and an f-string is one literal, as tokenize reads
# it before Python 3.12.
_STRINGS = "|".join((
    "'''" + tokenize.Single3,
    '"""' + tokenize.Double3,
    r"'[^\n'\\]*(?:\\.[^\n'\\]*)*'",
    r'"[^\n"\\]*(?:\\.[^\n"\\]*)*"',
))
_TOKENS = re.compile(
    "|".join((
        r"""(?:[^\w#'".]+|(?!float\b)[^\W\d]\w*(?![\w'"]))+""",
        tokenize.Comment,
        "((?:[rR]?[fF]|[fF][rR])(?:" + _STRINGS + "))",
        "[bBrRuU]{0,2}(?:" + _STRINGS + ")",
        "(" + re.sub(r"\((?!\?)", "(?:", tokenize.Number) + ")",
        "(" + tokenize.Name + ")",
    )),
    re.DOTALL,
)


def _field_sources(literal: str, joined: ast.JoinedStr):
    """The source of each replacement field's expression in the f-string
    ``literal``, the fields of nested format specs included, in order."""
    for part in joined.values:
        if isinstance(part, ast.FormattedValue):
            yield ast.get_source_segment(literal, part.value)
            if part.format_spec is not None:
                yield from _field_sources(literal, part.format_spec)


# Whether a text holds an ASCII digit or the word ``float``.  Every token the
# scan reports does: each form of ``tokenize.Number`` holds a digit, and the
# other report is the name ``float``.  A replacement field is a substring of
# its f-string, so an f-string that fails this test holds no report.
_MAY_REPORT = re.compile("[0-9]|float").search


def _float_literals(source: str) -> list[str]:
    """The float and complex literals of a valid Python source, and its uses
    of the name ``float``, in source order.  An f-string's replacement
    fields are scanned as source, and its literal text is not; an f-string
    with neither a digit nor ``float`` in it is not parsed."""
    bad = []
    for fstring, number, name in _TOKENS.findall(source):
        if fstring:
            if not _MAY_REPORT(fstring):
                continue
            for field in _field_sources(fstring, ast.parse(fstring, mode="eval").body):
                bad += _float_literals(field)
        elif number:
            text = number.lower()
            if text.startswith(("0x", "0o", "0b")):
                continue
            if "." in text or "e" in text or text.endswith("j"):
                bad.append(number)
        elif name == "float":
            bad.append("float")
    return bad


def check_no_floats() -> tuple[bool, dict]:
    root = Path(__file__).resolve().parent
    offenders = {}
    for name in CORE_MODULES:
        # Python source is UTF-8 (PEP 3120), whatever the locale says
        bad = _float_literals((root / name).read_text(encoding="utf-8"))
        if bad:
            offenders[name] = bad
    return (not offenders), {"scanned": list(CORE_MODULES), "offenders": offenders}


# ---------------------------------------------------------------------------
# Registry


CHECKS = {
    "brenner-filter": (
        5,
        "short-translation filter keeps exactly two orbits per rigid cusp",
        check_brenner_filter,
    ),
    "cusp-236": (
        4,
        "S2(2,3,6) spectrum (12,36,48)*l^2, single orbits, words ac3/ac4ac2/(ac3)^2",
        check_cusp_236,
    ),
    "cusp-244": (
        4,
        "S2(2,4,4) spectrum (4,8,16)*l^2, single orbits, words b2a/b2ac2a/(b2a)^2",
        check_cusp_244,
    ),
    "dihedral-order": (
        1,
        "|Gamma(q/p;d1,d2)| = 2*p*d1*d2 with dihedral recognition",
        check_dihedral_order,
    ),
    "heckoid-classification": (
        8,
        "Heckoid family selection, slope substitution, canonical-key moves",
        check_heckoid_classification,
    ),
    "homology-cases": (
        7,
        "Z2-homology case table over the O(q/p;d+,d-) graphs",
        check_homology_cases,
    ),
    "isometry-groups": (
        2,
        "N(Gamma)/Gamma = (Z2)^2 away from (1,1) and the trivial theta",
        check_isometry_groups,
    ),
    "no-floats": (
        9,
        "core modules are float-free (static token scan)",
        check_no_floats,
    ),
    "normalizer-soundness": (
        3,
        "every normalizer generator conjugates Gamma onto itself",
        check_normalizer_soundness,
    ),
    "theta-isom": (
        2,
        "trivial theta-orbifold isometry group has order 12, type D3xZ2",
        check_theta_isom,
    ),
    "triangle-images": (
        6,
        "candidate-word image orders and conjugacy in spherical quotients",
        check_triangle_images,
    ),
    "triangle-orders": (
        6,
        "triangle group order matches 2/(1/p+1/q+1/r-1) for spherical types",
        check_triangle_orders,
    ),
}


def run_checks(selector=None) -> list[CheckResult]:
    """Run all checks (selector None) or a list of check ids; results come
    back sorted by check id.  A string is refused (TypeError), not read as
    its characters."""
    if isinstance(selector, str):
        raise TypeError(f"selector must be None or a list of check ids, not {selector!r}")
    if selector is None:
        ids = sorted(CHECKS)
    else:
        ids = sorted(set(selector))
        unknown = [i for i in ids if i not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}")
    # checks 1-3 share one pass when more than one of them is selected
    shared = [i for i in ids if i in _DIHEDRAL_PREDICATES]
    verdicts = _dihedral_verdicts(shared) if len(shared) > 1 else {}
    results = []
    for check_id in ids:
        criterion, anchor, fn = CHECKS[check_id]
        if check_id in verdicts:
            ok, witness = verdicts[check_id]
        else:
            try:
                ok, witness = fn()
            except Exception as err:  # a crash is a failing check, not a crash
                ok, witness = False, _error_witness(err)
        results.append(
            CheckResult(check_id, criterion, anchor, "pass" if ok else "fail", witness)
        )
    return results
