"""The verification harness: every mechanized claim as a named check.

Each check replays one acceptance criterion and returns a witness payload;
the CLI `verify` subcommand and the acceptance test suite both run these.
Checks are pure and deterministic; failures carry a minimal counterexample
in the witness.
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from . import cosetenum, cusplattice, dihedral, orbigraph, quat
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
# Criterion 1: dihedral order law


def check_dihedral_order() -> tuple[bool, dict]:
    points = 0
    for r in _sweep_slopes(8):
        for d1, d2 in _coprime_pairs(4):
            params = dihedral.params_for(r, d1, d2)
            group, cert = dihedral.gamma(params)
            n = params.n
            if len(group) != 2 * n or not cert["dihedral_relation"]:
                return False, {"point": f"({r};{d1},{d2})", "cert": cert}
            if quat.dihedral_degree(group) != n:
                return False, {"point": f"({r};{d1},{d2})", "not_dihedral": n}
            points += 1
    return True, {"points": points}


# ---------------------------------------------------------------------------
# Criterion 2: isometry groups


def _criterion2_domain():
    for r in _sweep_slopes(8):
        for d1, d2 in _coprime_pairs(4):
            if (d1, d2) == (1, 1) or dihedral.is_trivial_theta(r, d1, d2):
                continue
            yield r, d1, d2


def check_isometry_groups() -> tuple[bool, dict]:
    points = 0
    for r, d1, d2 in _criterion2_domain():
        tag, quotient = dihedral.isom_plus(r, d1, d2)
        if tag != dihedral.TAG_Z2SQ or quotient is None or len(quotient) != 4:
            return False, {"point": f"({r};{d1},{d2})", "tag": tag}
        for g in quotient:
            if quotient.mul(g, g) != quotient.identity:
                return False, {"point": f"({r};{d1},{d2})", "non_involution": True}
        points += 1
    return True, {"points": points}


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
# Criterion 3: normalizer soundness


def check_normalizer_soundness() -> tuple[bool, dict]:
    points = 0
    for r, d1, d2 in _criterion2_domain():
        params = dihedral.params_for(r, d1, d2)
        try:
            group = dihedral.normalizer(params, dihedral.gamma(params)[0])
        except ArithmeticError as err:
            return False, {"point": f"({r};{d1},{d2})", "error": str(err)}
        if len(group) != 8 * params.n:
            return False, {"point": f"({r};{d1},{d2})", "order": len(group)}
        points += 1
    return True, {"points": points}


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
    points = 0
    for r in _sweep_slopes(12):
        for d1, d2 in _coprime_pairs(5):
            desc = orbigraph.make_dihedral(r, d1, d2)
            report = orbigraph.h1_z2(desc.graph)
            arcs = [e for e in desc.graph.edges() if e.id.startswith("K")]
            tminus = [e for e in desc.graph.edges() if e.id == "tminus"]
            witness = {"point": f"({r};{d1},{d2})", "dim": report.dimension}
            if d1 == 1 and d2 % 2 == 1:
                if r.p % 2 == 0:  # two components: free of rank 2
                    if report.dimension != 2:
                        return False, witness
                    if tminus and any(
                        x != 0 for x in report.meridian_class[tminus[0].id]
                    ):
                        return False, witness | {"tminus_nonzero": True}
                else:  # knot: rank 1 with equal arc meridians
                    if report.dimension != 1:
                        return False, witness
                    classes = {report.meridian_class[e.id] for e in arcs}
                    if len(classes) != 1 or (0,) in classes:
                        return False, witness | {"arc_classes": sorted(classes)}
            if (d1 % 2 == 0) != (d2 % 2 == 0):
                if report.dimension != 2:
                    return False, witness
            points += 1
    return True, {"points": points}


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
        desc2 = ParedOrbifoldDescriptor(desc.graph, desc.parabolic_edges, shifted)
        if orbigraph.canonical_key(desc) != orbigraph.canonical_key(desc2):
            return False, {"m2_move": str(s)}
        key_moves += 1

    # O(q/p;d+,d-) vs O(q'/p;d-,d+) for qq' = 1 mod p
    for r in _sweep_slopes(20):
        if r.p < 2:
            continue
        qinv = pow(r.q, -1, r.p)
        for d1, d2 in ((1, 2), (2, 3), (3, 4)):
            k1 = orbigraph.canonical_key(orbigraph.make_dihedral(r, d1, d2))
            k2 = orbigraph.canonical_key(
                orbigraph.make_dihedral(Slope(qinv, r.p), d2, d1)
            )
            if k1 != k2:
                return False, {"o_move": f"({r};{d1},{d2})"}
            key_moves += 1
    return True, {"points": points, "key_moves": key_moves}


# ---------------------------------------------------------------------------
# Criterion 9: no floating point in the core modules


CORE_MODULES = (
    "slopes.py",
    "quat.py",
    "orbigraph.py",
    "dihedral.py",
    "cusplattice.py",
    "cosetenum.py",
)


def _float_literals(source: str) -> list[str]:
    bad = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER:
            text = tok.string.lower()
            if text.startswith(("0x", "0o", "0b")):
                continue
            if "." in text or "e" in text or text.endswith("j"):
                bad.append(tok.string)
        elif tok.type == tokenize.NAME and tok.string == "float":
            bad.append("float")
    return bad


def check_no_floats() -> tuple[bool, dict]:
    root = Path(__file__).resolve().parent
    offenders = {}
    for name in CORE_MODULES:
        bad = _float_literals((root / name).read_text())
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
    """Run all checks (selector None or "all") or a list of check ids;
    results come back sorted by check id."""
    if selector is None or selector == "all":
        ids = sorted(CHECKS)
    else:
        ids = sorted(set(selector))
        unknown = [i for i in ids if i not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}")
    results = []
    for check_id in ids:
        criterion, anchor, fn = CHECKS[check_id]
        try:
            ok, witness = fn()
        except Exception as err:  # a crash is a failing check, not a crash
            ok, witness = False, {"error": f"{type(err).__name__}: {err}"}
        results.append(
            CheckResult(check_id, criterion, anchor, "pass" if ok else "fail", witness)
        )
    return results
