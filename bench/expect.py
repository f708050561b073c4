"""Expected results computed apart from ``pa``, and the payload checks.

Every check takes an ``Op`` and the parsed ``pa/1`` payload and returns a
list of problems; an empty list means the output is right.  Nothing here
imports ``pa``: the expected values come from brute force, explicit group
models and the defining formulas.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd

# ---------------------------------------------------------------------------
# Slopes


def reduced(q: int, p: int) -> tuple[int, int]:
    g = gcd(q, p)
    return q // g, p // g


def canonical_q(q: int, p: int) -> int:
    """Least of q and q^-1 modulo p (0 when p = 1)."""
    if p == 1:
        return 0
    return min(q % p, pow(q, -1, p))


def hat_value(q: int, p: int) -> Fraction:
    """The doubled-index substitution: with q0 = q mod 2p, (q0/2)/p or
    ((p+q0)/2)/p for p odd, q0/(p/2) for p even."""
    q0 = q % (2 * p)
    if p % 2:
        return Fraction(q0 + p * (q0 % 2), 2 * p)
    return Fraction(q0, p // 2)


def cf_value(terms: list[int]) -> Fraction:
    value = Fraction(0)
    for a in reversed(terms):
        value = 1 / (a + value)
    return value


def schubert(q: int, p: int, q2: int, p2: int) -> dict:
    """Equivalence verdicts of K(q/p) and K(q2/p2) by Schubert's
    classification: equal p, and q2 = q^{+-1} (orientation preserving) or
    q2 = -q^{+-1} (reversing) modulo p."""
    q, p = reduced(q, p)
    q2, p2 = reduced(q2, p2)
    if p != p2:
        return {"preserving": False, "reversing": False,
                "bridge_swap": False, "involution_class": "n/a"}
    inverse = pow(q, -1, p) if p > 1 else 0
    same = {q % p, inverse % p}
    mirror = {(-q) % p, (-inverse) % p}
    direct = q2 % p == q % p
    inverse_clause = q2 % p == inverse % p
    if direct:
        shift = (q2 - q) % (2 * p)
        involution = "vertical-preserved" if shift == 0 else "planar-swapped"
    else:
        involution = "n/a"
    return {
        "preserving": q2 % p in same,
        "reversing": q2 % p in mirror,
        "bridge_swap": inverse_clause and not direct,
        "involution_class": involution,
    }


def heckoid_expected(q: int, p: int, twice: int) -> tuple[str, Fraction, int, list[str]]:
    """Family, family slope, index and edge-weight multiset.

    The template is K(r) (four arcs) plus tunnels tau+ and tau-; weight-1
    edges are elided and the two arcs meeting at an elided end merge.
    M0 (2n even): arcs inf, tau+ 1, tau- n: two inf strands and n.
    M1 (2n odd, p odd): arcs inf,2,2,inf, tau+ 1, tau- m: inf, 2, m.
    M2 (2n odd, p even): arcs inf,2,inf,2, tau+ 2, tau- m: nothing elided.
    """
    if twice % 2 == 0:
        n = twice // 2
        return "M0", Fraction(q, p), n, sorted(["inf", "inf", str(n)])
    rhat = hat_value(q, p)
    if p % 2:
        return "M1", rhat, twice, sorted(["inf", "2", str(twice)])
    return "M2", rhat, twice, sorted(["inf", "inf", "2", "2", "2", str(twice)])


# ---------------------------------------------------------------------------
# Dihedral orbifolds


def d11_tag(q: int, p: int) -> str:
    """Isometry type of O(q/p; 1, 1) from the congruence table: torus
    types for p <= 2, circle types when K(q/p) is a torus link, and finite
    types decided by q^2 modulo p (p odd) or 2p (p even)."""
    if p <= 2:
        return "(S1xS1):Z2" if p == 1 else "(S1xS1):(Z2)^2"
    if q % p in (1, p - 1):
        return "S1:Z2" if p % 2 else "S1:(Z2)^2"
    square = q * q
    if p % 2:
        return "D4" if square % p == 1 else "(Z2)^2"
    if square % (2 * p) == 1:
        return "(Z2)^3"
    if square % (2 * p) == (1 + p) % (2 * p):
        return "D4"
    return "(Z2)^2"


def check_dihedral(op, payload: dict, state: dict) -> list[str]:
    info = op.info
    q, p, d1, d2 = info["q"], info["p"], info["d1"], info["d2"]
    n = p * d1 * d2
    bad = []

    def want(key, value):
        if payload.get(key) != value:
            bad.append(f"{key}={payload.get(key)!r}, expected {value!r}")

    want("order", 2 * n)
    want("group", f"D{n}")
    k1, k2 = payload.get("k1"), payload.get("k2")
    if not (isinstance(k1, int) and isinstance(k2, int)
            and gcd(p * d2, k1) == 1 and gcd(p * d1, k2) == 1
            and (k2 - q * k1) % p == 0):
        bad.append(f"k1={k1}, k2={k2} break the congruences")
    theta = p == 1 and {d1, d2} == {1, 2}
    if theta:
        want("isom", "D3xZ2")
        want("quotient_order", 12)
        want("normalizer_order", 48)
    elif (d1, d2) == (1, 1):
        want("isom", d11_tag(q, p))
        want("normalizer_order", None)
        want("quotient_order", None)
    else:
        want("isom", "(Z2)^2")
        want("normalizer_order", 8 * n)
        want("quotient_order", 4)
        elements = payload.get("quotient_elements") or []
        if len(elements) != 4 or len(set(elements)) != 4:
            bad.append(f"quotient lists {len(elements)} elements, expected 4")
    point = (q, p, d1, d2)
    first = state.setdefault("dihedral", {}).get(point)
    if first is None:
        state["dihedral"][point] = payload
    elif first != payload:
        bad.append("repeat visit answered differently")
    origin = info.get("partner_of")
    if origin is not None:
        mate = state["dihedral"].get(tuple(origin))
        if mate is None or mate.get("key") != payload.get("key"):
            bad.append(f"key {payload.get('key')} differs from its partner's")
    return bad


# ---------------------------------------------------------------------------
# Homology


def betti_even(graph: dict) -> int:
    """First Betti number of the subgraph of even (and inf) weight edges,
    on all vertices, by union-find: edges - vertices + components."""
    parent = {v["id"]: v["id"] for v in graph["vertices"]}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    even = [e for e in graph["edges"] if e["weight"] == "inf" or int(e["weight"]) % 2 == 0]
    components = len(parent)
    for e in even:
        a, b = root(e["ends"][0]), root(e["ends"][1])
        if a != b:
            parent[a] = b
            components -= 1
    return len(even) - len(parent) + components


@lru_cache(maxsize=None)
def _graph(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_homology(op, payload: dict, state: dict) -> list[str]:
    graph = _graph(op.info["path"])
    dim = betti_even(graph)
    bad = []
    if payload.get("dimension") != dim:
        bad.append(f"dimension={payload.get('dimension')}, expected {dim}")
    if len(payload.get("basis", ())) != dim:
        bad.append("basis size differs from the dimension")
    classes = payload.get("meridian_class", {})
    if set(classes) != {e["id"] for e in graph["edges"]}:
        bad.append("meridian classes do not cover the edges")
    for e in graph["edges"]:
        vec = classes.get(e["id"], [])
        if len(vec) != dim:
            bad.append(f"class of {e['id']} has length {len(vec)}")
        elif e["weight"] != "inf" and int(e["weight"]) % 2 and any(vec):
            bad.append(f"odd-weight edge {e['id']} has a nonzero class")
    return bad


# ---------------------------------------------------------------------------
# Cusp lattices


def form(kind: str, m: int, n: int) -> int:
    return 4 * (m * m + n * n) if kind == "T244" else 12 * (m * m + m * n + n * n)


def rotate(kind: str, m: int, n: int) -> tuple[int, int]:
    """Point-group generator on lattice coordinates: multiplication by i
    (T244) or by e^{i pi/3} (T236)."""
    return (-n, m) if kind == "T244" else (-n, m + n)


@lru_cache(maxsize=None)
def brute_spectrum(kind: str, count: int) -> tuple:
    """The first ``count`` values of the form on nonzero vectors, each with
    the set of vectors attaining it, by enumeration over growing boxes.
    Outside the box |m|,|n| <= R the form is at least c*(R+1)^2 with
    c = 4 (T244) or 9 (T236), so values below that bound are complete."""
    c = 4 if kind == "T244" else 9
    radius = 1
    while True:
        bound = c * (radius + 1) ** 2
        found: dict[int, set] = {}
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                value = form(kind, m, n)
                if (m, n) != (0, 0) and value < bound:
                    found.setdefault(value, set()).add((m, n))
        if len(found) >= count:
            values = sorted(found)[:count]
            return tuple((v, frozenset(found[v])) for v in values)
        radius *= 2


def _check_orbits(kind: str, orbits: list, value: int, vectors: frozenset, where: str) -> list[str]:
    bad = []
    order = 4 if kind == "T244" else 6
    covered = set()
    for orbit in orbits:
        members = {tuple(v) for v in orbit.get("members", ())}
        if orbit.get("coef2") != value:
            bad.append(f"{where}: orbit coef2 {orbit.get('coef2')} != {value}")
        if len(members) != order or orbit.get("size") != order:
            bad.append(f"{where}: orbit size {orbit.get('size')}, expected {order}")
        start = tuple(orbit.get("representative", ()))
        if start not in members:
            bad.append(f"{where}: representative outside its orbit")
        m, n = start if len(start) == 2 else (0, 0)
        for _ in range(order):
            if (m, n) not in members:
                bad.append(f"{where}: orbit not closed under rotation")
                break
            m, n = rotate(kind, m, n)
        covered |= members
    if covered != set(vectors):
        bad.append(f"{where}: orbits cover {len(covered)} vectors, expected {len(vectors)}")
    return bad


def check_cusp_spectrum(op, payload: dict, state: dict) -> list[str]:
    kind, count = op.info["kind"], op.info["count"]
    expected = brute_spectrum(kind, count)
    got = payload.get("spectrum", [])
    if [s.get("coef2") for s in got] != [v for v, _ in expected]:
        return [f"values {[s.get('coef2') for s in got]}, expected {[v for v, _ in expected]}"]
    bad = []
    for entry, (value, vectors) in zip(got, expected):
        bad += _check_orbits(kind, entry.get("orbits", []), value, vectors, f"L^2={value}")
    return bad


def brenner_expected(kind: str) -> list[int]:
    """Values below four times the minimum (squared length under 2*L1)."""
    values = [v for v, _ in brute_spectrum(kind, 8)]
    return [v for v in values if v < 4 * values[0]]


def check_cusp_brenner(op, payload: dict, state: dict) -> list[str]:
    kind = op.info["kind"]
    want = brenner_expected(kind)
    orbits = payload.get("orbits", [])
    got = sorted({o.get("coef2") for o in orbits})
    if got != want:
        return [f"coef2 values {got}, expected {want}"]
    vectors = dict(brute_spectrum(kind, len(want)))
    bad = []
    for value in want:
        mine = [o for o in orbits if o.get("coef2") == value]
        bad += _check_orbits(kind, mine, value, vectors[value], f"L^2={value}")
    return bad


# ---------------------------------------------------------------------------
# Triangle groups: explicit models


def dihedral_mul(r: int):
    """D_r as pairs (k, f) = rho^k sigma^f with sigma rho = rho^-1 sigma."""
    def mul(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % r, x[1] ^ y[1])
    return mul


def perm_mul(x, y):
    """Apply x, then y."""
    return tuple(y[i] for i in x)


def _parity(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return inversions % 2


class Model:
    """A finite group with images a, b, c of the triangle generators."""

    def __init__(self, mul, identity, gens):
        self.mul, self.identity, self.gens = mul, identity, gens

    def power(self, x, k: int):
        out = self.identity
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def order(self, x) -> int:
        acc, k = x, 1
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    def inverse(self, x):
        return self.power(x, self.order(x) - 1)

    def evaluate(self, word: str):
        """Evaluate a word: letters a..c (uppercase inverse), an optional
        '^' and a decimal repeat count after each letter."""
        inverses = [self.inverse(g) for g in self.gens]
        out, i = self.identity, 0
        while i < len(word):
            ch = word[i]
            i += 1
            if i < len(word) and word[i] == "^":
                i += 1
            j = i
            while j < len(word) and word[j].isdigit():
                j += 1
            count = int(word[i:j]) if j > i else 1
            i = j
            index = "abc".index(ch.lower())
            g = self.gens[index] if ch.islower() else inverses[index]
            for _ in range(count):
                out = self.mul(out, g)
        return out

    def elements(self) -> list:
        seen, frontier = [self.identity], [self.identity]
        known = {self.identity}
        while frontier:
            new = []
            for x in frontier:
                for g in self.gens:
                    y = self.mul(x, g)
                    if y not in known:
                        known.add(y)
                        seen.append(y)
                        new.append(y)
            frontier = new
        return seen


def spherical_order(p: int, q: int, r: int) -> int:
    return int(2 / (Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1))


@lru_cache(maxsize=None)
def triangle_model(p: int, q: int, r: int) -> Model:
    """A group of order |T(p,q,r)| with a, b, c of orders p, q, r and
    abc = 1, so that a -> a, b -> b, c -> c is an isomorphism.

    T(2,2,r) is D_r with a = sigma, b = rho*sigma (c = rho); other orders
    of a dihedral type, and T(2,3,3), T(2,3,4), T(2,3,5), come from a
    search over D_r, A4, S4 and A5 as permutation or pair models."""
    size = spherical_order(p, q, r)
    kind = tuple(sorted((p, q, r)))
    if kind[:2] == (2, 2):
        m = kind[2]
        mul, identity = dihedral_mul(m), (0, 0)
        if (p, q) == (2, 2):
            return Model(mul, identity, [(0, 1), (1, 1), (1, 0)])
        group = [(k, f) for k in range(m) for f in (0, 1)]
    else:
        points = {(2, 3, 3): 4, (2, 3, 4): 4, (2, 3, 5): 5}[kind]
        group = list(permutations(range(points)))
        if kind != (2, 3, 4):
            group = [g for g in group if _parity(g) == 0]
        mul, identity = perm_mul, tuple(range(points))
    probe = Model(mul, identity, [])
    for a, b in product(group, repeat=2):
        if probe.order(a) != p or probe.order(b) != q:
            continue
        c = probe.inverse(mul(a, b))
        if probe.order(c) != r:
            continue
        model = Model(mul, identity, [a, b, c])
        if len(model.elements()) == size:
            return model
    raise ValueError(f"no model found for T{(p, q, r)}")


def word_order(word: str, ptype) -> int:
    model = triangle_model(*ptype)
    return model.order(model.evaluate(word))


def words_conjugate(ptype, w1: str, w2: str) -> bool:
    model = triangle_model(*ptype)
    g, h = model.evaluate(w1), model.evaluate(w2)
    return any(
        model.mul(model.mul(x, g), model.inverse(x)) == h for x in model.elements()
    )


def check_triangle(op, payload: dict, state: dict) -> list[str]:
    want = word_order(op.info["word"], op.info["target"])
    if payload.get("order") != want:
        return [f"order of {op.info['word']} is {payload.get('order')}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# Links and Heckoids


def as_fraction(text):
    """A slope string as a Fraction, or None when it is not one."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def check_link(op, payload: dict, state: dict) -> list[str]:
    info, kind, bad = op.info, op.kind, []
    q, p = reduced(info["q"], info["p"])
    if kind == "link.classify":
        want = {
            "components": 1 if p % 2 else 2,
            "hyperbolic": (q - 1) % p != 0 and (q + 1) % p != 0,
            "canonical": f"{canonical_q(q, p)}/{p}",
        }
        got = {k: payload.get(k) for k in want}
        if got != want:
            bad.append(f"{got} != {want}")
    elif kind == "link.cf":
        terms = payload.get("terms", [])
        if not terms or any(not isinstance(a, int) or a < 1 for a in terms):
            bad.append(f"terms {terms} are not positive integers")
        elif cf_value(terms) != Fraction(q, p):
            bad.append(f"terms {terms} evaluate to {cf_value(terms)}, not {q}/{p}")
    elif kind == "link.hat":
        if as_fraction(payload.get("hat")) != hat_value(q, p):
            bad.append(f"hat {payload.get('hat')} != {hat_value(q, p)}")
    elif kind == "link.equiv":
        want = schubert(q, p, info["q2"], info["p2"])
        got = {k: payload.get(k) for k in want}
        if got != want:
            bad.append(f"{got} != {want}")
    return bad


def check_heckoid(op, payload: dict, state: dict) -> list[str]:
    info = op.info
    tag, value, index, weights = heckoid_expected(info["q"], info["p"], info["twice"])
    bad = []
    if payload.get("family") != tag:
        bad.append(f"family {payload.get('family')}, expected {tag}")
    if as_fraction(payload.get("slope")) != value:
        bad.append(f"family slope {payload.get('slope')}, expected {value}")
    params = payload.get("family_params", {})
    if params.get("n", params.get("m")) != index:
        bad.append(f"index {params}, expected {index}")
    got = sorted(e["weight"] for e in payload.get("graph", {}).get("edges", []))
    if got != weights:
        bad.append(f"weights {got}, expected {weights}")
    key = f"{tag}[{canonical_q(value.numerator, value.denominator)}/{value.denominator};{index}]"
    if payload.get("key") != key:
        bad.append(f"key {payload.get('key')}, expected {key}")
    return bad


# ---------------------------------------------------------------------------
# The paper replay


def sweep_slopes(p_max: int) -> list[tuple[int, int]]:
    return [(q, p) for p in range(1, p_max + 1) for q in range(p) if gcd(q, p) == 1]


def coprime_pairs(d_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, d_max + 1) for b in range(1, d_max + 1) if gcd(a, b) == 1]


@lru_cache(maxsize=None)
def replay_expected() -> dict:
    """Witness values of the 12 checks, from the sweep definitions and the
    models above."""
    slopes8, pairs4 = sweep_slopes(8), coprime_pairs(4)
    generic = [
        (q, p, a, b) for q, p in slopes8 for a, b in pairs4
        if (a, b) != (1, 1) and not (p == 1 and {a, b} == {1, 2})
    ]
    heckoid_keys = sum(1 for _, p in sweep_slopes(13) if p % 2 == 0)
    heckoid_keys += 3 * sum(1 for _, p in sweep_slopes(20) if p >= 2)
    spherical = [
        t for t in product(range(2, 7), repeat=3)
        if Fraction(1, t[0]) + Fraction(1, t[1]) + Fraction(1, t[2]) > 1
    ]
    images = {
        "b2a": [word_order("b2a", t) for t in ((2, 2, 2), (2, 2, 4), (2, 4, 2))],
        "b2ac2a": [word_order("b2ac2a", t) for t in ((2, 2, 2), (2, 2, 4), (2, 4, 2))],
        "ac3": word_order("ac3", (2, 3, 3)),
        "ac4ac2": word_order("ac4ac2", (2, 3, 3)),
        "ac4ac2_conj_a": words_conjugate((2, 3, 3), "ac4ac2", "a"),
        "c2a_conj_b2a_in_224": words_conjugate((2, 2, 4), "c2a", "b2a"),
    }
    return {
        "dihedral-order": {"points": len(slopes8) * len(pairs4)},
        "isometry-groups": {"points": len(generic)},
        "normalizer-soundness": {"points": len(generic)},
        "homology-cases": {"points": len(sweep_slopes(12)) * len(coprime_pairs(5))},
        "heckoid-classification": {"points": 5 * len(sweep_slopes(13)),
                                   "key_moves": heckoid_keys},
        "triangle-orders": {"spherical_triples": len(spherical)},
        "triangle-images": images,
        "theta-isom": {"normalizer_pairs": 96, "normalizer_isometries": 48,
                       "quotient_order": 12, "type": "D3xZ2"},
        "cusp-244": {"values": [v for v, _ in brute_spectrum("T244", 3)]},
        "cusp-236": {"values": [v for v, _ in brute_spectrum("T236", 3)]},
        "brenner-filter": {k: brenner_expected(k) for k in ("T244", "T236")},
        "no-floats": {"offenders": {}},
    }


def check_replay(op, payload: dict, state: dict) -> list[str]:
    expected = replay_expected()
    checks = {c.get("id"): c for c in payload.get("checks", [])}
    bad = []
    if set(checks) != set(expected):
        bad.append(f"check ids {sorted(checks)}")
    for cid, want in expected.items():
        witness = checks.get(cid, {}).get("witness", {})
        if cid == "brenner-filter":
            witness = {k: witness.get(k, {}).get("coef2") for k in want}
        got = {k: witness.get(k) for k in want}
        if got != want:
            bad.append(f"{cid}: witness {got}, expected {want}")
    return bad


def replay_failed(payload: dict) -> int:
    """Checks that did not pass; a missing check counts as failed."""
    passed = sum(1 for c in payload.get("checks", []) if c.get("status") == "pass")
    return 12 - passed


CHECKERS = {
    "verify.all": check_replay,
    "link.classify": check_link,
    "link.equiv": check_link,
    "link.cf": check_link,
    "link.hat": check_link,
    "heckoid": check_heckoid,
    "homology": check_homology,
    "cusp.spectrum": check_cusp_spectrum,
    "cusp.brenner": check_cusp_brenner,
    "triangle.order": check_triangle,
    "triangle.image": check_triangle,
}


def check(op, payload: dict, state: dict) -> list[str]:
    if payload.get("schema") != "pa/1":
        return [f"schema {payload.get('schema')!r}"]
    checker = check_dihedral if op.kind.startswith("dihedral.") else CHECKERS[op.kind]
    return checker(op, payload, state)
