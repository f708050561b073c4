"""Independent reference implementations used to cross-check the library.

Everything here is deliberately coded with different algorithms and data
structures than the package (Fraction towers instead of integer pair
recursion, product-set growth instead of BFS closure, union-find Betti
numbers and dense right-to-left elimination instead of bitmask RREF, HLT
instead of Felsch coset enumeration, closed groups instead of torus
lattices, breadth-first closures instead of coset-by-coset extension,
element orders by walking the powers instead of from a known multiple, one
sweep per check instead of one shared pass, rescans and rebuilt lists
instead of kept indices, one letter at a time instead of runs by
square-and-multiply, quotient labels from products or from an
extension's listed coset blocks instead of from the cosets of the normal
subgroup alone, a torus quotient's table from keys instead of from the
recorded coset action, a cycle walked twice instead of once, a dihedral key
read from a built graph's family instead of from (r, d+, d-), ``tokenize``'s
token stream instead of one regular-expression pass, the whole argparse tree
with a shared ``--json`` parent instead of one command's branch, Z2 homology
at every point of check 7's sweep instead of once per distinct graph, an edge
as a frozen dataclass instead of a tuple, a torus vector decoded from an
isometry's key instead of built from integers, a template elided after it is
built instead of built elided, triangle orders from Fraction sums instead of
integers, every Isom3 product over a common denominator and every inverse
over a doubled one instead of flags-only and same-denominator steps, QuatExt
products from Hamilton tuples instead of eight integer formulas,
permutations composed by a comprehension instead of ``itemgetter``, quotient
tables keyed by label pairs instead of read by position), so
agreement between the two is meaningful evidence.
"""

import argparse
import ast
import io
import operator
import re
import tokenize
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from pa import cli, dihedral, groups, orbigraph, verify
from pa.cosetenum import CosetTable
from pa.cusplattice import (
    PointGroupOrbit,
    lattice,
    point_group_orbit,
    vectors_with_coef2_at_most,
    word_for_vector,
)
from pa.orbigraph import (
    Edge,
    GraphStructureError,
    H1Z2Report,
    WeightedGraphOrbifold,
    _elide_weight_one,
    weight_is_even,
    weight_str,
)
from pa.groups import recognize
from pa.quat import ISOM_ID, J, L, Q_I, Q_J, Q_ONE, Q_S, Q_W, Isom3, QuatExt
from pa.slopes import Slope, slope


def eval_cf_tower(terms):
    """Value of 1/(a1 + 1/(a2 + ... + 1/an)) as a Fraction (empty -> 0)."""
    acc = Fraction(0)
    for a in reversed(terms):
        acc = Fraction(1, a + acc)
    return acc


def closure_count(gens, mul, identity, cap=10**5):
    """Order of <gens> by repeated product-set growth (not BFS)."""
    current = {identity} | set(gens)
    while True:
        grown = current | {mul(a, b) for a in current for b in gens}
        if len(grown) > cap:
            raise OverflowError("closure exceeded cap")
        if grown == current:
            return len(current)
        current = grown


def even_subgraph_betti(vertex_ids, edge_triples):
    """dim H_1 of an S^3 graph orbifold over Z_2 = first Betti number
    (E - V + C) of the subgraph of even-weight edges, via union-find.

    ``edge_triples`` are (end1, end2, weight) with weight None meaning
    infinity; infinite counts as even.
    """
    verts = list(vertex_ids)
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_even = 0
    for a, b, w in edge_triples:
        if w is not None and w % 2 == 1:
            continue
        n_even += 1
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in verts})
    return n_even - len(verts) + components


def germs_by_scan(g, v):
    """The germs of vertex v by one scan of every edge of g, loops twice."""
    out = []
    for e in g.edges():
        if e.ends[0] == v:
            out.append(e)
        if e.ends[1] == v:
            out.append(e)
    return out


@dataclass(frozen=True)
class DataclassEdge:
    """``pa.orbigraph.Edge`` as the frozen dataclass it was before it
    became a tuple: ``ends`` is a pair of vertex ids, kept sorted (equal
    for a loop).  Any other number of ends raises GraphStructureError."""

    id: str
    ends: tuple[str, str]
    weight: object

    def __post_init__(self):
        ends = self.ends
        if type(ends) is tuple and len(ends) == 2 and not ends[1] < ends[0]:
            return
        ends = tuple(sorted(ends))
        if len(ends) != 2:
            raise GraphStructureError(
                f"edge {self.id!r} needs exactly two ends, got {len(ends)}"
            )
        object.__setattr__(self, "ends", ends)

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    def other_end(self, v: str) -> str:
        a, b = self.ends
        return b if v == a else a


def template_graph_by_rescan(p_even, arc_weights, w_plus, w_minus):
    """The 2-bridge template as first written: end tables built per call,
    ends given unsorted, elided by ``elide_weight_one_by_rescan``."""
    vertices = [("a1", False), ("a2", False), ("b1", False), ("b2", False)]
    if p_even:
        ends = {"K1": ("a1", "b1"), "K2": ("a1", "b1"),
                "K3": ("a2", "b2"), "K4": ("a2", "b2")}
    else:
        ends = {"K1": ("a1", "b1"), "K2": ("b1", "a2"),
                "K3": ("a2", "b2"), "K4": ("b2", "a1")}
    edges = [Edge(k, ends[k], arc_weights[k]) for k in ("K1", "K2", "K3", "K4")]
    edges.append(Edge("tplus", ("a1", "a2"), w_plus))
    edges.append(Edge("tminus", ("b1", "b2"), w_minus))
    return elide_weight_one_by_rescan("S3", vertices, edges)


def template_graph_by_elision(p_even, arc_weights, w_plus, w_minus):
    """The 2-bridge template built whole, K1..K4 then tplus and tminus, and
    then passed through the package's ``_elide_weight_one``: the form the
    family constructors used before they built the elided graph directly."""
    if p_even:
        arcs = (("K1", ("a1", "b1")), ("K2", ("a1", "b1")),
                ("K3", ("a2", "b2")), ("K4", ("a2", "b2")))
    else:
        arcs = (("K1", ("a1", "b1")), ("K2", ("a2", "b1")),
                ("K3", ("a2", "b2")), ("K4", ("a1", "b2")))
    edges = [Edge(k, ends, arc_weights[k]) for k, ends in arcs]
    edges.append(Edge("tplus", ("a1", "a2"), w_plus))
    edges.append(Edge("tminus", ("b1", "b2"), w_minus))
    vertices = (("a1", False), ("a2", False), ("b1", False), ("b2", False))
    return _elide_weight_one("S3", vertices, edges)


def elide_weight_one_by_rescan(ambient, vertices, edges):
    """The first weight-1 elision: every pass scans all edges for each
    vertex's germs and restarts from the smallest vertex after a change."""
    vertices = dict(vertices)
    edges = {e.id: e for e in edges if e.weight != 1}

    def germs_of(v):
        out = []
        for e in edges.values():
            for end in e.ends:
                if end == v:
                    out.append(e)
        return out

    changed = True
    while changed:
        changed = False
        for v in sorted(vertices):
            if vertices[v]:
                continue
            germs = germs_of(v)
            if len(germs) == 0:
                del vertices[v]
                changed = True
                break
            if len(germs) == 1:
                raise GraphStructureError(
                    f"elision leaves vertex {v!r} with a single germ"
                )
            if len(germs) == 2:
                e1, e2 = germs
                if e1 is e2:
                    continue
                if e1.weight != e2.weight:
                    raise GraphStructureError(
                        f"cannot smooth vertex {v!r}: germ weights "
                        f"{weight_str(e1.weight)} != {weight_str(e2.weight)}"
                    )
                new_id = min(e1.id, e2.id)
                merged = Edge(new_id, (e1.other_end(v), e2.other_end(v)), e1.weight)
                del edges[e1.id], edges[e2.id]
                del vertices[v]
                edges[new_id] = merged
                changed = True
                break
    return WeightedGraphOrbifold(ambient, list(vertices.items()), list(edges.values()))


# The 2-bridge template K(r) u tau+ u tau- with its weight-1 tunnels
# elided, by (p even, w(tau+) = 1, w(tau-) = 1): the vertex ids, and each
# edge's id and sorted ends, in the order ``_elide_weight_one`` leaves them,
# written out by hand, as the family constructors first read them.
# With no tunnel elided it is the template itself: tau+ = tplus joins a1 and
# a2, tau- = tminus joins b1 and b2, and the arcs K1..K4 of K(r) form the
# 4-cycle a1-b1-a2-b2 for p odd and two parallel pairs a1=b1 (K1, K2) and
# a2=b2 (K3, K4), one per link component, for p even.  Eliding a tunnel
# leaves its two ends with two arcs each, and each is smoothed in sorted
# order: its two arcs become one edge with the smaller id, placed last.
# For p odd with both tunnels elided, b1 is smoothed too, and b2 keeps one
# loop, a free circle; for p even the a-smoothings leave loops, and nothing
# more is smoothed.
TEMPLATE_SHAPES = {
    (False, False, False): (
        ("a1", "a2", "b1", "b2"),
        (("K1", ("a1", "b1")), ("K2", ("a2", "b1")), ("K3", ("a2", "b2")),
         ("K4", ("a1", "b2")), ("tplus", ("a1", "a2")), ("tminus", ("b1", "b2"))),
    ),
    (False, True, False): (
        ("b1", "b2"),
        (("tminus", ("b1", "b2")), ("K1", ("b1", "b2")), ("K2", ("b1", "b2"))),
    ),
    (False, False, True): (
        ("a1", "a2"),
        (("tplus", ("a1", "a2")), ("K1", ("a1", "a2")), ("K3", ("a1", "a2"))),
    ),
    (False, True, True): (("b2",), (("K1", ("b2", "b2")),)),
    (True, False, False): (
        ("a1", "a2", "b1", "b2"),
        (("K1", ("a1", "b1")), ("K2", ("a1", "b1")), ("K3", ("a2", "b2")),
         ("K4", ("a2", "b2")), ("tplus", ("a1", "a2")), ("tminus", ("b1", "b2"))),
    ),
    (True, True, False): (
        ("b1", "b2"),
        (("tminus", ("b1", "b2")), ("K1", ("b1", "b1")), ("K3", ("b2", "b2"))),
    ),
    (True, False, True): (
        ("a1", "a2"),
        (("tplus", ("a1", "a2")), ("K1", ("a1", "a1")), ("K3", ("a2", "a2"))),
    ),
    (True, True, True): (("b1", "b2"), (("K1", ("b1", "b1")), ("K3", ("b2", "b2")))),
}


def float_literals_by_tokenize(source):
    """Criterion 9's first scan: the float and complex NUMBER tokens and the
    NAME tokens ``float`` of ``tokenize``'s stream.  Before Python 3.12 an
    f-string is one STRING token: the expressions of its replacement fields,
    nested format specs included, are gathered from ``ast`` and scanned
    again in the order of their positions, each in parentheses so that a
    field across lines tokenizes whole.  From 3.12 the fields' tokens are in
    the stream itself, and the literal text is FSTRING_MIDDLE."""
    bad = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.STRING and "f" in re.match("[a-zA-Z]*", tok.string)[0].lower():
            fields, specs = [], [ast.parse(tok.string, mode="eval").body]
            while specs:
                for part in specs.pop().values:
                    if isinstance(part, ast.FormattedValue):
                        fields.append(part.value)
                        if part.format_spec is not None:
                            specs.append(part.format_spec)
            for value in sorted(fields, key=lambda v: (v.lineno, v.col_offset)):
                field = ast.get_source_segment(tok.string, value)
                bad += float_literals_by_tokenize(f"({field})")
        elif tok.type == tokenize.NUMBER:
            text = tok.string.lower()
            if text.startswith(("0x", "0o", "0b")):
                continue
            if "." in text or "e" in text or text.endswith("j"):
                bad.append(tok.string)
        elif tok.type == tokenize.NAME and tok.string == "float":
            bad.append("float")
    return bad


# Criterion 9's regular-expression scan with every name captured: the first
# form of ``verify._TOKENS``, whose first alternative ate only the characters
# that start no token, so the name alternative captured each identifier and
# the scan discarded all but ``float``.

TOKENS_BY_NAME_CAPTURE = re.compile(
    "|".join((
        r"""[^\w#'".]+""",
        tokenize.Comment,
        "((?:[rR]?[fF]|[fF][rR])(?:" + verify._STRINGS + "))",
        "[bBrRuU]{0,2}(?:" + verify._STRINGS + ")",
        "(" + re.sub(r"\((?!\?)", "(?:", tokenize.Number) + ")",
        "(" + tokenize.Name + ")",
    )),
    re.DOTALL,
)


def reported_tokens_by_name_capture(source):
    """The (f-string, number, name) matches of ``TOKENS_BY_NAME_CAPTURE``
    that the scan reads: f-strings, numbers and the name ``float``."""
    return [
        match
        for match in TOKENS_BY_NAME_CAPTURE.findall(source)
        if match[0] or match[1] or match[2] == "float"
    ]


def float_literals_by_name_capture(source):
    """``verify._float_literals`` over ``TOKENS_BY_NAME_CAPTURE``."""
    bad = []
    for fstring, number, name in reported_tokens_by_name_capture(source):
        if fstring:
            joined = ast.parse(fstring, mode="eval").body
            for field in verify._field_sources(fstring, joined):
                bad += float_literals_by_name_capture(field)
        elif number:
            text = number.lower()
            if text.startswith(("0x", "0o", "0b")):
                continue
            if "." in text or "e" in text or text.endswith("j"):
                bad.append(number)
        else:
            bad.append("float")
    return bad


def gf2_rref_by_rebuild(rows, ncols):
    """The first GF(2) RREF: column by column, rebuilding the lists of
    pending and reduced rows at every pivot."""
    pivots, reduced = [], []
    rows = [r for r in rows if r]
    for c in range(ncols):
        pivot_row = None
        for i, r in enumerate(rows):
            if r >> c & 1:
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            continue
        rows = [r ^ pivot_row if r >> c & 1 else r for r in rows]
        reduced = [r ^ pivot_row if r >> c & 1 else r for r in reduced]
        pivots.append(c)
        reduced.append(pivot_row)
    return pivots, reduced


def h1_z2_by_rebuild(g):
    """The first ``h1_z2``: ``gf2_rref_by_rebuild`` and the free columns
    found by membership in the pivot list."""
    weights = {e.id: e.weight for e in g.edges()}
    eids = sorted(weights)
    col = {eid: i for i, eid in enumerate(eids)}
    rows = []
    for eid in eids:
        if not weight_is_even(weights[eid]):
            rows.append(1 << col[eid])
    for v in g.vertex_ids():
        mask = 0
        for e in g.germs(v):
            if not e.is_loop:
                mask ^= 1 << col[e.id]
        if mask:
            rows.append(mask)
    pivots, reduced = gf2_rref_by_rebuild(rows, len(eids))
    free = [i for i in range(len(eids)) if i not in pivots]
    free_index = {c: i for i, c in enumerate(free)}
    classes = {}
    pivot_row = {c: r for c, r in zip(pivots, reduced)}
    for eid in eids:
        c = col[eid]
        vec = [0] * len(free)
        if c in free_index:
            vec[free_index[c]] = 1
        else:
            row = pivot_row[c]
            for fc, fi in free_index.items():
                if row >> fc & 1:
                    vec[fi] = 1
        classes[eid] = tuple(vec)
    return H1Z2Report(len(free), tuple(eids[i] for i in free), classes)


def gf2_rank_dense(rows, ncols):
    """GF(2) rank by dense elimination choosing pivots right-to-left
    (the opposite column order to the package's bitmask RREF)."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols - 1, -1, -1):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [x ^ y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def spherical_triangle_order_by_fractions(p, q, r):
    """``cosetenum.spherical_triangle_order`` as first written, with the
    excess 1/p + 1/q + 1/r - 1 a sum of Fractions: the order, None when
    the type is not spherical, ValueError for an entry below 1 or a
    non-integral order."""
    if min(p, q, r) < 1:
        raise ValueError("triangle parameters must be positive")
    if min(p, q, r) == 1:
        return gcd(*sorted((p, q, r))[1:])
    excess = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
    if excess <= 0:
        return None
    order = 2 / excess
    if order.denominator != 1:
        raise ValueError(f"non-integral spherical order for {(p, q, r)}")
    return int(order)


def lattice_form(kind, m, n):
    if kind == "T244":
        return 4 * (m * m + n * n)
    if kind == "T236":
        return 12 * (m * m + m * n + n * n)
    raise ValueError(kind)


def brute_vector_count(kind, coef2, window=40):
    """Number of nonzero lattice vectors of squared length coef2, counted
    over a fixed large window (independent of the library's radius bound)."""
    return sum(
        1
        for m in range(-window, window + 1)
        for n in range(-window, window + 1)
        if (m, n) != (0, 0) and lattice_form(kind, m, n) == coef2
    )


def perm_order_brute(perm):
    """Order of a permutation by repeated composition."""
    identity = tuple(range(len(perm)))
    acc = tuple(perm)
    k = 1
    while acc != identity:
        acc = tuple(perm[i] for i in acc)
        k += 1
    return k


def normal_by_all_elements(elements, subgroup, mul, inv):
    """Whether x*S*x^-1 = S for every x among ``elements``: the normality
    test over all elements and all of S, not over generators."""
    S = set(subgroup)
    return all({mul(mul(x, s), inv(x)) for s in S} == S for x in elements)


# D_S = S^1 u S^1*j and Isom+(S^3) by the Fraction rule: an element of D_S is
# (t, jflag) for e^{2pi*i*t} * j^jflag, an isometry a pair of them.

HALF = Fraction(1, 2)


def ds_mul(a, b):
    """The D_S product: j*e^{2pi*i*t} = e^{-2pi*i*t}*j and j*j = e^{pi*i}."""
    (s, j), (t, k) = a, b
    if not j:
        return ((s + t) % 1, k)
    if not k:
        return ((s - t) % 1, True)
    return ((s - t + HALF) % 1, False)


def ds_inv(a):
    t, j = a
    return ((t + HALF) % 1, True) if j else (-t % 1, False)


def isom_canonical(g1, g2):
    """The pair modulo the kernel <(-1,-1)>: negate both (add 1/2 to both
    angles) when g1's angle is at least 1/2."""
    if g1[0] >= HALF:
        g1, g2 = ((g1[0] + HALF) % 1, g1[1]), ((g2[0] + HALF) % 1, g2[1])
    return (g1, g2)


def isom_mul(x, y):
    return isom_canonical(ds_mul(x[0], y[0]), ds_mul(x[1], y[1]))


def isom_inv(x):
    return isom_canonical(ds_inv(x[0]), ds_inv(x[1]))


def isom_l(t1, t2):
    """L(t1, t2) = phi(e^{pi*i(t1+t2)}, e^{pi*i(t2-t1)})."""
    t1, t2 = Fraction(t1), Fraction(t2)
    return isom_canonical((((t1 + t2) / 2) % 1, False), (((t2 - t1) / 2) % 1, False))


ISOM_J = ((Fraction(0), True), (Fraction(0), True))


def isom_format(x):
    """"L(t1, t2)" for the L-part, then ·J, ·J1 or ·J2 by the j-flags."""
    tails = {(True, True): "·J", (False, True): "·J1", (True, False): "·J2"}
    j_inv = ds_inv((Fraction(0), True))
    (g1, g2), flags = x, (x[0][1], x[1][1])
    base = isom_canonical(
        ds_mul(g1, j_inv) if flags[0] else g1, ds_mul(g2, j_inv) if flags[1] else g2
    )
    s1, s2 = base[0][0], base[1][0]
    return f"L({(s1 - s2) % 1}, {(s1 + s2) % 1})" + tails.get(flags, "")


# Quaternions over Q(sqrt 2) by the Fraction rule: a coordinate is (a, b)
# for a + b*sqrt(2), a quaternion the four coordinates (w, x, y, z).


def _qs_mul(u, v):
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _qs_sum(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _qs_neg(u):
    return (-u[0], -u[1])


def quat_mul(p, q):
    """The Hamilton product with Q(sqrt 2) coordinates."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = p, q
    m, n = _qs_mul, _qs_neg
    return (
        _qs_sum(m(w1, w2), n(m(x1, x2)), n(m(y1, y2)), n(m(z1, z2))),
        _qs_sum(m(w1, x2), m(x1, w2), m(y1, z2), n(m(z1, y2))),
        _qs_sum(m(w1, y2), n(m(x1, z2)), m(y1, w2), m(z1, x2)),
        _qs_sum(m(w1, z2), m(x1, y2), n(m(y1, x2)), m(z1, w2)),
    )


# cos and sin of 2pi*k/8, k = 0..7, each as (A, B) for (A + B*sqrt 2)/2.
COS_SIN_8TH = (
    ((2, 0), (0, 0)),
    ((0, 1), (0, 1)),
    ((0, 0), (2, 0)),
    ((0, -1), (0, 1)),
    ((-2, 0), (0, 0)),
    ((0, -1), (0, -1)),
    ((0, 0), (-2, 0)),
    ((0, 1), (0, -1)),
)


def embed_ds(g):
    """Embed a D_S element (t, jflag), e^{2pi*i*t} * j^jflag, into the
    QuatExt model.

    Only angles with denominator dividing 8 have cosine and sine in
    Q(sqrt 2); anything else is rejected.
    """
    t, j = g
    t = Fraction(t) % 1
    if 8 % t.denominator:
        raise ValueError(f"angle {t} has no Q(sqrt2) coordinates")
    (ca, cb), (sa, sb) = COS_SIN_8TH[t.numerator * (8 // t.denominator)]
    if j:
        # (cos + i sin) * j = cos*j + sin*k
        return QuatExt(0, 0, ca, sa, 0, 0, cb, sb)
    return QuatExt(ca, sa, 0, 0, cb, sb, 0, 0)


# The dihedral congruence witness and the oriented-orbifold rule, in their
# first forms.


def solve_k_search(r, d1, d2):
    """Least (k1, k2) in lexicographic order with gcd(p*d2, k1) = 1,
    gcd(p*d1, k2) = 1 and k2 = q*k1 mod p, by the bounded double search
    k1 <= p*d2, k2 <= p*d1*p."""
    p, q = r.p, r.q
    for k1 in range(1, p * d2 + 1):
        if gcd(p * d2, k1) != 1:
            continue
        for k2 in range(1, p * d1 * p + 1):
            if (k2 - q * k1) % p == 0 and gcd(p * d1, k2) == 1:
                return (k1, k2)
    return None


def same_oriented_rule(a, b):
    """O(q/p;d1,d2) = O(q'/p';d1',d2') as oriented orbifolds: p = p' and
    either q = q' mod p with (d1,d2) = (d1',d2'), or qq' = 1 mod p with
    (d1,d2) = (d2',d1'); group order 2*p*d1*d2 = 4 takes the explicit
    exceptional identifications.  Triples hold reduced finite slopes."""
    (r1, d1, d2), (r2, e1, e2) = a, b
    p = r1.p
    n1 = p * d1 * d2
    if n1 != r2.p * e1 * e2:
        return False
    if n1 == 2:
        if p != r2.p:
            return False
        if p == 1:
            return {d1, d2} == {e1, e2} == {1, 2}
        return p == 2 and d1 == d2 == e1 == e2 == 1
    if p != r2.p:
        return False
    q1, q2 = r1.q, r2.q
    if (q1 - q2) % p == 0 and (d1, d2) == (e1, e2):
        return True
    return (q1 * q2 - 1) % p == 0 and (d1, d2) == (e2, e1)


# The cusp spectrum in its first form: one lattice enumeration per value.


def orbits_per_value(kind, coef2):
    """Point-group orbits of the vectors of squared length coef2, from an
    enumeration capped at coef2 itself."""
    lat = lattice(kind)
    vectors = [v for v in vectors_with_coef2_at_most(lat, coef2) if v.coef2 == coef2]
    orbits, assigned = [], set()
    for vec in sorted(vectors, key=lambda v: (v.m, v.n)):
        if (vec.m, vec.n) in assigned:
            continue
        members = point_group_orbit(vec)
        assigned.update((v.m, v.n) for v in members)
        rep = max((v for v in members if v.m >= 0 and v.n >= 0), key=lambda v: (v.m, v.n))
        orbits.append(PointGroupOrbit(rep, members, word_for_vector(lat, rep.m, rep.n)))
    return orbits


def spectrum_per_value(kind, count):
    """The first ``count`` values by a doubling cap, then each value's
    orbits from its own enumeration."""
    lat = lattice(kind)
    cap = lat.form(1, 0)
    while True:
        values = sorted({v.coef2 for v in vectors_with_coef2_at_most(lat, cap)})
        if len(values) >= count:
            break
        cap *= 2
    return [(value, orbits_per_value(lat, value)) for value in values[:count]]


# Cusp isometries in their first form: z -> zeta_24^rot * z + trans(l), rot
# in Z/24 and trans in the cyclotomic field Q(zeta_12), a Fraction 4-vector
# in the power basis of zeta_12 (minimal polynomial x^4 - x^2 + 1).


def _vec(a=0, b=0, c=0, d=0):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


_ZERO4 = _vec()


def _zeta12_mul(u, v):
    """Product in Q(zeta_12) via x^4 = x^2 - 1."""
    prod = [Fraction(0)] * 7
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] += a * b
    for deg in (6, 5, 4):
        c, prod[deg] = prod[deg], Fraction(0)
        prod[deg - 2] += c
        prod[deg - 4] -= c
    return tuple(prod[:4])


_ZETA12_POWERS = [_vec(1)]
for _ in range(11):
    _ZETA12_POWERS.append(_zeta12_mul(_ZETA12_POWERS[-1], _vec(0, 1)))


class Zeta12Isometry:
    """z -> zeta_24^rot * z + trans(l); the cusp generators only ever
    produce even exponents, which keep trans in Q(zeta_12)."""

    def __init__(self, rot, trans):
        self.rot = rot % 24
        self.trans = tuple(Fraction(t) for t in trans)

    def _rot_apply(self, v):
        if self.rot % 2 != 0:
            raise ValueError("rotation exponent leaves Q(zeta_12)")
        return _zeta12_mul(_ZETA12_POWERS[self.rot // 2], v)

    def __mul__(self, other):
        # (u1,v1)(u2,v2) = (u1*u2, u1*v2 + v1): right factor acts first.
        moved = self._rot_apply(other.trans)
        return Zeta12Isometry(
            self.rot + other.rot, tuple(a + b for a, b in zip(moved, self.trans))
        )

    def inv(self):
        back = Zeta12Isometry(-self.rot, _ZERO4)._rot_apply(self.trans)
        return Zeta12Isometry(-self.rot, tuple(-a for a in back))


ZETA12_IDENTITY = Zeta12Isometry(0, _ZERO4)

# 2*sqrt(3) = 4z - 2z^3 and e^{i*pi/3} = z^2 for z = zeta_12.
_SQRT3_X2 = _vec(0, 4, 0, -2)

ZETA12_BASIS = {
    "T244": (_vec(2), _vec(0, 0, 0, 2)),  # 2l, 2li
    "T236": (_SQRT3_X2, _zeta12_mul(_SQRT3_X2, _vec(0, 0, 1))),
}

ZETA12_GENERATORS = {
    # a: pi about 0; b: pi/2 about l; c: pi/2 about li.
    "T244": (
        Zeta12Isometry(12, _ZERO4),
        Zeta12Isometry(6, _vec(1, 0, 0, -1)),
        Zeta12Isometry(6, _vec(1, 0, 0, 1)),
    ),
    # a: pi about sqrt(3)l; b: 2pi/3 about 2l*e^{i*pi/6}; c: pi/3 about 0.
    "T236": (
        Zeta12Isometry(12, _SQRT3_X2),
        Zeta12Isometry(8, _SQRT3_X2),
        Zeta12Isometry(4, _ZERO4),
    ),
}


def zeta12_translation(kind, x, y):
    """(x*u + y*v)/2 in the power basis."""
    u, v = ZETA12_BASIS[kind]
    return tuple((x * a + y * b) / 2 for a, b in zip(u, v))


def zeta12_coords_of(kind, trans):
    """Integer (m, n) with m*u + n*v = trans, or None."""
    # Solve over Q by two well-chosen coordinates, then verify fully.
    if kind == "T244":
        m_f, n_f = Fraction(trans[0], 2), Fraction(trans[3], 2)
    else:
        # u = (0,4,0,-2), v = (0,2,0,2): invert the 2x2 minor on
        # coordinates 1 and 3.
        m_f = (trans[1] - trans[3]) / 6
        n_f = (trans[1] + 2 * trans[3]) / 6
    if m_f.denominator != 1 or n_f.denominator != 1:
        return None
    m, n = int(m_f), int(n_f)
    return (m, n) if zeta12_translation(kind, 2 * m, 2 * n) == tuple(trans) else None


# Breadth-first closure element by element: the first form of
# ``groups.close``, which is now ``groups.extend`` from the trivial group.


def breadth_first(gens, identity, mul=operator.mul):
    """The elements of <gens> one at a time, in breadth-first order from
    ``identity``: each frontier element times each generator in turn, new
    products kept in the order found.  In a finite group, closure under
    products with the generators suffices: inverses are positive powers."""
    seen = {identity}
    frontier = [identity]
    yield identity
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    new.append(b)
                    yield b
        frontier = new


def breadth_first_group(gens, identity, mul=operator.mul, inv=None):
    """<gens> as a FinGroup listed in ``breadth_first`` order."""
    gens = tuple(gens)
    elements = breadth_first(gens, identity, mul)
    return groups.FinGroup(elements, identity, mul=mul, inv=inv, gens=gens)


# Quotients labelled by products or read from an extension's listed coset
# blocks, and dihedral recognition walking each cycle twice: the first two
# forms of ``FinGroup.quotient`` and the first form of
# ``groups.dihedral_degree``.


def quotient(G, H):
    """G/H for any normal subgroup H of G, as a group of coset labels.

    Raises ValueError unless H's generators lie in G and H is normalized
    by G's generators.  Each coset is labeled by its first element in G's
    element order, found by labelling g*h for every h in H from each
    unlabelled g: one product per element of G.
    """
    if not all(s in G for s in H.gens):
        raise ValueError("not a subset")
    if len(G) % len(H) != 0 or not H.normalized_by(G.gens):
        raise ValueError("not a normal subgroup")
    label = {}
    reps = []
    for g in G.elements:
        if g in label:
            continue
        for s in H:
            label[G.mul(g, s)] = g
        reps.append(g)
    table = {(a, b): label[G.mul(a, b)] for a in reps for b in reps}
    inverse = {a: label[G.inv(a)] for a in reps}
    qmul = lambda a, b: table[a, b]
    return groups.FinGroup(reps, label[G.identity], mul=qmul, inv=inverse.__getitem__)


def quotient_over_every_generator(H, gens, bound=10**5):
    """``FinGroup.quotient`` without dropping the declared generators that
    lie in H: the normality test and the coset search run over every one of
    ``gens``."""
    gens = tuple(gens)
    if not H.normalized_by(gens):
        raise ValueError("not a normal subgroup")
    inverses = [H.identity]
    def find(z):
        if z in H:
            return 0
        for c in range(1, len(inverses)):
            if H.mul(z, inverses[c]) in H:
                return c
        if len(H) * (len(inverses) + 1) > bound:
            raise groups.GroupOverflow(f"closure exceeds bound {bound}")
        inverses.append(H.inv(z))
        return None

    return groups.quotient_group(*groups.coset_search(H.identity, gens, H.mul, find))


def block_quotient(G, H):
    """G/H for G = ``groups.extend(H, gens)`` and H normal in G, read from
    the cosets the extension listed.

    Raises ValueError unless G lists H's elements first and H is normalized
    by G's generators.  ``extend`` lists the right cosets H*z as contiguous
    blocks of |H| elements, each from its first element, so the element at
    position i has the label at position i - i % |H|.  Only the |Q| x |Q|
    table entries and the |Q| inverses are formed as products.
    """
    size, elements = len(H), G.elements
    if elements[:size] != H.elements or len(G) % size != 0:
        raise ValueError("not the subgroup this group extends")
    if not H.normalized_by(G.gens):
        raise ValueError("not a normal subgroup")
    index = {g: i for i, g in enumerate(elements)}

    def label(g):
        i = index[g]
        return elements[i - i % size]

    reps = elements[::size]
    table = {(a, b): label(G.mul(a, b)) for a in reps for b in reps}
    inverse = {a: label(G.inv(a)) for a in reps}
    qmul = lambda a, b: table[a, b]
    return groups.FinGroup(reps, G.identity, mul=qmul, inv=inverse.__getitem__)


def dihedral_degree(G):
    """n if G is dihedral of order 2n, else None, as ``groups.dihedral_degree``
    but with each candidate's order from ``G.element_order`` and its cycle
    from a second walk of n products."""
    size = len(G)
    if size % 2 != 0:
        return None
    n = size // 2
    if n == 1:
        return 1 if G.element_order(G.elements[-1]) <= 2 else None
    for x in G:
        if x == G.identity or G.element_order(x) != n:
            continue
        cyc = set()
        acc = G.identity
        for _ in range(n):
            cyc.add(acc)
            acc = G.mul(acc, x)
        xi = G.inv(x)
        for s in G:
            if s in cyc:
                continue
            if G.mul(s, s) == G.identity and G.mul(G.mul(s, x), G.inv(s)) == xi:
                return n
    return None


def dihedral_degree_by_conjugation(G):
    """n if G is dihedral of order 2n, else None, by the search that
    ``groups.dihedral_degree`` first made: each candidate x walks its powers
    once, and an x of order n is dihedral when some involution s outside
    <x> has s*x*s^-1 = x^-1."""
    size = len(G)
    if size % 2 != 0:
        return None
    n = size // 2
    if n == 1:
        return 1 if G.element_order(G.elements[-1]) <= 2 else None
    for x in G:
        if x == G.identity:
            continue
        cyc = {G.identity}
        acc = x
        while acc != G.identity:
            if len(cyc) == size:
                raise ValueError("element order exceeds group order")
            cyc.add(acc)
            acc = G.mul(acc, x)
        if len(cyc) != n:
            continue
        xi = G.inv(x)
        for s in G:
            if s in cyc:
                continue
            if G.mul(s, s) == G.identity and G.mul(G.mul(s, x), G.inv(s)) == xi:
                return n
    return None


# Gamma and N(Gamma) closed breadth-first, element orders by walking the
# powers: the first forms of ``dihedral.gamma``, ``dihedral.normalizer`` and
# the certificate's ``order_from_multiple``.

ISOM_ORDER_BOUND = 10**6


def isom_order(g):
    """The order of an isometry, walking g, g^2, ... up to ISOM_ORDER_BOUND."""
    acc = g
    for n in range(1, ISOM_ORDER_BOUND + 1):
        if acc == ISOM_ID:
            return n
        acc = acc * g
    raise ValueError(f"order exceeds the bound {ISOM_ORDER_BOUND}")


def closure_gamma(params):
    """Gamma = <f, J> closed breadth-first and its certificate, orders by
    the walk."""
    n = params.n
    f = dihedral._rotation(params)
    group = breadth_first_group([f, J], ISOM_ID)
    cert = MappingProxyType({
        "order": len(group),
        "expected_order": 2 * n,
        "order_f": isom_order(f),
        "order_J": isom_order(J),
        "dihedral_relation": J * f * J.inv() == f.inv(),
    })
    if len(group) != 2 * n:
        raise groups.GroupOverflow(f"|Gamma| = {len(group)} != 2n = {2 * n}; arithmetic bug")
    return group, cert


def closure_normalizer(params, group):
    """N(Gamma) = <*rotations, J> closed breadth-first, checked to normalize
    ``group``."""
    r, d1, d2 = params.r, params.d1, params.d2
    norm = breadth_first_group([*dihedral._normalizer_rotations(params), J], ISOM_ID)
    if not group.normalized_by(norm.gens):
        raise ArithmeticError(f"claimed N(Gamma) of ({r};{d1},{d2}) fails to normalize Gamma")
    return norm


# The generators over Fraction angles, through ``quat.L``: the first forms of
# ``dihedral._rotation`` and ``dihedral._normalizer_rotations``.


def rotation_by_fractions(params):
    """f = L(k1/(p*d2), k2/(p*d1))."""
    p = params.r.p
    return L(Fraction(params.k1, p * params.d2), Fraction(params.k2, p * params.d1))


def normalizer_rotations_by_fractions(params):
    """L(k1/(2p*d2), k2/(2p*d1)), L(1/2, 0) and L(0, 1/2)."""
    p = params.r.p
    return [
        L(Fraction(params.k1, 2 * p * params.d2), Fraction(params.k2, 2 * p * params.d1)),
        L(Fraction(1, 2), 0),
        L(0, Fraction(1, 2)),
    ]


# The O key read from a descriptor's family: the first form of
# ``slopes.dihedral_key``, inline in ``orbigraph.canonical_key``.


def dihedral_key_from_family(desc):
    family = desc.family
    r = slope(family["r"])
    d1, d2 = family["d_plus"], family["d_minus"]
    p = r.p
    q = r.q % p
    qc, c1, c2 = min((q, d1, d2), (pow(q, -1, p), d2, d1))
    return f"O[{qc}/{p};{c1},{c2}]"


# A dihedral query by closures: the first form of ``dihedral.orbifold``.


def closure_orbifold(r, d1, d2):
    """(params, Gamma, cert, isom, quotient) with Gamma and N(Gamma) closed
    breadth-first, N(Gamma)/Gamma from ``quotient`` and its tag from
    ``recognize``; the quotient is None for (d1, d2) = (1, 1)."""
    params = dihedral.params_for(r, d1, d2)
    group, cert = closure_gamma(params)
    if (d1, d2) == (1, 1):
        return params, group, cert, dihedral._isom_tag_d1(params.r), None
    if dihedral.is_trivial_theta(params.r, d1, d2):
        factor, _ = dihedral.exceptional_isom()
        return params, group, cert, dihedral.TAG_D3xZ2, factor
    factor = quotient(closure_normalizer(params, group), group)
    return params, group, cert, recognize(factor), factor


# A torus vector read back from an isometry's key: the first form of the
# integer vectors of ``dihedral._normalizer_vectors``.


def torus_vector(g, M):
    """M*(t1, t2) for g = L(t1, t2) or L(t1, t2)*J with t1, t2 in (1/M)Z.

    Clearing g's j-flags leaves its L-part (see ``quat.format_isom``), whose
    angles are (a1 - a2)/D and (a1 + a2)/D over g's key (D, a1, j1, a2, j2).
    """
    D, a1, j1, a2, j2 = g
    if j1 != j2:
        raise ValueError(f"{g} is neither L(s) nor L(s)*J")
    x, rx = divmod((a1 - a2) * M, D)
    y, ry = divmod((a1 + a2) * M, D)
    if rx or ry:
        raise ValueError(f"the angles of {g} are not in (1/{M})Z")
    return (x, y)


# The torus quotient by keys: the first form of ``dihedral.torus_quotient``'s
# search and table.


def torus_quotient_by_keys(a_gamma, rotations):
    """N/Gamma from the torus keys mod A_Gamma, for N = <rotations, J>
    normalizing Gamma with N/Gamma = (Z2)^2: ``normalizer``'s coset search
    replayed on keys, stopped at the fourth coset, the table built from the
    keys of the sums, and every coset its own inverse."""
    M = a_gamma.M
    search = (*rotations, J)
    reps = [ISOM_ID]
    label = {(0, 0): ISOM_ID}
    # reps grows while it is read: breadth-first over the cosets
    for z in (y * s for y in reps for s in search):
        key = a_gamma.key(*torus_vector(z, M))
        if key not in label:
            label[key] = z
            reps.append(z)
            if len(reps) == 4:
                break
    # (L(s)*J^e)*(L(t)*J^k) = L(s +- t)*J^(e+k) and 2t lies in A_Gamma, so
    # the product's coset has the key of s + t, and each coset is its own
    # inverse.
    vectors = {g: torus_vector(g, M) for g in reps}
    table = {
        (a, b): label[a_gamma.key(x + u, y + v)]
        for a, (x, y) in vectors.items()
        for b, (u, v) in vectors.items()
    }
    return groups.FinGroup(vectors, ISOM_ID, mul=lambda a, b: table[a, b], inv=lambda a: a)


# The torus quotient labelled by products: the second form of
# ``dihedral.torus_quotient``, whose coset search ran over isometries.


def torus_quotient_by_products(a_gamma, rotations):
    """N/Gamma for N = <rotations, J>, N normalizing Gamma: the coset search
    over the isometries (*rotations, J) from the identity, each product
    placed by the key of its torus vector mod A_Gamma and each coset
    labelled by the product that found it."""
    M = a_gamma.M
    index = {(0, 0): 0}
    def find(z):
        key = a_gamma.key(*torus_vector(z, M))
        if key in index:
            return index[key]
        index[key] = len(index)
        return None

    search = groups.coset_search(ISOM_ID, (*rotations, J), operator.mul, find)
    return groups.quotient_group(*search)


# The trivial theta-orbifold's normalizer listed pair by pair: the first
# form of ``dihedral.exceptional_isom``'s counts.


def exceptional_normalizer_counts():
    """(pairs, isometries) of N(Gamma~) for O(0/1;1,2): its pairs listed by
    extending Gamma~ coset by coset, and their classes under g ~ -g."""
    mul, inv = dihedral._pair_mul, dihedral._pair_inv
    one = (Q_ONE, Q_ONE)
    gamma_raw = groups.close([(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=mul, inv=inv)
    n_raw = groups.extend(gamma_raw, [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)], 192)
    classes = {min(g, (-g[0], -g[1])) for g in n_raw}
    return len(n_raw), len(classes)


# Checks 1-3 as three sweeps, each closing every group it needs itself,
# breadth-first: the first form of ``verify``'s one dihedral pass.  Every
# call is looked up at call time, so a monkeypatch of ``closure_gamma`` or
# ``closure_normalizer`` reaches the sweeps as one of ``dihedral.gamma`` or
# ``dihedral.normalizer`` reaches the pass, and one of the other library
# calls reaches both.


def _dihedral_points():
    for p in range(1, 9):
        for q in range(p):
            if gcd(q, p) != 1:
                continue
            for d1 in range(1, 5):
                for d2 in range(1, 5):
                    if gcd(d1, d2) == 1:
                        yield Slope(q, p), d1, d2


def _criterion2_points():
    for r, d1, d2 in _dihedral_points():
        if (d1, d2) != (1, 1) and not dihedral.is_trivial_theta(r, d1, d2):
            yield r, d1, d2


def _quotient_table(quotient):
    return [[quotient.mul(a, b) for b in quotient] for a in quotient]


def _lattice_agrees(r, d1, d2, order, factor=None):
    if (d1, d2) == (1, 1) or dihedral.is_trivial_theta(r, d1, d2):
        # only check 1 covers these points, and it reads only |Gamma|
        cert = dihedral.gamma_lattice(r, d1, d2).cert
        return cert["order"] == order
    record = dihedral.orbifold(r, d1, d2)
    if record.cert["order"] != order:
        return False
    if factor is None:
        return True
    return (
        record.isom == groups.recognize(factor)
        and record.quotient.elements == factor.elements
        and _quotient_table(record.quotient) == _quotient_table(factor)
    )


def sweep_dihedral_order():
    points = 0
    for r, d1, d2 in _dihedral_points():
        params = dihedral.params_for(r, d1, d2)
        group, cert = closure_gamma(params)
        n = params.n
        if len(group) != 2 * n or not cert["dihedral_relation"]:
            return False, {"point": f"({r};{d1},{d2})", "cert": dict(cert)}
        if dihedral_degree(group) != n:
            return False, {"point": f"({r};{d1},{d2})", "not_dihedral": n}
        if not _lattice_agrees(r, d1, d2, len(group)):
            return False, {"point": f"({r};{d1},{d2})", "lattice": "disagrees"}
        points += 1
    return True, {"points": points}


def sweep_isometry_groups():
    points = 0
    for r, d1, d2 in _criterion2_points():
        params = dihedral.params_for(r, d1, d2)
        group, _ = closure_gamma(params)
        factor = quotient(closure_normalizer(params, group), group)
        tag = groups.recognize(factor)
        if tag != dihedral.TAG_Z2SQ or len(factor) != 4:
            return False, {"point": f"({r};{d1},{d2})", "tag": tag}
        for g in factor:
            if factor.mul(g, g) != factor.identity:
                return False, {"point": f"({r};{d1},{d2})", "non_involution": True}
        if not _lattice_agrees(r, d1, d2, len(group), factor):
            return False, {"point": f"({r};{d1},{d2})", "lattice": "disagrees"}
        points += 1
    return True, {"points": points}


def sweep_normalizer_soundness():
    points = 0
    for r, d1, d2 in _criterion2_points():
        params = dihedral.params_for(r, d1, d2)
        gamma_group, _ = closure_gamma(params)
        try:
            group = closure_normalizer(params, gamma_group)
        except ArithmeticError as err:
            return False, {"point": f"({r};{d1},{d2})", "error": str(err)}
        if len(group) != 8 * params.n:
            return False, {"point": f"({r};{d1},{d2})", "order": len(group)}
        factor = quotient(group, gamma_group)
        if not _lattice_agrees(r, d1, d2, len(gamma_group), factor):
            return False, {"point": f"({r};{d1},{d2})", "lattice": "disagrees"}
        points += 1
    return True, {"points": points}


DIHEDRAL_SWEEPS = {
    "dihedral-order": sweep_dihedral_order,
    "isometry-groups": sweep_isometry_groups,
    "normalizer-soundness": sweep_normalizer_soundness,
}


def run_sweep(sweep):
    """(status, witness) of one sweep, a raised exception failing it as
    ``verify.run_checks`` fails a check that raises."""
    try:
        ok, witness = sweep()
    except Exception as err:
        ok, witness = False, {"error": f"{type(err).__name__}: {err}"}
    return ("pass" if ok else "fail"), witness


def homology_cases_per_point():
    """Check 7 with ``h1_z2`` run at each of the 874 points of its sweep
    instead of once per distinct graph."""
    points = 0
    for r in verify._sweep_slopes(12):
        for d1, d2 in verify._coprime_pairs(5):
            report = orbigraph.h1_z2(orbigraph.make_dihedral(r, d1, d2).graph)
            fault = verify._homology_fault(
                r.p % 2 == 0, d1 % 2 == 1 and d2 % 2 == 1, report
            )
            if fault is not None:
                return False, {"point": f"({r};{d1},{d2})", "dim": report.dimension} | fault
            points += 1
    return True, {"points": points}


# Coset enumeration by the HLT strategy: the first enumerator of the package.


class _TableFull(Exception):
    pass


_HLT_OVERFLOW = "HLT enumeration overflowed the coset bound"


class HLTEnumerator:
    """Todd-Coxeter by the HLT strategy (scan-and-fill over every relator
    from every coset, the power relators included), with one lookahead and
    compaction pass when the coset limit is hit; a second hit raises
    ValueError, as the package's enumerator does when its table is full.
    ``HLTEnumerator(pres, max_cosets).run()`` gives a ``CosetTable``.  Each
    relator is scanned letter by letter, its runs expanded."""

    def __init__(self, pres, max_cosets):
        self.pres = pres
        self.relators = [tuple(x for x, count in rel for _ in range(count)) for rel in pres.relators]
        self.ncols = 2 * pres.ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]

    # -- columns ----------------------------------------------------------
    @staticmethod
    def _col(letter: int) -> int:
        return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)

    @staticmethod
    def _inv_col(col: int) -> int:
        return col ^ 1

    # -- union-find over coincident cosets ---------------------------------
    def _rep(self, k: int) -> int:
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def _merge(self, a: int, b: int, queue: list) -> None:
        a, b = self._rep(a), self._rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def _coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        while queue:
            dead = queue.pop(0)
            row = self.table[dead]
            for col in range(self.ncols):
                dest = row[col]
                if dest is None:
                    continue
                self.table[dest][self._inv_col(col)] = None
                mu, nu = self._rep(dead), self._rep(dest)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][self._inv_col(col)] is not None:
                    self._merge(mu, self.table[nu][self._inv_col(col)], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][self._inv_col(col)] = mu

    # -- defining and scanning ---------------------------------------------
    def _define(self, coset: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise _TableFull
        new = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(new)
        self.table[coset][col] = new
        self.table[new][self._inv_col(col)] = coset
        return new

    def _scan(self, coset: int, word, fill: bool) -> None:
        cols = [self._col(x) for x in word]
        f, b = coset, coset
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and self.table[b][self._inv_col(cols[j])] is not None:
                b = self.table[b][self._inv_col(cols[j])]
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if not fill:
                return
            if i == j:
                self.table[f][cols[i]] = b
                self.table[b][self._inv_col(cols[i])] = f
                return
            f = self._define(f, cols[i])
            i += 1

    # -- main loop ----------------------------------------------------------
    def _hlt_pass(self) -> None:
        alpha = 0
        while alpha < len(self.table):
            if self._rep(alpha) != alpha:
                alpha += 1
                continue
            for rel in self.relators:
                self._scan(alpha, rel, fill=True)
                if self._rep(alpha) != alpha:
                    break
            if self._rep(alpha) == alpha:
                for col in range(self.ncols):
                    if self.table[alpha][col] is None:
                        self._define(alpha, col)
            alpha += 1

    def _lookahead(self) -> None:
        for alpha in range(len(self.table)):
            if self._rep(alpha) != alpha:
                continue
            for rel in self.relators:
                self._scan(alpha, rel, fill=False)
                if self._rep(alpha) != alpha:
                    break

    def _compact(self) -> None:
        live = [i for i in range(len(self.table)) if self._rep(i) == i]
        remap = {old: new for new, old in enumerate(live)}
        self.table = [
            [None if d is None else remap[self._rep(d)] for d in self.table[i]]
            for i in live
        ]
        self.p = list(range(len(self.table)))

    def run(self) -> CosetTable:
        used_lookahead = False
        while True:
            try:
                self._hlt_pass()
                break
            except _TableFull:
                if used_lookahead:
                    raise ValueError(_HLT_OVERFLOW)
                used_lookahead = True
                self._lookahead()
                self._compact()
                if len(self.table) >= self.max_cosets:
                    raise ValueError(_HLT_OVERFLOW)
        self._compact()
        return CosetTable(self.pres.ngens, self.table)


# Words one letter at a time: the first form of ``cosetenum``'s word path,
# which expanded every repeat count and walked one coset through one table
# entry per letter.


def word_letters(text, ngens=3):
    """The letters of a word like "b2ac2a", each repeat count expanded:
    (2, 2, 1, 3, 3, 1).  Uppercase letters are inverses (negative)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if not ch.isalpha():
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        idx = ord(ch.lower()) - ord("a") + 1
        if idx > ngens:
            raise ValueError(f"letter {ch!r} out of range in word {text!r}")
        letter = idx if ch.islower() else -idx
        i += 1
        if i < n and text[i] == "^":
            i += 1
            if i >= n or not text[i].isdigit():
                raise ValueError(f"'^' needs a repeat count in word {text!r}")
        j = i
        while j < n and text[j].isdigit():
            j += 1
        count = int(text[i:j]) if j > i else 1
        if count < 1:
            raise ValueError(f"repeat count must be >= 1 in word {text!r}")
        out.extend([letter] * count)
        i = j
    return tuple(out)


def act(table, coset, letter):
    """coset.letter from one entry of a complete ``CosetTable``."""
    col = 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)
    dest = table.rows[coset][col]
    if dest is None:
        raise ValueError("incomplete table")
    return dest


def act_word(table, coset, letters):
    for letter in letters:
        coset = act(table, coset, letter)
    return coset


def act_word_permutation(table, word):
    """i -> i.word one coset and one letter at a time."""
    letters = word_letters(word, table.ngens)
    return tuple(act_word(table, i, letters) for i in range(table.n_cosets))


def whole_parser() -> argparse.ArgumentParser:
    """The ``pa`` parser with every command's arguments, each leaf copying
    ``--json`` from one shared parent parser."""
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
    p.add_argument("slope", type=cli._slope_arg)
    p.set_defaults(func=cli.cmd_link_classify)
    p = linksub.add_parser("equiv", parents=[common])
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("slope2", type=cli._slope_arg)
    p.set_defaults(func=cli.cmd_link_equiv)
    p = linksub.add_parser("cf", parents=[common])
    p.add_argument("slope", type=cli._slope_arg)
    p.set_defaults(func=cli.cmd_link_cf)
    p = linksub.add_parser("hat", parents=[common])
    p.add_argument("slope", type=cli._slope_arg)
    p.set_defaults(func=cli.cmd_link_hat)

    p = sub.add_parser("heckoid", parents=[common], help="Heckoid orbifold graph")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("index", type=cli._fraction, help="half-integer index n (2n >= 3)")
    p.set_defaults(func=cli.cmd_heckoid)

    p = sub.add_parser(
        "dihedral", parents=[common], help="dihedral orbifold group and isometries"
    )
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("d1", type=cli._int_arg)
    p.add_argument("d2", type=cli._int_arg)
    p.set_defaults(func=cli.cmd_dihedral)

    p = sub.add_parser("cusp", parents=[common], help="rigid-cusp lattice spectra")
    p.add_argument("kind", choices=["244", "236", "T244", "T236"])
    p.add_argument("--count", type=cli._int_arg, default=3, help="spectrum length")
    p.add_argument(
        "--brenner",
        action="store_true",
        help="list only orbits short enough to generate a parabolic pair",
    )
    p.set_defaults(func=cli.cmd_cusp)

    tri = sub.add_parser("triangle", help="triangle-group word orders")
    trisub = tri.add_subparsers(dest="subcommand", required=True)
    p = trisub.add_parser("order", parents=[common])
    p.add_argument("type", type=cli._triple, help='spherical type, e.g. "2 3 3"')
    p.add_argument("word", help="word over a,b,c (A,B,C inverses, digits repeat)")
    p.set_defaults(func=cli.cmd_triangle_order)
    p = trisub.add_parser("image", parents=[common])
    p.add_argument("map", type=cli._arrow, help='e.g. "2 4 4 -> 2 2 4"')
    p.add_argument("word")
    p.set_defaults(func=cli.cmd_triangle_image)

    p = sub.add_parser(
        "homology", parents=[common], help="Z2 homology of a graph orbifold JSON file"
    )
    p.add_argument("path")
    p.set_defaults(func=cli.cmd_homology)

    p = sub.add_parser("verify", parents=[common], help="run the verification checks")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("checks", nargs="*", metavar="check-id")
    p.set_defaults(func=cli.cmd_verify)

    return parser


# Element products in the forms the one-step kernels of ``pa.quat``,
# ``pa.cosetenum`` and ``pa.groups`` replaced: every Isom3 product over the
# common-denominator path, every inverse through the constructor over the
# doubled denominator, QuatExt products from Hamilton tuples, permutations
# composed by a comprehension, and quotient tables keyed by label pairs.


def isom3_mul_by_lcm(x, y):
    """x * y for Isom3 keys, the flags-only products included, over the
    common even denominator and the constructor's reduction."""
    D, a1, j1, a2, j2 = x
    E, b1, k1, b2, k2 = y
    if D != E or D & 1:
        if not D % E and not D & 1:
            t = D // E
            b1, b2 = b1 * t, b2 * t
        elif not E % D and not E & 1:
            s = E // D
            D, a1, a2 = E, a1 * s, a2 * s
        else:
            M = lcm(2, D, E)
            s, t = M // D, M // E
            D, a1, a2, b1, b2 = M, a1 * s, a2 * s, b1 * t, b2 * t
    h = D >> 1
    c1 = (a1 - b1 + h * k1 if j1 else a1 + b1) % D
    c2 = a2 - b2 + h * k2 if j2 else a2 + b2
    if c1 >= h:
        c1 -= h
        c2 += h
    c2 %= D
    g = gcd(D, c1, c2)
    if g != 1:
        D, c1, c2 = D // g, c1 // g, c2 // g
    return tuple.__new__(Isom3, (D, c1, j1 ^ k1, c2, j2 ^ k2))


def isom3_inv_by_doubling(x):
    """x^-1 for an Isom3 key through the constructor over 2D, whatever the
    parity of D."""
    D, a1, j1, a2, j2 = x
    return Isom3(2 * D, 2 * a1 + D if j1 else -2 * a1, j1, 2 * a2 + D if j2 else -2 * a2, j2)


def _hamilton(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quatext_mul_by_hamilton(p, q):
    """p * q for QuatExt from four Hamilton products of the integer halves,
    with the same ArithmeticError when the product leaves (1/2)Z[sqrt 2]."""
    a1, b1, a2, b2 = p[:4], p[4:], q[:4], q[4:]
    rational = [u + 2 * v for u, v in zip(_hamilton(a1, a2), _hamilton(b1, b2))]
    root2 = [u + v for u, v in zip(_hamilton(a1, b2), _hamilton(b1, a2))]
    four = rational + root2
    if any(v & 1 for v in four):
        raise ArithmeticError(f"product of {p} and {q} leaves (1/2)Z[sqrt2]")
    return tuple.__new__(QuatExt, [v >> 1 for v in four])


def then_by_comprehension(s, t):
    """The permutation s followed by t, i -> t[s[i]], at every length."""
    return tuple([t[i] for i in s])


def quotient_group_by_pairs(labels, cosets):
    """``groups.quotient_group`` with its table as a dict keyed by label
    pairs and its inverses as a dict."""
    table = {
        (labels[a], labels[b]): labels[c] for a, row in enumerate(cosets) for b, c in enumerate(row)
    }
    inverse = {labels[a]: labels[row.index(0)] for a, row in enumerate(cosets)}
    return groups.FinGroup(labels, labels[0], mul=lambda a, b: table[a, b], inv=inverse.__getitem__)
