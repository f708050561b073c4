"""Weighted-graph models of pared 3-orbifolds.

An orbifold here is a triple (W, Sigma, w): an ambient space tag, a graph
Sigma inside it, and a weight function w on edges with values in
{1, 2, 3, ...} u {inf}.  Finite weights >= 2 mark singular locus indices,
inf marks parabolic locus (cusps), and weight 1 marks an edge that is not
really there (it is elided, smoothing its endpoints away).

Structural rules:
* interior vertices are trivalent (loops count twice), except that a
  degree-4 vertex is allowed when all four incident edge germs have
  weight 2 (an S^2(2,2,2,2) parabolic locus), and a degree-2 vertex is
  allowed when both germs belong to one loop edge (the basepoint of a
  free circle component, treated as a smooth point);
* boundary components are modeled as one boundary-flagged vertex each,
  collecting every strand end on that component.

The sphere condition (SC) for a boundary sphere S asks |S n Sigma| >= 3,
and when equal to 3 that sum(1/w(e_i)) <= 1.  Orbifold surgery replaces
the weight function, caps boundary spheres that became spherical
3-punctured spheres with a cone (the boundary vertex becomes an interior
trivalent vertex), and elides weight-1 edges.

Z_2-homology of a closed S^3 graph orbifold O is computed from the
presentation with one generator per edge meridian, relations m_e = 0 for
finite odd w(e), and the germ-sum relation at every interior vertex.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .slopes import Slope, canonical, dihedral_key, hat, slope


class _Infinity:
    """Weight value for parabolic (cusp) edges; compares equal only to
    itself and counts as an even weight."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

AMBIENTS = ("S3", "RP3", "ball-pair", "abstract")


def is_weight(w) -> bool:
    return w is INF or (isinstance(w, int) and not isinstance(w, bool) and w >= 1)


def weight_is_even(w) -> bool:
    return w is INF or w % 2 == 0


def weight_str(w) -> str:
    return "inf" if w is INF else str(w)


def parse_weight(s):
    """The weight a string names ("inf" or an integer); any other value is
    returned unchanged, for ``is_weight`` to accept or refuse."""
    if not isinstance(s, str):
        return s
    return INF if s == "inf" else int(s)


class GraphStructureError(ValueError):
    pass


class Edge(namedtuple("Edge", "id ends weight")):
    """An edge: ``ends`` is a pair of vertex ids, kept sorted (equal for a
    loop).  Any other number of ends raises GraphStructureError.

    An immutable tuple (id, ends, weight), so its fields read at C speed;
    ``_make`` and ``_replace`` go through the same check."""

    __slots__ = ()

    def __new__(cls, id: str, ends: tuple[str, str], weight: object):
        if type(ends) is not tuple or len(ends) != 2 or ends[1] < ends[0]:
            ends = tuple(sorted(ends))
            if len(ends) != 2:
                raise GraphStructureError(
                    f"edge {id!r} needs exactly two ends, got {len(ends)}"
                )
        return tuple.__new__(cls, (id, ends, weight))

    @classmethod
    def _make(cls, iterable) -> Edge:
        return cls(*iterable)

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    def other_end(self, v: str) -> str:
        a, b = self.ends
        return b if v == a else a


class WeightedGraphOrbifold:
    """Immutable-by-convention weighted graph in an ambient space."""

    def __init__(self, ambient: str, vertices, edges, name: str | None = None):
        self._index(ambient, vertices, edges, name)
        self._validate_degrees()

    def _index(self, ambient, vertices, edges, name) -> WeightedGraphOrbifold:
        """Check the ambient, the ids, the ends and the weights, and fill
        the vertex, edge and germ index; the stars are left to
        ``_validate_degrees``."""
        if ambient not in AMBIENTS:
            raise GraphStructureError(f"unknown ambient {ambient!r}")
        self.ambient = ambient
        self.name = name
        self._vertices: dict[str, bool] = {}
        # each vertex's incident edges in edge order, loops twice
        self._germs: dict[str, list[Edge]] = {}
        for vid, boundary in vertices:
            vid = str(vid)
            if vid in self._vertices:
                raise GraphStructureError(f"duplicate vertex id {vid!r}")
            self._vertices[vid] = bool(boundary)
            self._germs[vid] = []
        self._edges: dict[str, Edge] = {}
        for e in edges:
            if e.id in self._edges:
                raise GraphStructureError(f"duplicate edge id {e.id!r}")
            for v in e.ends:
                if v not in self._germs:
                    raise GraphStructureError(f"edge {e.id!r} touches unknown vertex {v!r}")
            if not is_weight(e.weight):
                raise GraphStructureError(f"bad weight {e.weight!r} on edge {e.id!r}")
            self._edges[e.id] = e
            for v in e.ends:
                self._germs[v].append(e)
        return self

    # -- basic queries -------------------------------------------------------
    def vertex_ids(self) -> list[str]:
        return list(self._vertices)

    def is_boundary(self, v: str) -> bool:
        return self._vertices[v]

    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def edge(self, eid: str) -> Edge:
        return self._edges[eid]

    def germs(self, v: str) -> list[Edge]:
        """Incident edges in edge order, with loops listed twice."""
        return list(self._germs.get(v, ()))

    def degree(self, v: str) -> int:
        return len(self.germs(v))

    def _validate_degrees(self) -> None:
        for v, boundary in self._vertices.items():
            if boundary:
                continue
            germs = self._germs[v]
            deg = len(germs)
            if deg == 3:
                continue
            if deg == 4 and all(e.weight == 2 for e in germs):
                continue
            if deg == 2 and germs[0].is_loop and germs[0] is germs[1]:
                continue
            raise GraphStructureError(
                f"interior vertex {v!r} has invalid star (degree {deg})"
            )

    # -- equality ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, WeightedGraphOrbifold):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash(
            (self.ambient, tuple(sorted(self._vertices.items())),
             tuple(sorted(self._edges.items())))
        )

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return (
            f"<WeightedGraphOrbifold{tag} ambient={self.ambient} "
            f"|V|={len(self._vertices)} |E|={len(self._edges)}>"
        )


# ---------------------------------------------------------------------------
# Sphere condition


@dataclass(frozen=True)
class SCViolation:
    vertex: str
    clause: str  # "punctures" or "reciprocal-sum"
    detail: str


def _reciprocal_sum(edges) -> Fraction:
    """The sum of 1/w(e) over ``edges``, with 1/inf = 0."""
    return sum((Fraction(1, e.weight) for e in edges if e.weight is not INF), Fraction(0))


def check_sc(g: WeightedGraphOrbifold) -> list[SCViolation]:
    """Violations of the sphere condition; empty list means pass."""
    violations = []
    for v in g.vertex_ids():
        if not g.is_boundary(v):
            continue
        germs = g.germs(v)
        k = len(germs)
        if k < 3:
            violations.append(
                SCViolation(v, "punctures", f"|S n Sigma| = {k} < 3")
            )
        elif k == 3:
            total = _reciprocal_sum(germs)
            if total > 1:
                ws = ",".join(weight_str(e.weight) for e in germs)
                violations.append(
                    SCViolation(v, "reciprocal-sum", f"weights ({ws}) sum to {total} > 1")
                )
    return violations


# ---------------------------------------------------------------------------
# Weight-1 elision


def _elide_weight_one(ambient, vertices, edges, name=None) -> WeightedGraphOrbifold:
    """Drop weight-1 edges and smooth the resulting degree-2 interior
    vertices by merging their two germs (which must have equal weights).
    The work is done on the index of the graph returned, whose stars are
    checked once, at the end.

    The smallest interior vertex with no germ, one germ, or two germs on
    distinct edges is acted on first; the merged edge takes the smaller id
    and goes last.  A merge keeps every other vertex's degree, and a loop
    stays a loop, so a vertex passed over is never acted on later: one walk
    in sorted order meets the vertices in that order.  Each vertex's germs
    are kept in edge order (loops twice) through the drops and merges.
    """
    g = WeightedGraphOrbifold.__new__(WeightedGraphOrbifold)._index(
        ambient, vertices, edges, name
    )
    vertices, edges, germs = g._vertices, g._edges, g._germs
    for e in [e for e in edges.values() if e.weight == 1]:
        del edges[e.id]
        for end in e.ends:
            germs[end] = [x for x in germs[end] if x is not e]

    for v in sorted(vertices):
        if vertices[v]:  # boundary components are never smoothed
            continue
        here = germs[v]
        if len(here) == 0:
            del vertices[v], germs[v]
        elif len(here) == 1:
            raise GraphStructureError(f"elision leaves vertex {v!r} with a single germ")
        elif len(here) == 2 and here[0] is not here[1]:  # not a free circle
            e1, e2 = here
            if e1.weight != e2.weight:
                raise GraphStructureError(
                    f"cannot smooth vertex {v!r}: germ weights "
                    f"{weight_str(e1.weight)} != {weight_str(e2.weight)}"
                )
            merged = Edge(min(e1.id, e2.id), (e1.other_end(v), e2.other_end(v)), e1.weight)
            del edges[e1.id], edges[e2.id], vertices[v], germs[v]
            edges[merged.id] = merged
            for e in here:
                end = e.other_end(v)
                germs[end] = [x for x in germs[end] if x is not e] + [merged]
    g._validate_degrees()
    return g


# ---------------------------------------------------------------------------
# Orbifold surgery


class OrbifoldSurgeryError(ValueError):
    pass


def surger(g: WeightedGraphOrbifold, reweight: dict) -> WeightedGraphOrbifold:
    """Replace weights per ``reweight`` (edge-id -> weight in {1,2,...,inf}),
    cap boundary spheres that became spherical 3-punctured spheres with a
    cone vertex, elide weight-1 edges, and return the augmented graph.

    Raises OrbifoldSurgeryError when the result cannot satisfy the sphere
    condition or the structural rules.
    """
    new_edges = {}
    for e in g.edges():
        if e.id in reweight:
            w = parse_weight(reweight[e.id])
            if not is_weight(w):
                raise OrbifoldSurgeryError(f"bad weight {reweight[e.id]!r}")
            e = Edge(e.id, e.ends, w)
        new_edges[e.id] = e
    unknown = set(reweight) - set(new_edges)
    if unknown:
        raise OrbifoldSurgeryError(f"unknown edge ids {sorted(unknown)}")

    vertices = []
    for v in g.vertex_ids():
        boundary = g.is_boundary(v)
        if boundary:
            germs = g.germs(v)
            if len(germs) == 3 and _reciprocal_sum(new_edges[e.id] for e in germs) > 1:
                boundary = False  # now a spherical 3-punctured sphere: cap it
        vertices.append((v, boundary))

    try:
        result = _elide_weight_one(g.ambient, vertices, new_edges.values())
    except GraphStructureError as err:
        raise OrbifoldSurgeryError(str(err)) from None
    violations = check_sc(result)
    if violations:
        first = violations[0]
        raise OrbifoldSurgeryError(
            f"surgered graph violates SC at {first.vertex!r}: {first.detail}"
        )
    return result


# ---------------------------------------------------------------------------
# Z_2 homology


# Edges x dimension: the entries of the meridian classes of an h1_z2
# report.  A graph past it is refused once its dimension is known.
MAX_HOMOLOGY_CELLS = 10**6

# Edges x relations (odd-weight edges and vertices): the bits the GF(2)
# elimination may come to hold as its rows fill in.  A graph past it is
# refused before any row is built; at the bound the elimination of a cubic
# graph takes about 0.2 s and 3 MB.
MAX_HOMOLOGY_ELIMINATION = 10**7


@dataclass(frozen=True)
class H1Z2Report:
    """dim H_1(O; Z_2) with meridian classes in a fixed basis.

    ``basis`` lists the edge ids whose meridians form a basis;
    ``meridian_class`` maps every edge id to its coordinate vector.
    """

    dimension: int
    basis: tuple[str, ...]
    meridian_class: dict[str, tuple[int, ...]]


def h1_z2(g: WeightedGraphOrbifold) -> H1Z2Report:
    """Z_2 homology of a closed graph orbifold in S^3.

    Generators: one meridian per edge.  Relations: m_e = 0 for every edge
    of finite odd weight (weight inf counts as even and keeps its
    generator); at every interior vertex the incident germs sum to zero
    (loops contribute twice, hence nothing; degree-4 parabolic vertices
    contribute one relation over their four germs).

    Raises ValueError when edges x relations exceeds
    MAX_HOMOLOGY_ELIMINATION, before any row is built, and when edges x
    dimension exceeds MAX_HOMOLOGY_CELLS, before any class is built.
    """
    if g.ambient != "S3":
        raise ValueError("h1_z2 is defined for ambient S3 graphs")
    if any(g._vertices.values()):
        raise ValueError("h1_z2 needs a closed (boundaryless) graph")
    eids = sorted(g._edges)
    odd = [eid for eid in eids if not weight_is_even(g._edges[eid].weight)]
    width, relations = len(eids), len(odd) + len(g._germs)
    if width * relations > MAX_HOMOLOGY_ELIMINATION:
        raise ValueError(
            f"H1(O; Z2) of {width} edges has {relations} relations: its elimination "
            f"spans {width * relations} entries, past the bound {MAX_HOMOLOGY_ELIMINATION}"
        )
    col = {eid: i for i, eid in enumerate(eids)}
    rows = [1 << col[eid] for eid in odd]
    for germs in g._germs.values():
        mask = 0
        for e in germs:
            # a loop is listed twice, so its two toggles cancel: 2*m_e = 0
            mask ^= 1 << col[e.id]
        if mask:
            rows.append(mask)
    pivots, reduced = _gf2_rref(rows, width)
    dimension = width - len(pivots)
    if width * dimension > MAX_HOMOLOGY_CELLS:
        raise ValueError(
            f"H1(O; Z2) of {width} edges has dimension {dimension}: its classes "
            f"have {width * dimension} entries, past the bound {MAX_HOMOLOGY_CELLS}"
        )
    pivot_set = set(pivots)
    free = [i for i in range(width) if i not in pivot_set]
    free_index = {c: i for i, c in enumerate(free)}
    # A reduced row is its pivot bit plus free columns.  A column's class
    # marks the free columns among the set bits of its row less the pivot
    # bit (a free column's row is its own bit), walked one bit at a time,
    # not one shift per free column.
    pivot_row = {c: r ^ (1 << c) for c, r in zip(pivots, reduced)}
    classes: dict[str, tuple[int, ...]] = {}
    for eid in eids:
        c = col[eid]
        vec = [0] * dimension
        row = pivot_row.get(c, 1 << c)
        while row:
            low = row & -row
            vec[free_index[low.bit_length() - 1]] = 1
            row ^= low
        classes[eid] = tuple(vec)
    return H1Z2Report(dimension, tuple(eids[i] for i in free), classes)


def _gf2_rref(rows, ncols):
    """Reduced row echelon form over GF(2) on bitmask rows; returns the
    pivot column list and the reduced pivot rows (in pivot order).

    The form is unique, so the order of elimination is free.  Forward: the
    rows wait in buckets by their lowest set bit, and the first row in
    bucket c becomes column c's pivot row; the others in the bucket, which
    are exactly the rows with bit c set, take it on and move to the bucket
    of their new lowest bit.  Back: each pivot row, highest pivot first,
    takes on the finished rows of the other pivot columns it meets; a
    finished row has no other pivot bit, so the set to clear is read once.
    """
    buckets: dict[int, list[int]] = {}
    for r in rows:
        if r:
            buckets.setdefault((r & -r).bit_length() - 1, []).append(r)
    echelon = {}
    for c in range(ncols):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pivot_row = echelon[c] = bucket[0]
        for r in bucket[1:]:
            r ^= pivot_row
            if r:
                buckets.setdefault((r & -r).bit_length() - 1, []).append(r)
    pivots = sorted(echelon)
    pivot_mask = sum(1 << c for c in pivots)
    done = {}
    for c in reversed(pivots):
        row = echelon[c]
        meet = row & pivot_mask & ~(1 << c)
        while meet:
            low = meet & -meet
            row ^= done[low.bit_length() - 1]
            meet ^= low
        done[c] = row
    return pivots, [done[c] for c in pivots]


# ---------------------------------------------------------------------------
# Descriptors and family constructors


FAMILY_TAGS = ("E", "M0", "M1", "M2", "O", "Oinf", "ORP3O", "D22xI", "custom")


@dataclass(frozen=True)
class ParedOrbifoldDescriptor:
    """A weighted graph together with its family tag and parameters.

    ``family`` holds the tag and its defining parameters; the parabolic
    locus P is read from the graph.
    """

    graph: WeightedGraphOrbifold
    family: dict

    def __post_init__(self):
        tag = self.family.get("tag")
        if tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {tag!r}")

    @property
    def tag(self) -> str:
        return self.family["tag"]

    @property
    def parabolic_edges(self) -> frozenset[str]:
        """The parabolic locus P: the ids of the weight-inf edges."""
        return frozenset(e.id for e in self.graph.edges() if e.weight is INF)


_TEMPLATE_VERTICES = (("a1", False), ("a2", False), ("b1", False), ("b2", False))
# the arcs of K(r) and their ends, sorted: two parallel pairs for p even, a
# 4-cycle for p odd
_EVEN_ARCS = (("K1", ("a1", "b1")), ("K2", ("a1", "b1")),
              ("K3", ("a2", "b2")), ("K4", ("a2", "b2")))
_ODD_ARCS = (("K1", ("a1", "b1")), ("K2", ("a2", "b1")),
             ("K3", ("a2", "b2")), ("K4", ("a1", "b2")))


def _template_graph(p_even: bool, arc_weights, w_plus, w_minus, name=None):
    """The 2-bridge template: K(r) u tau+ u tau- with the four vertices
    a1, a2 = ends of tau+ and b1, b2 = ends of tau-.

    For p odd K(r) is the 4-cycle a1-b1-a2-b2 (arcs K1..K4); for p even it
    is two parallel-arc pairs a1=b1 (K1, K2) and a2=b2 (K3, K4), one pair
    per link component.
    """
    edges = [
        Edge(k, ends, arc_weights[k])
        for k, ends in (_EVEN_ARCS if p_even else _ODD_ARCS)
    ]
    edges.append(Edge("tplus", ("a1", "a2"), w_plus))
    edges.append(Edge("tminus", ("b1", "b2"), w_minus))
    return _elide_weight_one("S3", _TEMPLATE_VERTICES, edges, name=name)


def make_heckoid(r, n) -> ParedOrbifoldDescriptor:
    """The Heckoid orbifold of slope r and index n (2n integral, 2n >= 3).

    Integral n gives M0(r;n): K(r) with weight inf and tunnel tau- with
    weight n.  Half-integral n = m/2 gives, depending on the parity of the
    denominator of r, M1(r^;m) (theta-curve: J1 inf, J2 2, tau- m) or
    M2(r^;m) (J1 inf, J2 2, tau+ 2, tau- m), where r^ is the doubled-index
    slope substitution.
    """
    r = slope(r)
    if r.is_infinite:
        raise ValueError("Heckoid families need a finite slope")
    twice = Fraction(n) * 2
    if twice.denominator != 1 or twice < 3:
        raise ValueError(f"index must be a half-integer >= 3/2, got {n}")
    twice = int(twice)
    if twice % 2 == 0:
        n_int = twice // 2
        graph = _template_graph(
            r.p % 2 == 0,
            {"K1": INF, "K2": INF, "K3": INF, "K4": INF},
            1,
            n_int,
            name=f"M0({r};{n_int})",
        )
        return ParedOrbifoldDescriptor(graph, {"tag": "M0", "r": str(r), "n": n_int})
    m = twice
    rhat = hat(r)
    if r.p % 2 == 1:
        graph = _template_graph(
            False,
            {"K1": INF, "K2": 2, "K3": 2, "K4": INF},
            1,
            m,
            name=f"M1({rhat};{m})",
        )
        return ParedOrbifoldDescriptor(
            graph,
            {"tag": "M1", "r": str(rhat), "m": m, "J1": ["K1"], "J2": ["K2"]},
        )
    graph = _template_graph(
        rhat.p % 2 == 0,
        {"K1": INF, "K2": 2, "K3": INF, "K4": 2},
        2,
        m,
        name=f"M2({rhat};{m})",
    )
    return ParedOrbifoldDescriptor(
        graph,
        {"tag": "M2", "r": str(rhat), "m": m, "J1": ["K1", "K3"], "J2": ["K2", "K4"]},
    )


def make_dihedral(r, d_plus: int, d_minus: int) -> ParedOrbifoldDescriptor:
    """The dihedral orbifold O(r; d+, d-): K(r) with weight 2 and tunnels
    tau+ and tau- with coprime weights d+ and d- (weight-1 tunnels are
    elided)."""
    r = slope(r)
    if r.is_infinite:
        raise ValueError("O(r;d+,d-) needs a finite slope")
    if d_plus < 1 or d_minus < 1:
        raise ValueError("tunnel weights must be positive")
    if gcd(d_plus, d_minus) != 1:
        raise ValueError(f"tunnel weights must be coprime, got ({d_plus},{d_minus})")
    graph = _template_graph(
        r.p % 2 == 0,
        {"K1": 2, "K2": 2, "K3": 2, "K4": 2},
        d_plus,
        d_minus,
        name=f"O({r};{d_plus},{d_minus})",
    )
    return ParedOrbifoldDescriptor(
        graph, {"tag": "O", "r": str(r), "d_plus": d_plus, "d_minus": d_minus}
    )


def make_exterior(r) -> ParedOrbifoldDescriptor:
    """The link exterior E(K(r)): K(r) itself with weight inf, no tunnels."""
    r = slope(r)
    if r.is_infinite:
        raise ValueError("E(K(r)) needs a finite slope")
    graph = _template_graph(
        r.p % 2 == 0,
        {"K1": INF, "K2": INF, "K3": INF, "K4": INF},
        1,
        1,
        name=f"E(K({r}))",
    )
    return ParedOrbifoldDescriptor(graph, {"tag": "E", "r": str(r)})


# ---------------------------------------------------------------------------
# Canonical keys


def canonical_key(d: ParedOrbifoldDescriptor) -> str:
    """Deterministic normal form, constant under the stated identifications:
    slopes are replaced by their preserving-equivalence canonical form
    (which subsumes M2(r;m) = M2((p+q)/p;m), a mod-p move), and
    O(q/p;d+,d-) = O(q'/p;d-,d+) for qq' = 1 mod p picks the
    lexicographically least (q, d+, d-) triple (``slopes.dihedral_key``,
    which needs no graph)."""
    tag = d.tag
    family = d.family
    if tag == "custom":
        raise ValueError("custom descriptors have no canonical key")
    if tag in ("Oinf", "ORP3O", "D22xI"):
        return tag
    r = slope(family["r"])
    if tag == "E":
        return f"E[{canonical(r)}]"
    if tag in ("M0", "M1", "M2"):
        index = family["n" if tag == "M0" else "m"]
        return f"{tag}[{canonical(r)};{index}]"
    if tag == "O":
        return dihedral_key(r, family["d_plus"], family["d_minus"])
    raise ValueError(f"unhandled family {tag!r}")


# ---------------------------------------------------------------------------
# JSON


def graph_to_json(g: WeightedGraphOrbifold) -> dict:
    return {
        "ambient": g.ambient,
        "vertices": [
            {"id": v, "boundary": g.is_boundary(v)} for v in g.vertex_ids()
        ],
        "edges": [
            {"id": e.id, "ends": list(e.ends), "weight": weight_str(e.weight)}
            for e in g.edges()
        ],
    }


def graph_from_json(obj) -> WeightedGraphOrbifold:
    """The graph of a ``graph_to_json`` document.  A document of another
    shape raises GraphStructureError: it must be an object whose "vertices"
    are objects with a string "id" (and, if present, a boolean "boundary")
    and whose "edges" are objects with a string "id", two string "ends" and
    a "weight"."""
    if not isinstance(obj, dict):
        raise GraphStructureError("a graph document must be a JSON object")
    vertices, edges = obj.get("vertices"), obj.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphStructureError('a graph needs "vertices" and "edges" lists')
    for v in vertices:
        if not (
            isinstance(v, dict)
            and isinstance(v.get("id"), str)
            and isinstance(v.get("boundary", False), bool)
        ):
            raise GraphStructureError(f"malformed vertex {v!r}")
    for e in edges:
        if not (
            isinstance(e, dict)
            and isinstance(e.get("id"), str)
            and isinstance(e.get("ends"), list)
            and len(e["ends"]) == 2
            and all(isinstance(v, str) for v in e["ends"])
            and isinstance(e.get("weight"), (int, str))
        ):
            raise GraphStructureError(f"malformed edge {e!r}")
    return WeightedGraphOrbifold(
        obj.get("ambient"),
        [(v["id"], v.get("boundary", False)) for v in vertices],
        [Edge(e["id"], tuple(e["ends"]), parse_weight(e["weight"])) for e in edges],
    )


def descriptor_from_json(obj) -> ParedOrbifoldDescriptor:
    """The descriptor of a ``graph_to_json`` document with an optional
    "family" object (the tag "custom" when the key is missing).  A document
    of another shape, or a "family" that is not an object with a string
    "tag", raises GraphStructureError, as in ``graph_from_json``."""
    graph = graph_from_json(obj)
    family = obj.get("family", {"tag": "custom"})
    if not isinstance(family, dict) or not isinstance(family.get("tag"), str):
        raise GraphStructureError(f"malformed family {family!r}")
    return ParedOrbifoldDescriptor(graph, dict(family))
