"""Weighted graph orbifolds: structure, surgery, homology, canonical keys."""

import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import oracles
from pa import orbigraph, verify
from pa.orbigraph import (
    Edge,
    GraphStructureError,
    INF,
    OrbifoldSurgeryError,
    ParedOrbifoldDescriptor,
    WeightedGraphOrbifold,
    _elide_weight_one,
    _gf2_rref,
    canonical_key,
    check_sc,
    descriptor_from_json,
    graph_from_json,
    graph_to_json,
    h1_z2,
    is_weight,
    make_dihedral,
    make_exterior,
    make_heckoid,
    parse_weight,
    surger,
    weight_is_even,
    weight_str,
)
from pa.slopes import Slope, dihedral_key, slope

GOLDEN = Path(__file__).resolve().parent / "golden"


def theta(w1, w2, w3, ambient="S3"):
    return WeightedGraphOrbifold(
        ambient,
        [("v1", False), ("v2", False)],
        [
            Edge("e1", ("v1", "v2"), w1),
            Edge("e2", ("v1", "v2"), w2),
            Edge("e3", ("v1", "v2"), w3),
        ],
    )


def o_inf():
    """O(inf): two weight-2 circles in S3."""
    return WeightedGraphOrbifold(
        "S3",
        [("c1", False), ("c2", False)],
        [Edge("L1", ("c1", "c1"), 2), Edge("L2", ("c2", "c2"), 2)],
    )


def o_rp3():
    """O(RP3,O): one weight-2 loop in RP3."""
    return WeightedGraphOrbifold("RP3", [("c1", False)], [Edge("L1", ("c1", "c1"), 2)])


def d22xi():
    """D2(2,2)xI: two weight-2 strands on one boundary sphere of a ball."""
    return WeightedGraphOrbifold(
        "ball-pair",
        [("B", True)],
        [Edge("S1", ("B", "B"), 2), Edge("S2", ("B", "B"), 2)],
    )


def _unique_ids(rng, prefix, count):
    return [f"{prefix}{i}" for i in rng.sample(range(10 * count + 10), count)]


def closed_multigraph(rng, max_trivalent=30):
    """A closed S3 graph from a random stub pairing (loops and multiple
    edges included): trivalent vertices, four-valent vertices on weight-2
    edges, and free circles; ids in random order."""
    n3, n4, circles = 2 * rng.randint(0, max_trivalent // 2), rng.randint(0, 4), rng.randint(0, 2)
    names = _unique_ids(rng, "v", n3 + n4 + circles)
    four = set(names[n3:n3 + n4])
    stubs = [v for v in names[:n3] for _ in range(3)] + [v for v in four for _ in range(4)]
    rng.shuffle(stubs)
    pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    pairs += [(v, v) for v in names[n3 + n4:]]
    weights = [
        2 if four & {a, b} else rng.choice([2, 3, 4, 5, INF]) for a, b in pairs
    ]
    edges = [Edge(eid, ends, w) for eid, ends, w in zip(_unique_ids(rng, "e", len(pairs)), pairs, weights)]
    rng.shuffle(names)
    return WeightedGraphOrbifold("S3", [(v, False) for v in names], edges)


def subdivided_multigraph(rng):
    """Vertex and edge lists for the weight-1 elision: a random trivalent
    multigraph whose edges are cut into chains through degree-2 vertices,
    with weight-1 edges, mismatched chain weights, boundary vertices,
    isolated vertices and free circles; ids in random order."""
    n = 2 * rng.randint(1, 6)
    base = _unique_ids(rng, "v", n)
    stubs = [v for v in base for _ in range(3)]
    rng.shuffle(stubs)
    vertices = [(v, rng.random() < 0.25) for v in base]
    chains = []
    for i in range(0, len(stubs), 2):
        weight = 1 if rng.random() < 0.05 else rng.choice([2, 3, INF])
        inner = [(f"{stubs[i]}.{i}.{k}", False) for k in range(rng.randint(0, 3))]
        vertices += inner
        path = [stubs[i], *(v for v, _ in inner), stubs[i + 1]]
        segment_weights = [weight] * (len(path) - 1)
        if rng.random() < 0.05:
            segment_weights[rng.randrange(len(segment_weights))] = rng.choice([1, 2, 5])
        chains += list(zip(zip(path, path[1:]), segment_weights))
    for k in range(rng.randint(0, 2)):
        vertices.append((f"z{k}", False))  # isolated: elided
        vertices.append((f"c{k}", False))  # a free circle: kept
        chains.append((("c" + str(k), "c" + str(k)), rng.choice([2, INF])))
    edges = [
        Edge(eid, ends, w)
        for eid, (ends, w) in zip(_unique_ids(rng, "e", len(chains)), chains)
    ]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return vertices, edges


class TestWeights:
    def test_parse(self):
        assert parse_weight("inf") is INF
        assert parse_weight(INF) is INF
        assert parse_weight("7") == 7
        assert parse_weight(7) == 7

    def test_non_strings_come_back_unchanged(self):
        # Only strings are parsed; is_weight refuses what is no weight.
        for value in (2.5, Fraction(7, 2), True, 2.0):
            assert parse_weight(value) is value
            assert not is_weight(parse_weight(value))

    def test_predicates(self):
        assert is_weight(INF) and is_weight(1) and is_weight(2)
        assert not is_weight(0) and not is_weight(-3)
        assert not is_weight(True)
        assert not is_weight(2.0)
        assert weight_is_even(INF) and weight_is_even(2)
        assert not weight_is_even(5)
        assert weight_str(INF) == "inf" and weight_str(4) == "4"


class TestStructure:
    def test_duplicate_ids(self):
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3", [("v", False), ("v", False)], []
            )
        # An id is normalised before the test, so in neither order does a
        # second entry overwrite the first.
        for vertices in ([("1", False), (1, True)], [(1, True), ("1", False)]):
            with pytest.raises(GraphStructureError, match="duplicate vertex id '1'"):
                WeightedGraphOrbifold("S3", vertices, [])
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3",
                [("v1", False), ("v2", False)],
                [
                    Edge("e", ("v1", "v2"), 2),
                    Edge("e", ("v1", "v2"), 2),
                    Edge("e3", ("v1", "v2"), 2),
                ],
            )

    def test_unknown_vertex(self):
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3", [("v", True)], [Edge("e", ("v", "w"), 2)]
            )

    def test_bad_ambient_and_weight(self):
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold("H3", [], [])
        with pytest.raises(GraphStructureError):
            theta(0, 2, 2)

    def test_interior_star_rules(self):
        # trivalent interior vertices: fine
        theta(2, 3, 7)
        # degree-2 via a loop: fine (circle basepoint)
        WeightedGraphOrbifold(
            "S3", [("c", False)], [Edge("L", ("c", "c"), 2)]
        )
        # degree 4 needs all weights 2
        WeightedGraphOrbifold(
            "S3",
            [("x", False), ("y", True)],
            [Edge(f"e{i}", ("x", "y"), 2) for i in range(4)],
        )
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3",
                [("x", False), ("y", True)],
                [Edge("e0", ("x", "y"), 3)]
                + [Edge(f"e{i}", ("x", "y"), 2) for i in range(1, 4)],
            )
        # bare or 1-valent interior vertices are rejected
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3",
                [("x", False), ("y", True)],
                [Edge("e", ("x", "y"), 2)],
            )
        # degree-2 interior vertex on two distinct edges is not smooth
        with pytest.raises(GraphStructureError):
            WeightedGraphOrbifold(
                "S3",
                [("x", False), ("y", True), ("z", True)],
                [Edge("e1", ("x", "y"), 2), Edge("e2", ("x", "z"), 2)],
            )

    def test_edge_needs_exactly_two_ends(self):
        for ends in (("a", "b", "c"), ("a",), ()):
            with pytest.raises(GraphStructureError, match="exactly two ends"):
                Edge("e", ends, 2)
        with pytest.raises(GraphStructureError, match="exactly two ends"):
            WeightedGraphOrbifold(
                "S3", [("a", True), ("b", True), ("c", True)], [Edge("e", ("a", "b", "c"), 2)]
            )
        for ends in (("b", "a"), ["b", "a"], ("a", "b")):
            assert Edge("e", ends, 2).ends == ("a", "b")

    def test_boundary_vertices_unconstrained(self):
        WeightedGraphOrbifold(
            "ball-pair",
            [("B", True)],
            [Edge("S1", ("B", "B"), 2), Edge("S2", ("B", "B"), 2)],
        )

    def test_germs_match_the_edge_scan(self):
        # Seeded cubic multigraphs from random stub pairings: loops,
        # multiple edges and boundary vertices included.
        rng = random.Random(11)
        for _ in range(60):
            n = 2 * rng.randint(1, 15)
            stubs = [f"v{i}" for i in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            edges = [
                Edge(f"e{i}", (stubs[2 * i], stubs[2 * i + 1]), rng.choice([2, 3, 5, INF]))
                for i in range(len(stubs) // 2)
            ]
            g = WeightedGraphOrbifold(
                "S3", [(f"v{i}", rng.random() < 0.2) for i in range(n)], edges
            )
            for v in g.vertex_ids():
                expected = oracles.germs_by_scan(g, v)
                assert [id(e) for e in g.germs(v)] == [id(e) for e in expected], v
                assert g.degree(v) == 3

    def test_germs_count_loops_twice(self):
        g = WeightedGraphOrbifold(
            "S3", [("c", False)], [Edge("L", ("c", "c"), 2)]
        )
        assert g.degree("c") == 2
        assert len(g.germs("c")) == 2


def _edge_corpus_graphs():
    """The three fixed orbifolds, the golden graphs, and the family graphs
    over a small sweep, equal contents included (O(q/p;d+,d-) reads p's
    parity only)."""
    graphs = [o_inf(), o_rp3(), d22xi()]
    graphs += [theta(2, 2, 5), theta(2, 3, INF), theta(2, 2, 5, ambient="RP3")]
    for r in verify._sweep_slopes(4):
        graphs.append(make_exterior(r).graph)
        graphs += [make_heckoid(r, n).graph for n in (2, 3, Fraction(3, 2), Fraction(5, 2))]
        graphs += [make_dihedral(r, d1, d2).graph for d1, d2 in verify._coprime_pairs(5)]
    with open(GOLDEN / "dihedral_2_5_2_3.json", encoding="utf-8") as fh:
        documents = [json.load(fh)]
    with open(GOLDEN / "cli.json", encoding="utf-8") as fh:
        documents += [
            json.loads(entry["stdout"])["graph"]
            for entry in json.load(fh)
            if entry["argv"][0] == "heckoid" and entry["exit"] == 0 and "--json" in entry["argv"]
        ]
    assert len(documents) == 2
    return graphs + [graph_from_json(doc) for doc in documents]


def _rebuilt(g, edge_type):
    """g built again from its vertices and edges, each edge an ``edge_type``
    with its ends given reversed."""
    return WeightedGraphOrbifold(
        g.ambient,
        [(v, g.is_boundary(v)) for v in g.vertex_ids()],
        [edge_type(e.id, e.ends[::-1], e.weight) for e in g.edges()],
        name=g.name,
    )


class TestEdgeTuple:
    """``Edge`` is an immutable tuple; it agrees with the frozen dataclass
    it replaced, ``oracles.DataclassEdge``."""

    CASES = [
        ("e", ("a", "b"), 2),
        ("e", ("b", "a"), INF),
        ("e", ["b", "a"], 3),
        ("L", ("c", "c"), 2),
        ("K1", ("b2", "a1"), 1),
    ]

    @pytest.mark.parametrize("eid, ends, weight", CASES)
    def test_fields_and_repr(self, eid, ends, weight):
        new, old = Edge(eid, ends, weight), oracles.DataclassEdge(eid, ends, weight)
        assert (new.id, new.ends, new.weight, new.is_loop) == (
            old.id, old.ends, old.weight, old.is_loop
        )
        assert type(new.ends) is tuple
        assert all(new.other_end(v) == old.other_end(v) for v in new.ends)
        assert repr(new) == repr(old).replace("DataclassEdge(", "Edge(")
        assert hash(new) == hash(old)
        assert Edge(id=eid, ends=ends, weight=weight) == new

    def test_wrong_number_of_ends(self):
        for ends in ((), ("a",), ("a", "b", "c")):
            with pytest.raises(GraphStructureError) as new:
                Edge("e", ends, 2)
            with pytest.raises(GraphStructureError) as old:
                oracles.DataclassEdge("e", ends, 2)
            assert str(new.value) == str(old.value) == f"edge 'e' needs exactly two ends, got {len(ends)}"

    def test_immutable(self):
        new, old = Edge("e", ("a", "b"), 2), oracles.DataclassEdge("e", ("a", "b"), 2)
        for field in ("id", "ends", "weight"):
            for edge in (new, old):
                with pytest.raises(AttributeError):
                    setattr(edge, field, "x")
        with pytest.raises(AttributeError):
            new.extra = 1
        assert new == Edge("e", ("a", "b"), 2)

    def test_make_and_replace_go_through_the_check(self):
        # ``_make`` and ``_replace`` sort the ends and refuse a wrong count,
        # as the constructor and ``dataclasses.replace`` on the old form do.
        edge = Edge._make(["e", ("b", "a"), 2])
        assert type(edge) is Edge and edge == Edge("e", ("a", "b"), 2)
        moved = edge._replace(ends=("z", "y"))
        old = dataclasses.replace(oracles.DataclassEdge("e", ("a", "b"), 2), ends=("z", "y"))
        assert type(moved) is Edge and moved.ends == old.ends == ("y", "z")
        with pytest.raises(GraphStructureError, match="exactly two ends, got 1"):
            edge._replace(ends=("a",))
        with pytest.raises(GraphStructureError, match="exactly two ends, got 3"):
            Edge._make(["e", ("a", "b", "c"), 2])
        with pytest.raises(TypeError):
            Edge._make(["e", ("a", "b")])

    def test_graphs_agree(self):
        # the graph's equality, hash and JSON are those of the old edges
        graphs = _edge_corpus_graphs()
        news = [_rebuilt(g, Edge) for g in graphs]
        olds = [_rebuilt(g, oracles.DataclassEdge) for g in graphs]
        for g, new, old in zip(graphs, news, olds):
            assert new == g and hash(new) == hash(g) == hash(old)
            assert graph_to_json(new) == graph_to_json(old) == graph_to_json(g)
        equal_pairs = 0
        for i, j in itertools.product(range(len(graphs)), repeat=2):
            assert (news[i] == news[j]) is (olds[i] == olds[j]), (graphs[i], graphs[j])
            equal_pairs += news[i] == news[j] and i != j
        assert equal_pairs > 0


class TestSphereCondition:
    def test_templates_pass(self):
        for g in (o_inf(), o_rp3(), d22xi()):
            assert check_sc(g) == []

    def test_puncture_clause(self):
        g = WeightedGraphOrbifold(
            "S3",
            [("B", True), ("c", False)],
            [Edge("e", ("B", "c"), 2), Edge("L", ("c", "c"), 2)],
        )
        bad = check_sc(g)
        assert len(bad) == 1
        assert bad[0].vertex == "B" and bad[0].clause == "punctures"

    def test_reciprocal_sum_clause(self):
        def with_boundary(w1, w2, w3):
            return WeightedGraphOrbifold(
                "S3",
                [("B", True), ("u", False)],
                [
                    Edge("e1", ("B", "u"), w1),
                    Edge("e2", ("B", "u"), w2),
                    Edge("e3", ("B", "u"), w3),
                ],
            )

        bad = check_sc(with_boundary(2, 2, 2))
        assert [v.clause for v in bad] == ["reciprocal-sum"]
        assert check_sc(with_boundary(2, 3, 7)) == []
        assert check_sc(with_boundary(3, 3, 3)) == []  # euclidean is fine
        assert check_sc(with_boundary(2, 2, INF)) == []

    def test_interior_spherical_vertices_are_legal(self):
        # dihedral graphs have interior (2,2,d) vertices; not violations
        g = make_dihedral(slope("1/3"), 2, 3).graph
        assert check_sc(g) == []
        assert any(
            orbigraph._reciprocal_sum(g.germs(v)) > 1
            for v in g.vertex_ids()
            if g.degree(v) == 3
        )


class TestHeckoidFamilies:
    def test_integral_index(self):
        d = make_heckoid(slope("3/5"), 3)
        assert d.family == {"tag": "M0", "r": "3/5", "n": 3}
        g = d.graph
        assert sorted(g.vertex_ids()) == ["b1", "b2"]
        assert sorted(weight_str(e.weight) for e in g.edges()) == ["3", "inf", "inf"]
        assert d.parabolic_edges == {"K1", "K2"}

    def test_half_integral_odd_denominator(self):
        d = make_heckoid(slope("3/5"), Fraction(5, 2))
        assert d.family == {
            "tag": "M1", "r": "4/5", "m": 5, "J1": ["K1"], "J2": ["K2"],
        }
        g = d.graph
        assert sorted(g.vertex_ids()) == ["b1", "b2"]
        assert g.edge("K1").weight is INF
        assert g.edge("K2").weight == 2
        assert g.edge("tminus").weight == 5
        assert d.parabolic_edges == {"K1"}

    def test_half_integral_even_denominator(self):
        d = make_heckoid(slope("3/8"), Fraction(5, 2))
        assert d.family == {
            "tag": "M2", "r": "3/4", "m": 5,
            "J1": ["K1", "K3"], "J2": ["K2", "K4"],
        }
        g = d.graph
        assert len(g.vertex_ids()) == 4 and len(g.edges()) == 6
        # hat(3/8) = 3/4 has even denominator: parallel-arc template
        assert g.edge("K1").ends == ("a1", "b1")
        assert g.edge("K2").ends == ("a1", "b1")
        assert g.edge("K3").ends == ("a2", "b2")
        assert g.edge("tplus").weight == 2 and g.edge("tminus").weight == 5
        assert d.parabolic_edges == {"K1", "K3"}

    def test_even_denominator_odd_hat(self):
        # hat(5/6) = 5/3: the M2 arcs then follow the 4-cycle template
        d = make_heckoid(slope("5/6"), Fraction(3, 2))
        assert d.family["tag"] == "M2" and d.family["r"] == "5/3"
        g = d.graph
        assert g.edge("K1").ends == ("a1", "b1")
        assert g.edge("K2").ends == ("a2", "b1")

    def test_another_m1(self):
        d = make_heckoid(slope("2/5"), Fraction(7, 2))
        assert d.family["tag"] == "M1"
        assert d.family["r"] == "1/5" and d.family["m"] == 7

    def test_sphere_condition_holds(self):
        for r, n in [("3/5", 3), ("3/5", Fraction(5, 2)), ("3/8", Fraction(5, 2))]:
            assert check_sc(make_heckoid(slope(r), n).graph) == []

    def test_index_validation(self):
        with pytest.raises(ValueError):
            make_heckoid(slope("3/5"), 1)
        with pytest.raises(ValueError):
            make_heckoid(slope("3/5"), Fraction(5, 4))
        with pytest.raises(ValueError):
            make_heckoid(slope("inf"), 3)
        make_heckoid(slope("3/5"), Fraction(3, 2))  # smallest legal index
        make_heckoid(slope("3/5"), 2)


class TestDihedralGraphs:
    def test_trivial_tunnels_leave_a_circle(self):
        g = make_dihedral(slope("3/5"), 1, 1).graph
        assert len(g.vertex_ids()) == 1 and len(g.edges()) == 1
        (e,) = g.edges()
        assert e.is_loop and e.weight == 2

    def test_trivial_theta(self):
        d = make_dihedral(slope("0/1"), 1, 2)
        g = d.graph
        assert sorted(weight_str(e.weight) for e in g.edges()) == ["2", "2", "2"]
        assert len(g.vertex_ids()) == 2
        assert d.family == {"tag": "O", "r": "0/1", "d_plus": 1, "d_minus": 2}

    def test_full_template(self):
        g = make_dihedral(slope("1/3"), 2, 3).graph
        assert len(g.vertex_ids()) == 4 and len(g.edges()) == 6
        assert g.edge("tplus").weight == 2
        assert g.edge("tminus").weight == 3
        assert all(g.edge(k).weight == 2 for k in ("K1", "K2", "K3", "K4"))

    def test_no_parabolic_locus(self):
        assert make_dihedral(slope("2/5"), 2, 3).parabolic_edges == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_dihedral(slope("1/3"), 2, 4)
        with pytest.raises(ValueError):
            make_dihedral(slope("1/3"), 0, 1)
        with pytest.raises(ValueError):
            make_dihedral(slope("inf"), 1, 2)


class TestExterior:
    def test_knot_exterior_is_one_circle(self):
        g = make_exterior(slope("2/5")).graph
        assert len(g.edges()) == 1 and g.edges()[0].weight is INF

    def test_link_exterior_is_two_circles(self):
        g = make_exterior(slope("3/8")).graph
        assert len(g.edges()) == 2
        assert all(e.is_loop and e.weight is INF for e in g.edges())


class TestTemplates:
    def test_fixed_list(self):
        # The three fixed orbifolds' tags name no parameter and are their own
        # keys, read from a graph file as ``pa homology`` reads one.
        for tag, g in (("Oinf", o_inf()), ("ORP3O", o_rp3()), ("D22xI", d22xi())):
            d = descriptor_from_json({**graph_to_json(g), "family": {"tag": tag}})
            assert d.graph == g and d.tag == tag
            assert canonical_key(d) == tag
            assert check_sc(g) == []


class TestSurgery:
    def test_heckoid_to_dihedral(self):
        # replacing both parabolic meridians of M0(r;n) by 2 gives O(r;1,n)
        start = make_heckoid(slope("2/5"), 3).graph
        result = surger(start, {"K1": 2, "K2": 2})
        assert result == make_dihedral(slope("2/5"), 1, 3).graph

    def test_weight_one_collapses_to_circle(self):
        start = make_heckoid(slope("2/5"), 3).graph
        result = surger(start, {"tminus": 1})
        assert len(result.edges()) == 1
        (e,) = result.edges()
        assert e.is_loop and e.weight is INF

    def test_elision_matches_the_rescan_oracle(self):
        # The germ lists come from the index the elision mutated; the
        # oracle's come from one scan of its rebuilt graph's edges.
        def outcome(elide, germs, vertices, edges):
            try:
                g = elide("S3", vertices, edges)
            except GraphStructureError as err:
                return "error", str(err)
            assert list(g._germs) == g.vertex_ids()  # no germ list outlives its vertex
            return "graph", graph_to_json(g), {v: germs(g, v) for v in g.vertex_ids()}

        rng = random.Random(17)
        kinds = Counter()
        for _ in range(300):
            vertices, edges = subdivided_multigraph(rng)
            got = outcome(_elide_weight_one, WeightedGraphOrbifold.germs, vertices, edges)
            assert got == outcome(
                oracles.elide_weight_one_by_rescan, oracles.germs_by_scan, vertices, edges
            )
            kinds[got[0]] += 1
        assert kinds["graph"] >= 50 and kinds["error"] >= 50, kinds

    def test_identity_surgery(self):
        g = make_dihedral(slope("1/3"), 2, 3).graph
        assert surger(g, {}) == g

    def test_boundary_capping(self):
        g = WeightedGraphOrbifold(
            "S3",
            [("v", True), ("u", False)],
            [
                Edge("e1", ("u", "v"), 2),
                Edge("e2", ("u", "v"), 3),
                Edge("e3", ("u", "v"), 7),
            ],
        )
        assert check_sc(g) == []
        capped = surger(g, {"e3": 4})
        assert not capped.is_boundary("v")
        assert capped.degree("v") == 3
        assert orbigraph._reciprocal_sum(capped.germs("v")) > 1  # a spherical cone point
        # sub-spherical boundary weights stay a boundary component
        kept = surger(g, {"e3": 8})
        assert kept.is_boundary("v")

    def test_violating_surgery_rejected(self):
        g = WeightedGraphOrbifold(
            "S3",
            [("v", True), ("u", False)],
            [
                Edge("e1", ("u", "v"), 2),
                Edge("e2", ("u", "v"), 3),
                Edge("e3", ("u", "v"), 7),
            ],
        )
        with pytest.raises(OrbifoldSurgeryError):
            surger(g, {"e3": 1})  # boundary sphere left with 2 punctures

    def test_unsmoothable_elision_rejected(self):
        start = make_heckoid(slope("3/5"), Fraction(5, 2)).graph
        with pytest.raises(OrbifoldSurgeryError):
            surger(start, {"tminus": 1})  # germs inf vs 2 cannot merge

    def test_non_integer_weights_rejected(self):
        for w in (3.7, Fraction(7, 2), True):
            with pytest.raises(OrbifoldSurgeryError, match="bad weight"):
                surger(theta(2, 2, 5), {"e3": w})

    def test_bad_requests_rejected(self):
        g = make_dihedral(slope("1/3"), 2, 3).graph
        with pytest.raises(OrbifoldSurgeryError):
            surger(g, {"nope": 2})
        with pytest.raises(OrbifoldSurgeryError):
            surger(g, {"K1": 0})


class TestHomology:
    def dense_rank(self, g):
        eids = sorted(e.id for e in g.edges())
        col = {eid: i for i, eid in enumerate(eids)}
        rows = []
        for eid in eids:
            if not weight_is_even(g.edge(eid).weight):
                row = [0] * len(eids)
                row[col[eid]] = 1
                rows.append(row)
        for v in g.vertex_ids():
            row = [0] * len(eids)
            for e in g.germs(v):
                if not e.is_loop:
                    row[col[e.id]] ^= 1
            if any(row):
                rows.append(row)
        return oracles.gf2_rank_dense(rows, len(eids))

    def betti(self, g):
        return oracles.even_subgraph_betti(
            g.vertex_ids(),
            [
                (e.ends[0], e.ends[1], None if e.weight is INF else e.weight)
                for e in g.edges()
            ],
        )

    def test_dihedral_mixed_weights(self):
        rep = h1_z2(make_dihedral(slope("2/5"), 2, 3).graph)
        assert rep.dimension == 2
        assert rep.basis == ("K4", "tplus")
        assert rep.meridian_class["tminus"] == (0, 0)
        assert rep.meridian_class["K1"] == rep.meridian_class["K2"] != (0, 0)
        assert rep.meridian_class["K3"] == rep.meridian_class["K4"] != (0, 0)

    def test_dihedral_loops(self):
        rep = h1_z2(make_dihedral(slope("1/4"), 1, 3).graph)
        assert rep.dimension == 2
        assert rep.basis == ("K1", "K3")
        assert rep.meridian_class["tminus"] == (0, 0)

    def test_exteriors(self):
        assert h1_z2(make_exterior(slope("2/5")).graph).dimension == 1
        assert h1_z2(make_exterior(slope("3/8")).graph).dimension == 2

    def test_heckoid_reports(self):
        rep = h1_z2(make_heckoid(slope("2/5"), 3).graph)
        assert rep.dimension == 1
        assert rep.meridian_class["K1"] == rep.meridian_class["K2"] == (1,)
        assert rep.meridian_class["tminus"] == (0,)

        rep = h1_z2(make_heckoid(slope("3/5"), Fraction(5, 2)).graph)
        assert rep.dimension == 1
        assert rep.meridian_class["K1"] == rep.meridian_class["K2"] == (1,)

        rep = h1_z2(make_heckoid(slope("3/8"), Fraction(5, 2)).graph)
        assert rep.dimension == 2
        assert rep.meridian_class["K1"] == rep.meridian_class["K2"]
        assert rep.meridian_class["K3"] == rep.meridian_class["K4"]
        assert rep.meridian_class["K1"] != rep.meridian_class["K3"]
        assert rep.meridian_class["tplus"] == (0, 0)

    def test_odd_weight_classes_vanish(self):
        for desc in (
            make_dihedral(slope("2/7"), 3, 5),
            make_heckoid(slope("2/7"), 5),
        ):
            rep = h1_z2(desc.graph)
            for e in desc.graph.edges():
                if not weight_is_even(e.weight):
                    assert rep.meridian_class[e.id] == (0,) * rep.dimension

    def test_vertex_relations_hold_in_classes(self):
        g = make_dihedral(slope("3/8"), 1, 5).graph
        rep = h1_z2(g)
        for v in g.vertex_ids():
            acc = [0] * rep.dimension
            for e in g.germs(v):
                if e.is_loop:
                    continue
                acc = [
                    a ^ b for a, b in zip(acc, rep.meridian_class[e.id])
                ]
            assert acc == [0] * rep.dimension

    def test_against_oracles_sweep(self):
        graphs = []
        for p in range(2, 10):
            for q in range(1, p):
                if gcd(q, p) != 1:
                    continue
                r = slope(f"{q}/{p}")
                graphs.append(make_exterior(r).graph)
                graphs.append(make_heckoid(r, 2).graph)
                graphs.append(make_heckoid(r, Fraction(5, 2)).graph)
                for d1, d2 in [(1, 1), (1, 2), (2, 3), (1, 4), (3, 4)]:
                    graphs.append(make_dihedral(r, d1, d2).graph)
        assert len(graphs) > 150
        for g in graphs:
            rep = h1_z2(g)
            assert rep.dimension == self.betti(g)
            assert rep.dimension == len(g.edges()) - self.dense_rank(g)
            assert len(rep.basis) == rep.dimension
            for eid in rep.basis:
                vec = rep.meridian_class[eid]
                assert sum(vec) == 1  # basis classes are unit vectors

    def test_matches_the_rebuild_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            g = closed_multigraph(rng)
            assert h1_z2(g) == oracles.h1_z2_by_rebuild(g)

    def test_rref_matches_the_rebuild_oracle(self):
        rng = random.Random(9)
        for _ in range(400):
            ncols = rng.randint(1, 40)
            rows = [
                rng.getrandbits(ncols) & rng.getrandbits(ncols)
                for _ in range(rng.randint(0, 50))
            ]
            assert _gf2_rref(rows, ncols) == oracles.gf2_rref_by_rebuild(rows, ncols)

    def test_rejects_open_or_foreign_graphs(self):
        with pytest.raises(ValueError):
            h1_z2(d22xi())  # has a boundary sphere
        with pytest.raises(ValueError):
            h1_z2(o_rp3())  # ambient RP3


class TestOnePassGraphs:
    """Every graph that checks 7 and 8 build, and those of check 8's 762
    O-move triples, against the rescan elision and the edge-scan germs of
    the same template, with the parabolic locus read from the rescan's
    graph."""

    def check_points(self):
        for r in verify._sweep_slopes(12):
            for d1, d2 in verify._coprime_pairs(5):
                yield make_dihedral, (r, d1, d2)
        for r in verify._sweep_slopes(20):
            if r.p >= 2:
                qinv = pow(r.q, -1, r.p)
                for d1, d2 in ((1, 2), (2, 3), (3, 4)):
                    yield make_dihedral, (r, d1, d2)
                    yield make_dihedral, (Slope(qinv, r.p), d2, d1)
        for r in verify._sweep_slopes(13):
            for n in (2, 3, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
                yield make_heckoid, (r, n)

    def test_check_points_match_the_oracles(self, monkeypatch):
        calls = []
        template = orbigraph._template_graph

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return template(*args, **kwargs)

        monkeypatch.setattr(orbigraph, "_template_graph", recorded)
        points = 0
        for make, args in self.check_points():
            calls.clear()
            d = make(*args)
            g = d.graph
            ((targs, tkwargs),) = calls
            expected = oracles.template_graph_by_rescan(*targs, **tkwargs)
            assert (g.name, graph_to_json(g)) == (expected.name, graph_to_json(expected))
            assert d.parabolic_edges == {e.id for e in expected.edges() if e.weight is INF}
            for v in g.vertex_ids():
                assert g.germs(v) == oracles.germs_by_scan(expected, v), (g.name, v)
            assert h1_z2(g) == oracles.h1_z2_by_rebuild(g), g.name
            points += 1
        assert points == 874 + 762 + 290


class TestCanonicalKey:
    def test_frozen_keys(self):
        assert canonical_key(make_heckoid(slope("3/5"), 3)) == "M0[2/5;3]"
        assert (
            canonical_key(make_heckoid(slope("3/5"), Fraction(5, 2)))
            == "M1[4/5;5]"
        )
        assert (
            canonical_key(make_heckoid(slope("3/8"), Fraction(5, 2)))
            == "M2[3/4;5]"
        )
        assert canonical_key(make_exterior(slope("3/8"))) == "E[3/8]"
        assert canonical_key(make_dihedral(slope("2/5"), 1, 2)) == "O[2/5;1,2]"

    def test_m2_slope_translate_move(self):
        d = make_heckoid(slope("3/8"), Fraction(5, 2))
        shifted = ParedOrbifoldDescriptor(d.graph, {**d.family, "r": "7/4"})
        assert canonical_key(shifted) == canonical_key(d)

    def test_o_inversion_move(self):
        a = make_dihedral(slope("2/7"), 2, 3)
        b = make_dihedral(slope("4/7"), 3, 2)
        c = make_dihedral(slope("2/7"), 3, 2)
        assert canonical_key(a) == canonical_key(b) == "O[2/7;2,3]"
        assert canonical_key(c) != canonical_key(a)

    def test_o_trivial_slope(self):
        a = make_dihedral(slope("0/1"), 1, 2)
        b = make_dihedral(slope("0/1"), 2, 1)
        assert canonical_key(a) == canonical_key(b) == "O[0/1;1,2]"

    def test_o_key_needs_no_graph_sweep(self):
        # The key from (r, d+, d-) against the key of the built graph and the
        # first, family-reading rule, at check 8's O-moves (p <= 20, the
        # pairs (1,2), (2,3), (3,4) and their partners) and at the 874
        # points of check 7.
        moves = []
        for r in verify._sweep_slopes(20):
            if r.p >= 2:
                qinv = pow(r.q, -1, r.p)
                for d1, d2 in ((1, 2), (2, 3), (3, 4)):
                    moves += [(r, d1, d2), (Slope(qinv, r.p), d2, d1)]
        homology = [
            (r, d1, d2) for r in verify._sweep_slopes(12) for d1, d2 in verify._coprime_pairs(5)
        ]
        assert (len(moves), len(homology)) == (762, 874)
        for r, d1, d2 in moves + homology:
            desc = make_dihedral(r, d1, d2)
            key = dihedral_key(r, d1, d2)
            assert canonical_key(desc) == key == oracles.dihedral_key_from_family(desc), (r, d1, d2)
        with pytest.raises(ValueError, match="finite slope"):
            dihedral_key(slope("inf"), 1, 2)

    def test_custom_rejected(self):
        d = descriptor_from_json(graph_to_json(theta(2, 2, 5)))
        assert d.tag == "custom"
        with pytest.raises(ValueError):
            canonical_key(d)


class TestJSON:
    def test_graph_round_trip(self):
        for g in (
            make_heckoid(slope("3/8"), Fraction(5, 2)).graph,
            make_dihedral(slope("2/5"), 2, 3).graph,
            d22xi(),
        ):
            dumped = json.loads(json.dumps(graph_to_json(g)))
            assert graph_from_json(dumped) == g

    def test_descriptor_round_trip(self):
        d = make_heckoid(slope("3/5"), Fraction(5, 2))
        dumped = json.loads(json.dumps({**graph_to_json(d.graph), "family": dict(d.family)}))
        back = descriptor_from_json(dumped)
        assert back.graph == d.graph
        assert back.family == d.family
        assert back.parabolic_edges == d.parabolic_edges

    def test_descriptor_validation(self):
        d = make_heckoid(slope("3/5"), 3)
        with pytest.raises(ValueError):
            ParedOrbifoldDescriptor(d.graph, {"tag": "nonsense"})

    def test_malformed_documents_rejected(self):
        good = graph_to_json(theta(2, 2, 5))
        edge = good["edges"][0]
        bad_documents = [
            [1, 2],
            "S3",
            {**good, "vertices": 5},
            {**good, "edges": None},
            {**good, "vertices": [1]},
            {**good, "vertices": [{"id": ["a"]}]},
            {**good, "edges": [{**edge, "ends": edge["ends"][:1]}]},
            {**good, "edges": [{**edge, "ends": [*edge["ends"], edge["ends"][0]]}]},
            {**good, "edges": [{**edge, "weight": None}]},
            {**good, "edges": [{key: edge[key] for key in ("ends", "weight")}]},
        ]
        for document in bad_documents:
            with pytest.raises(GraphStructureError):
                graph_from_json(document)
        with pytest.raises(GraphStructureError):
            descriptor_from_json({**good, "family": 5})
        assert graph_from_json(good) == theta(2, 2, 5)
