"""End-to-end command-line tests via main(argv)."""

import argparse
import json
import tracemalloc

import pytest

import parser_sweep
from pa import cli, cosetenum, cusplattice, dihedral, orbigraph, quat, verify
from pa.orbigraph import graph_to_json, make_dihedral, make_heckoid
from pa.slopes import slope


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


class TestLink:
    def test_classify_json(self, capsys):
        code, payload, _ = run_json(capsys, "link", "classify", "3/8")
        assert code == 0
        assert payload["schema"] == "pa/1"
        assert payload["components"] == 2
        assert payload["hyperbolic"] is True
        assert payload["canonical"] == "3/8"

    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "link", "classify", "3/8")
        assert code == 0
        assert "components=2" in out and "hyperbolic=true" in out

    def test_classify_infinity(self, capsys):
        code, payload, _ = run_json(capsys, "link", "classify", "inf")
        assert code == 0
        assert payload["components"] == 2
        assert payload["hyperbolic"] is False
        assert "canonical" not in payload

    def test_equiv(self, capsys):
        code, payload, _ = run_json(capsys, "link", "equiv", "2/7", "4/7")
        assert code == 0
        assert payload["preserving"] is True
        assert payload["reversing"] is False
        assert payload["bridge_swap"] is True
        assert payload["involution_class"] == "n/a"

    def test_equiv_identity(self, capsys):
        code, payload, _ = run_json(capsys, "link", "equiv", "2/7", "2/7")
        assert code == 0
        assert payload["preserving"] is True
        assert payload["involution_class"] == "vertical-preserved"

    def test_cf(self, capsys):
        code, payload, _ = run_json(capsys, "link", "cf", "3/8")
        assert code == 0
        assert payload["terms"] == [2, 1, 2]

    def test_cf_out_of_domain(self, capsys):
        code, _, err = run(capsys, "link", "cf", "7/5")
        assert code == 1
        assert "error" in err

    def test_hat(self, capsys):
        code, out, _ = run(capsys, "link", "hat", "3/8")
        assert code == 0
        assert out.strip() == "3/4"

    def test_hat_negative_slope(self, capsys):
        # "--" keeps argparse from reading the slope as a flag
        code, out, _ = run(capsys, "link", "hat", "--", "-2/5")
        assert code == 0
        assert out.strip() == "4/5"

    def test_bad_slope_is_usage_error(self, capsys):
        for bad in ("0.5", "x/y", "1/0/2"):
            code, _, _ = run(capsys, "link", "classify", bad)
            assert code == 2, bad


class TestHeckoid:
    def test_half_integral(self, capsys):
        code, payload, _ = run_json(capsys, "heckoid", "3/5", "5/2")
        assert code == 0
        assert payload["family"] == "M1"
        assert payload["slope"] == "4/5"
        assert payload["key"] == "M1[4/5;5]"
        assert payload["family_params"]["m"] == 5
        assert payload["family_params"]["J1"] == ["K1"]
        edges = {e["id"]: e["weight"] for e in payload["graph"]["edges"]}
        assert edges == {"K1": "inf", "K2": "2", "tminus": "5"}

    def test_integral(self, capsys):
        code, payload, _ = run_json(capsys, "heckoid", "3/8", "3")
        assert code == 0
        assert payload["family"] == "M0"
        assert payload["family_params"]["n"] == 3

    def test_text_display(self, capsys):
        code, out, _ = run(capsys, "heckoid", "3/5", "5/2")
        assert code == 0
        assert "M1(4/5;5)" in out

    def test_bad_index_domain(self, capsys):
        code, _, _ = run(capsys, "heckoid", "3/5", "1")
        assert code == 1

    def test_bad_index_usage(self, capsys):
        code, _, _ = run(capsys, "heckoid", "3/5", "x")
        assert code == 2

    def test_exponent_refused(self, capsys):
        # Fraction would compute 10**exponent: 13 s for 1e-9999999 before
        # the text failed.  A decimal point alone stays valid.
        for index in ("1e-9999999", "7e9999999", "25E-1", "2.5e0"):
            code, out, err = run(capsys, "heckoid", "3/5", index)
            assert (code, out) == (2, ""), index
            assert f"bad index {index!r}" in err
        code, payload, _ = run_json(capsys, "heckoid", "3/5", "2.5")
        assert code == 0 and payload["key"] == "M1[4/5;5]"


class TestNumericArguments:
    """Every numeric argument is an optional sign and ASCII digits
    (``slopes.parse_int``): int() and Fraction would also read other
    scripts' digits and underscores."""

    @pytest.mark.parametrize("argv, message", [
        (("link", "classify", "\u0663/7"), "argument slope: bad slope '\u0663/7'"),
        (("link", "classify", "3/1_000_003"), "argument slope: bad slope '3/1_000_003'"),
        (("heckoid", "3/7", "\u0663/2"), "argument index: bad index '\u0663/2'"),
        (("heckoid", "3/7", " 5/2"), "argument index: bad index ' 5/2'"),
        (("dihedral", "2/5", "\u0662", "3"), "argument d1: invalid int value: '\u0662'"),
        (("dihedral", "2/5", "2", "1_1"), "argument d2: invalid int value: '1_1'"),
        (("cusp", "244", "--count", "\u0663"), "argument --count: invalid int value: '\u0663'"),
        (("triangle", "order", "\u0662 \u0663 \u0665", "a"),
         "argument type: need three integers, got '\u0662 \u0663 \u0665'"),
        (("triangle", "image", "2 4 4 -> 2 2 4_0", "b"),
         "argument map: need three integers, got ' 2 2 4_0'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: {message}\n"), err

    def test_index_forms(self, capsys):
        # a ratio, a decimal (with or without a whole part) and an integer
        for index, key in (("5/2", "M1[4/5;5]"), ("2.5", "M1[4/5;5]"), ("+5/2", "M1[4/5;5]"),
                           ("3", "M0[2/5;3]"), ("3.", "M0[2/5;3]"), ("6/2", "M0[2/5;3]")):
            code, payload, _ = run_json(capsys, "heckoid", "3/5", index)
            assert (code, payload["key"]) == (0, key), index
        for index in ("-2.5", ".5", "5/-2"):
            code, _, err = run(capsys, "heckoid", "3/5", index)
            assert code == 1 and err.startswith("error: index must be"), index
        for index in ("5/0", ".", "2.5.0", "2.5/1", "1/2.5", "2.-5", "0x3"):
            code, _, err = run(capsys, "heckoid", "3/5", index)
            assert code == 2 and f"bad index {index!r}" in err, index

    def test_negative_slope_after_double_dash(self, capsys):
        # argparse reads "-3/7" as an option; after "--" it is the slope
        code, _, err = run(capsys, "link", "classify", "-3/7")
        assert code == 2 and "the following arguments are required: slope" in err
        code, out, _ = run(capsys, "link", "classify", "--json", "--", "-3/7")
        payload = json.loads(out)
        assert (code, payload["slope"], payload["canonical"]) == (0, "-3/7", "2/7")


class TestDihedral:
    def test_generic(self, capsys):
        code, payload, _ = run_json(capsys, "dihedral", "2/5", "2", "3")
        assert code == 0
        assert payload["k1"] == 1 and payload["k2"] == 7
        assert payload["order"] == 60 and payload["group"] == "D30"
        assert payload["isom"] == "(Z2)^2"
        assert payload["normalizer_order"] == 240
        assert payload["quotient_order"] == 4
        assert payload["key"] == "O[2/5;2,3]"
        assert payload["certificate"]["dihedral_relation"] is True
        assert payload["quotient_elements"] == [
            "L(0, 0)",
            "L(1/30, 7/20)",
            "L(1/2, 0)",
            "L(8/15, 7/20)",
        ]

    def test_trivial_theta(self, capsys):
        code, payload, _ = run_json(capsys, "dihedral", "0/1", "1", "2")
        assert code == 0
        assert payload["isom"] == "D3xZ2"
        assert payload["order"] == 4
        assert payload["normalizer_order"] == 48
        assert payload["quotient_order"] == 12
        # Cosets of Gamma~ as (q1, q2) pairs over Q(sqrt2).
        assert payload["quotient_elements"] == [
            "([1 0i 0j 0k], [1 0i 0j 0k])",
            "([1/2*sqrt2 1/2*sqrt2i 0j 0k], [1/2*sqrt2 1/2*sqrt2i 0j 0k])",
            "([1/2 1/2i 1/2j 1/2k], [1/2 1/2i 1/2j 1/2k])",
            "([1 0i 0j 0k], [-1 0i 0j 0k])",
            "([0 1/2*sqrt2i 0j 1/2*sqrt2k], [0 1/2*sqrt2i 0j 1/2*sqrt2k])",
            "([1/2*sqrt2 1/2*sqrt2i 0j 0k], [-1/2*sqrt2 -1/2*sqrt2i 0j 0k])",
            "([0 1/2*sqrt2i 1/2*sqrt2j 0k], [0 1/2*sqrt2i 1/2*sqrt2j 0k])",
            "([-1/2 1/2i 1/2j 1/2k], [-1/2 1/2i 1/2j 1/2k])",
            "([1/2 1/2i 1/2j 1/2k], [-1/2 -1/2i -1/2j -1/2k])",
            "([0 1/2*sqrt2i 0j 1/2*sqrt2k], [0 -1/2*sqrt2i 0j -1/2*sqrt2k])",
            "([0 1/2*sqrt2i 1/2*sqrt2j 0k], [0 -1/2*sqrt2i -1/2*sqrt2j 0k])",
            "([-1/2 1/2i 1/2j 1/2k], [1/2 -1/2i -1/2j -1/2k])",
        ]

    def test_formula_only(self, capsys):
        code, payload, _ = run_json(capsys, "dihedral", "1/3", "1", "1")
        assert code == 0
        assert payload["isom"] == "S1:Z2"
        assert payload["normalizer_order"] is None
        assert payload["quotient_elements"] is None

    def test_non_coprime(self, capsys):
        code, _, _ = run(capsys, "dihedral", "1/3", "2", "4")
        assert code == 1

    def test_query_closes_no_group(self, capsys, monkeypatch):
        # Generic and (1,1) queries answer from the torus lattices: no
        # closure, and no element-by-element Gamma or N(Gamma).
        calls = []
        for owner, name in ((dihedral, "gamma"), (dihedral, "normalizer"),
                            (dihedral, "close"), (dihedral, "extend")):
            fn = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, name=name, fn=fn, **k: calls.append(name) or fn(*a, **k)
            )
        for argv in (("2/5", "2", "3"), ("3/8", "1", "1"), ("1/101", "7", "9")):
            code, _, _ = run(capsys, "dihedral", *argv, "--json")
            assert code == 0
        assert calls == []
        # The trivial theta-orbifold stays on the binary octahedral closure:
        # Gamma~ closed, and N(Gamma~) counted from its cosets, never listed.
        code, _, _ = run(capsys, "dihedral", "0/1", "1", "2")
        assert code == 0 and calls == ["close"]

    def test_certificate_is_read_only(self, capsys):
        code, fresh, _ = run(capsys, "dihedral", "2/5", "2", "3", "--json")
        assert code == 0
        record = dihedral.orbifold(slope("2/5"), 2, 3)
        with pytest.raises(TypeError):
            record.cert["order"] = 0
        code, again, _ = run(capsys, "dihedral", "2/5", "2", "3", "--json")
        assert code == 0 and again == fresh
        assert json.loads(again)["certificate"]["order"] == 60

    def test_large_query(self, capsys):
        # N(Gamma) has 687544 elements; the closures took 12.6 s and 400 MB.
        code, payload, _ = run_json(capsys, "dihedral", "1/601", "11", "13")
        assert code == 0
        assert payload["order"] == 171886 and payload["group"] == "D85943"
        assert payload["normalizer_order"] == 687544
        assert payload["quotient_order"] == 4
        assert payload["quotient_elements"] == [
            "L(0, 0)",
            "L(1/15626, 1/13222)",
            "L(1/2, 0)",
            "L(0, 1/2)",
        ]

    def test_non_positive_index(self, capsys):
        for d1 in ("0", "-1"):
            code, out, err = run(capsys, "dihedral", "2/5", d1, "1")
            assert code == 1
            assert out == ""
            assert err == "error: d1, d2 must be positive\n"

    def test_order_past_bound_refused_before_any_product(self, capsys, monkeypatch):
        # p, d1 or d2 past the factoring bound: refused before any product.
        def product(a, b):
            raise AssertionError("Isom3 product formed")

        monkeypatch.setattr(quat.Isom3, "__mul__", product)
        big = str(dihedral.FACTOR_BOUND + 1)
        for argv, name in (((f"1/{big}", "1", "2"), "p"), (("1/3", big, "1"), "d1"),
                           (("1/3", "2", big), "d2")):
            code, out, err = run(capsys, "dihedral", *argv)
            assert code == 1
            assert out == ""
            assert err == (
                f"error: O({argv[0]};{argv[1]},{argv[2]}) has {name} = {big}, past the "
                f"factoring bound {dihedral.FACTOR_BOUND}\n"
            )
        assert dihedral.FACTOR_BOUND == 10**12

    def test_order_from_a_multiple_costs_log_n_products(self, capsys, monkeypatch):
        # n = 930000 and n = 62999999999307 (p prime, at the factoring
        # bound): order(f) from its multiple n, not a walk of n products.
        products = []
        mul = quat.Isom3.__mul__
        monkeypatch.setattr(quat.Isom3, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        for argv, group in ((("3/1000", "30", "31"), "D930000"),
                            (("5/999999999989", "7", "9"), "D62999999999307")):
            products.clear()
            code, payload, _ = run_json(capsys, "dihedral", *argv)
            assert code == 0
            assert payload["group"] == group and payload["quotient_order"] == 4
            assert len(products) < 1000, f"{len(products)} Isom3 products"


class TestHomology:
    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(
            json.dumps(graph_to_json(make_dihedral(slope("2/5"), 2, 3).graph))
        )
        code, payload, _ = run_json(capsys, "homology", str(path))
        assert code == 0
        assert payload["dimension"] == 2
        assert payload["meridian_class"]["tminus"] == [0, 0]

    def test_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "desc.json"
        d = make_heckoid(slope("2/5"), 3)
        path.write_text(json.dumps({**graph_to_json(d.graph), "family": dict(d.family)}))
        code, payload, _ = run_json(capsys, "homology", str(path))
        assert code == 0
        assert payload["dimension"] == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "homology", str(tmp_path / "absent.json"))
        assert code == 1

    def test_deeply_nested_json(self, capsys, tmp_path):
        # The JSON reader's recursion limit is an error line, not a traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: JSON nested too deeply\n"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nonsense")
        code, _, _ = run(capsys, "homology", str(path))
        assert code == 1

    def test_open_graph_rejected(self, capsys, tmp_path):
        path = tmp_path / "open.json"
        path.write_text(
            json.dumps(
                {
                    "ambient": "ball-pair",
                    "vertices": [{"id": "B", "boundary": True}],
                    "edges": [
                        {"id": "S1", "ends": ["B", "B"], "weight": "2"},
                        {"id": "S2", "ends": ["B", "B"], "weight": "2"},
                    ],
                }
            )
        )
        code, _, _ = run(capsys, "homology", str(path))
        assert code == 1

    def test_boolean_weight_refused(self, capsys, tmp_path):
        # JSON true is not the weight 1.
        document = graph_to_json(make_dihedral(slope("2/5"), 2, 3).graph)
        document["edges"][0]["weight"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (1, "")
        assert err == "error: bad weight True on edge 'K1'\n"

    @pytest.mark.parametrize("text", ["1_0", " 3", "\u0663", "x"])
    def test_weight_string_read_by_the_ascii_integer_rule(self, capsys, tmp_path, text):
        # As every numeric argument: "1_0" is not 10, nor " 3" 3.
        document = graph_to_json(make_dihedral(slope("2/5"), 2, 3).graph)
        document["edges"][0]["weight"] = text
        path = tmp_path / "weight.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: bad weight {text!r} on edge 'K1'\n"
        for good in ("+2", "02", "inf"):
            document["edges"][0]["weight"] = good
            path.write_text(json.dumps(document))
            assert run(capsys, "homology", str(path))[0] == 0

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {"ambient": "S3", "vertices": 5, "edges": []},
                'a graph needs "vertices" and "edges" lists',
            ),
            ([1, 2], "a graph document must be a JSON object"),
            (5, "a graph document must be a JSON object"),
            (None, "a graph document must be a JSON object"),
            (True, "a graph document must be a JSON object"),
            (False, "a graph document must be a JSON object"),
            (
                {
                    "ambient": "S3",
                    "vertices": [{"id": "a"}],
                    "edges": [{"id": "e", "ends": ["a"], "weight": "2"}],
                },
                "malformed edge {'id': 'e', 'ends': ['a'], 'weight': '2'}",
            ),
            *(
                (
                    {"ambient": "S3", "vertices": [], "edges": [], "family": family},
                    f"malformed family {family!r}",
                )
                for family in ({}, [], 0, "", False, None)
            ),
            (
                {
                    "ambient": "S3",
                    "vertices": [{"id": "a", "boundary": "false"}],
                    "edges": [{"id": "e", "ends": ["a", "a"], "weight": "2"}],
                },
                "malformed vertex {'id': 'a', 'boundary': 'false'}",
            ),
        ],
        ids=[
            "vertex-count", "top-level-array", "number", "null", "true", "false", "one-end",
            "family-empty-object", "family-empty-array", "family-zero", "family-empty-string",
            "family-false", "family-null", "boundary-string",
        ],
    )
    def test_malformed_structure(self, capsys, tmp_path, document, message):
        # One error line, not a traceback, for a file of the wrong shape.
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "homology", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @staticmethod
    def prism(k: int) -> dict:
        """The cubic prism graph on 2k vertices, every weight 2: its Z2
        homology has dimension k + 1 over 3k edges."""
        edges = []
        for i in range(k):
            j = (i + 1) % k
            edges += [
                {"id": f"a{i}", "ends": [f"a{i}", f"a{j}"], "weight": 2},
                {"id": f"b{i}", "ends": [f"b{i}", f"b{j}"], "weight": 2},
                {"id": f"r{i}", "ends": [f"a{i}", f"b{i}"], "weight": 2},
            ]
        vertices = [{"id": f"{side}{i}"} for side in "ab" for i in range(k)]
        return {"ambient": "S3", "vertices": vertices, "edges": edges}

    def test_past_the_cell_bound_refused_before_any_class(self, capsys, tmp_path):
        # 2000 vertices: 3000 edges x dimension 1001.  Unbounded, the
        # command took 2.6 s and 305 MB and printed 27 MB.
        path = tmp_path / "prism.json"
        path.write_text(json.dumps(self.prism(1000)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "homology", str(path), "--json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            "error: H1(O; Z2) of 3000 edges has dimension 1001: its classes have "
            f"3003000 entries, past the bound {orbigraph.MAX_HOMOLOGY_CELLS}\n"
        )
        assert orbigraph.MAX_HOMOLOGY_CELLS == 10**6
        assert peak < 16 * 2**20, f"{peak} bytes at peak"

    def test_past_the_elimination_bound_refused_before_it(self, capsys, tmp_path):
        # 20000 vertices: 30000 edges x 20000 relations.  Eliminated first,
        # the command took 3.5 s and a 171 MB tracemalloc peak before its
        # refusal; the peak left is the JSON and the graph.
        path = tmp_path / "prism.json"
        path.write_text(json.dumps(self.prism(10000)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "homology", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            "error: H1(O; Z2) of 30000 edges has 20000 relations: its elimination spans "
            f"600000000 entries, past the bound {orbigraph.MAX_HOMOLOGY_ELIMINATION}\n"
        )
        assert peak < 48 * 2**20, f"{peak} bytes at peak"

    def test_within_the_cell_bound(self, capsys, tmp_path):
        # 3*399 edges x dimension 400 = 478800 entries, below the bound.
        path = tmp_path / "prism.json"
        path.write_text(json.dumps(self.prism(399)))
        code, payload, err = run_json(capsys, "homology", str(path))
        assert (code, err) == (0, "")
        assert payload["dimension"] == 400
        assert len(payload["meridian_class"]) == 3 * 399


class TestCusp:
    def test_spectrum_244(self, capsys):
        code, payload, _ = run_json(capsys, "cusp", "244")
        assert code == 0
        assert [entry["coef2"] for entry in payload["spectrum"]] == [4, 8, 16]
        first = payload["spectrum"][0]["orbits"][0]
        assert first["representative"] == [1, 0]
        assert first["word"] == "bba"
        assert first["size"] == 4

    def test_spectrum_count(self, capsys):
        code, payload, _ = run_json(capsys, "cusp", "T236", "--count", "2")
        assert code == 0
        assert [entry["coef2"] for entry in payload["spectrum"]] == [12, 36]

    def test_brenner(self, capsys):
        code, payload, _ = run_json(capsys, "cusp", "244", "--brenner")
        assert code == 0
        assert [o["coef2"] for o in payload["orbits"]] == [4, 8]

    def test_bad_kind(self, capsys):
        code, _, _ = run(capsys, "cusp", "999")
        assert code == 2

    def test_bad_count(self, capsys):
        code, _, _ = run(capsys, "cusp", "244", "--count", "0")
        assert code == 1

    def test_count_past_bound_refused_before_enumerating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("vectors enumerated")

        monkeypatch.setattr(cusplattice, "vectors_with_coef2_at_most", refuse)
        code, out, err = run(capsys, "cusp", "244", "--count", "1001")
        assert (code, out) == (1, "")
        assert err == "error: count 1001 is past the spectrum bound 1000\n"


class TestTriangle:
    def test_order(self, capsys):
        code, payload, _ = run_json(capsys, "triangle", "order", "2 3 3", "ac3")
        assert code == 0
        assert payload["order"] == 2

    def test_order_past_the_coset_bound(self, capsys):
        # T(2,2,20000) has order 40000, above the default bound of 10000.
        code, out, err = run(capsys, "triangle", "order", "2 2 20000", "a")
        assert code == 1 and out == ""
        assert "overflowed the coset bound" in err

    def test_order_with_an_entry_one(self, capsys):
        # T(1,10001,10000) is trivial: c = b^-1, so b^gcd(10001, 10000) = 1.
        code, payload, _ = run_json(capsys, "triangle", "order", "1 10001 10000", "a")
        assert code == 0
        assert payload["order"] == 1

    @pytest.mark.parametrize("ptype", ["1,10000000,9999999", "1,99999999999,99999999998"])
    def test_order_with_an_entry_one_and_long_powers(self, capsys, ptype):
        # Each power relator is one run: no relator is built letter by
        # letter, so the trivial group answers without allocating for its
        # powers (once 246 MB, or a MemoryError for the second triple).
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "triangle", "order", ptype, "a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out == f"|a| = 1 in T({ptype.replace(',', ', ')})\n"
        assert peak < 2**20, f"{peak} bytes at peak"

    def test_order_t22_3000_within_the_coset_bound(self, capsys):
        # T(2,2,3000) has order 6000, below the default bound of 10000.
        code, payload, _ = run_json(capsys, "triangle", "order", "2 2 3000", "a")
        assert code == 0
        assert payload["order"] == 2

    def test_order_non_spherical(self, capsys):
        code, _, _ = run(capsys, "triangle", "order", "2 4 4", "b2a")
        assert code == 1

    def test_order_bad_type(self, capsys):
        code, _, _ = run(capsys, "triangle", "order", "2 3", "a")
        assert code == 2

    def test_image(self, capsys):
        code, payload, _ = run_json(
            capsys, "triangle", "image", "2 4 4 -> 2 2 4", "b2a"
        )
        assert code == 0
        assert payload["order"] == 2
        assert payload["source"] == [2, 4, 4]
        assert payload["target"] == [2, 2, 4]

    def test_image_invalid_epimorphism(self, capsys):
        code, _, _ = run(capsys, "triangle", "image", "2 4 4 -> 2 3 3", "b2a")
        assert code == 1

    def test_image_malformed_map(self, capsys):
        code, _, _ = run(capsys, "triangle", "image", "2 4 4", "b2a")
        assert code == 2

    def test_huge_repeat_count(self, capsys):
        code, out, err = run(capsys, "triangle", "order", "2 3 5", "a99999999999")
        assert code == 0 and err == ""
        assert out == "|a99999999999| = 2 in T(2, 3, 5)\n"

    def test_word_past_the_run_bound(self, capsys):
        word = "ab" * cosetenum.MAX_WORD_RUNS
        code, out, err = run(capsys, "triangle", "order", "2 3 5", word)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_word_refused_before_enumeration(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cosetenum, "triangle_table", lambda *a, **k: calls.append(a))
        code, _, err = run(capsys, "triangle", "order", "1 5000 5000", "x")
        assert code == 1 and err.startswith("error: ")
        code, _, _ = run(capsys, "triangle", "image", "2 4 4 -> 2 2 4", "b2a0")
        assert code == 1
        assert calls == []


class TestVerify:
    def test_single_check(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "cusp-244")
        assert code == 0
        assert payload["passed"] == 1 and payload["failed"] == 0
        (entry,) = payload["checks"]
        assert entry["id"] == "cusp-244"
        assert entry["status"] == "pass"
        assert entry["criterion"] == 4

    def test_several_checks_text(self, capsys):
        code, out, _ = run(capsys, "verify", "cusp-244", "cusp-236")
        assert code == 0
        assert "PASS" in out
        assert out.strip().endswith("2/2 checks passed")

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "bogus-check")
        assert code == 2
        assert "unknown check" in err

    def test_no_selector(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 2

    def test_unknown_check_with_all(self, capsys, monkeypatch):
        # An unknown id is refused before any check runs, with or without
        # --all.
        monkeypatch.setattr(verify, "run_checks", lambda *a: pytest.fail("checks ran"))
        for argv in (("verify", "--all", "bogus-check"),
                     ("verify", "--all", "cusp-244", "bogus-check", "--json")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "unknown check ids: bogus-check" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "link", "classify", "3/8", "--nope")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


PARSER_SWEEP = parser_sweep.argvs()


class TestParserBranch:
    """``main`` fills in only the branch of the parser its words name."""

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            # the top-level parser and one per command
            (["dihedral", "2/7", "3", "5"], 8),
            # and one per link leaf
            (["link", "cf", "3/8"], 12),
            (["triangle", "order", "2 3 5", "ab"], 10),
            # no command named: every branch (the whole tree with a shared
            # --json parent built 15)
            (["--help"], 14),
            (["nosuch"], 14),
        ],
    )
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.main(argv)
        capsys.readouterr()
        assert len(built) == parsers

    @pytest.mark.parametrize(
        "argv, added",
        [
            # Before: 12, 21, 16, 45 and 45, when every command and leaf
            # took -h and every leaf of link and triangle its arguments.
            # Now the top-level -h, the named command's and leaf's -h, and
            # the leaf's arguments.
            (["dihedral", "2/7", "3", "5"], 6),
            (["link", "cf", "3/8"], 5),
            (["triangle", "order", "2 3 5", "ab"], 6),
            # no command named: every branch
            (["--help"], 45),
            (["nosuch"], 45),
        ],
    )
    def test_arguments_added(self, capsys, monkeypatch, argv, added):
        # A placeholder that regains -h or arguments adds to these.
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting_add_argument(self, *args, **kwargs):
            calls.append(1)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
        cli.main(argv)
        capsys.readouterr()
        assert len(calls) == added

    def test_leaves_read_their_function_when_built(self, monkeypatch):
        # bench/spans.py traces the commands by replacing cli's cmd_*
        # attributes after import: a leaf that kept the function it saw at
        # import would run untraced.
        for name in [name for name in vars(cli) if name.startswith("cmd_")]:
            monkeypatch.setattr(cli, name, name)
        for argv, func in [
            (["link", "classify", "3/8"], "cmd_link_classify"),
            (["link", "equiv", "2/7", "4/7"], "cmd_link_equiv"),
            (["link", "cf", "3/8"], "cmd_link_cf"),
            (["link", "hat", "3/8"], "cmd_link_hat"),
            (["heckoid", "3/7", "2"], "cmd_heckoid"),
            (["dihedral", "2/7", "3", "5"], "cmd_dihedral"),
            (["cusp", "244"], "cmd_cusp"),
            (["triangle", "order", "2 3 5", "ab"], "cmd_triangle_order"),
            (["triangle", "image", "2 4 4 -> 2 2 4", "ab"], "cmd_triangle_image"),
            (["homology", "graph.json"], "cmd_homology"),
            (["verify", "--all"], "cmd_verify"),
        ]:
            assert cli.build_parser(argv).parse_args(argv).func == func

    @pytest.mark.parametrize("argv", PARSER_SWEEP, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_as_the_whole_tree(self, argv):
        # Exit code, stdout and stderr as the whole tree gives them, at 80
        # columns, and the same Namespace wherever the whole tree parses.
        assert parser_sweep.mismatch(argv) is None


# Malformed input for every subcommand, as (argv, document): a document is
# JSON text written to a file whose path replaces "FILE" in argv.
MALFORMED = [
    (("link", "classify", "abc"), None),
    (("link", "equiv", "3/8", "1/2/3"), None),
    (("link", "cf", "1//2"), None),
    (("link", "cf", "1/0"), None),
    (("link", "hat", ""), None),
    (("heckoid", "3/5", "1e9"), None),
    (("heckoid", "3/5", "x"), None),
    (("heckoid", "3/5", "5/4"), None),
    (("heckoid", "1/0", "3"), None),
    (("dihedral", "q", "1", "2"), None),
    (("dihedral", "2/5", "x", "1"), None),
    (("dihedral", "2/5", "-3", "1"), None),
    (("dihedral", "2/5", "2", "4"), None),
    (("dihedral", "1/0", "1", "2"), None),
    (("cusp", "999"), None),
    (("cusp", "244", "--count", "x"), None),
    (("cusp", "244", "--count", "0"), None),
    (("cusp", "244", "--count", "-1"), None),
    (("cusp", "T236", "--count", "1000000000"), None),
    (("triangle", "order", "2 3", "a"), None),
    (("triangle", "order", "0 3 5", "a"), None),
    (("triangle", "order", "2 3 7", "ab"), None),
    (("triangle", "order", "2 3 5", "x"), None),
    (("triangle", "order", "2 3 5", "a0"), None),
    (("triangle", "image", "2 4 4", "b2a"), None),
    (("triangle", "image", "a b c -> 2 2 4", "b"), None),
    (("triangle", "image", "2 4 4 -> 2 3 3", "b2a"), None),
    (("triangle", "image", "2 4 4 -> 2 2 4", "z"), None),
    (("verify",), None),
    (("verify", "bogus-check"), None),
    (("verify", "--all", "bogus-check"), None),
    (("homology", "FILE"), None),
    (("homology", "FILE"), ""),
    (("homology", "FILE"), "{nonsense"),
    (("homology", "FILE"), "5"),
    (("homology", "FILE"), "null"),
    (("homology", "FILE"), "true"),
    (("homology", "FILE"), "false"),
    (("homology", "FILE"), "[1, 2]"),
    (("homology", "FILE"), '"S3"'),
    (("homology", "FILE"), '{"ambient": "S3", "vertices": [], "edges": [], "family": 5}'),
    (("homology", "FILE"), '{"ambient": "S3", "vertices": [], "edges": [], '
                           '"family": {"tag": 5}}'),
    (("homology", "FILE"), '{"ambient": "S3", "vertices": [], "edges": [], '
                           '"family": {"tag": "X"}}'),
    (("homology", "FILE"), '{"ambient": "H3", "vertices": [], "edges": []}'),
    (("homology", "FILE"), '{"ambient": ["S3"], "vertices": [], "edges": []}'),
    (("homology", "FILE"), '{"ambient": "S3", "vertices": [{"id": "a"}], "edges": '
                           '[{"id": "e", "ends": ["a", "a"], "weight": "abc"}]}'),
    (("triangle", "order", "2 3 3", "İ"), None),
    (("triangle", "order", "2 3 3", "a²"), None),
    (("triangle", "image", "2 4 4 -> 2 2 4", "İ"), None),
    (("triangle", "image", "2 4 4 -> 2 2 4", "a²"), None),
    *(
        (("homology", "FILE"), f'{{"ambient": "S3", "vertices": [], "edges": [], "family": {f}}}')
        for f in ("{}", "[]", "0", '""', "false", "null")
    ),
    (("homology", "FILE"), '{"ambient": "S3", "vertices": [{"id": "a", "boundary": "false"}], '
                           '"edges": []}'),
]


@pytest.mark.parametrize(
    "argv, document",
    MALFORMED,
    ids=[" ".join(argv) + ("" if doc is None else f" <{doc}>") for argv, doc in MALFORMED],
)
def test_malformed_input_exits_without_traceback(capsys, tmp_path, argv, document):
    # Exit 1 with an "error:" line, or 2 for a usage error; never a traceback.
    path = tmp_path / "input.json"
    if document is not None:
        path.write_text(document)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code in (1, 2), (code, out, err)
    assert "Traceback" not in out + err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert "usage" in err, err
