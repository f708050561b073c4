"""End-to-end command-line tests via main(argv)."""

import json

import pytest

from pa import cli, dihedral
from pa.orbigraph import graph_to_json, descriptor_to_json, make_dihedral, make_heckoid
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

    def test_builds_gamma_and_normalizer_once_per_query(self, capsys, monkeypatch):
        calls = []
        for name in ("gamma", "normalizer"):
            fn = getattr(dihedral, name)
            monkeypatch.setattr(
                dihedral, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a)
            )
        dihedral.orbifold.cache_clear()
        code, fresh, _ = run(capsys, "dihedral", "2/5", "2", "3")
        assert code == 0
        assert calls == ["gamma", "normalizer"]
        code, repeat, _ = run(capsys, "dihedral", "2/5", "2", "3")
        assert code == 0 and repeat == fresh
        assert calls == ["gamma", "normalizer"]

    def test_non_positive_index(self, capsys):
        for d1 in ("0", "-1"):
            code, out, err = run(capsys, "dihedral", "2/5", d1, "1")
            assert code == 1
            assert out == ""
            assert err == "error: d1, d2 must be positive\n"


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
        path.write_text(
            json.dumps(descriptor_to_json(make_heckoid(slope("2/5"), 3)))
        )
        code, payload, _ = run_json(capsys, "homology", str(path))
        assert code == 0
        assert payload["dimension"] == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "homology", str(tmp_path / "absent.json"))
        assert code == 1

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


class TestTriangle:
    def test_order(self, capsys):
        code, payload, _ = run_json(capsys, "triangle", "order", "2 3 3", "ac3")
        assert code == 0
        assert payload["order"] == 2

    def test_order_past_the_coset_bound(self, capsys, monkeypatch):
        # T(2,2,20000) has order 40000, above the default bound of 10000.
        monkeypatch.delenv("PA_MAX_COSETS", raising=False)
        code, out, err = run(capsys, "triangle", "order", "2 2 20000", "a")
        assert code == 1 and out == ""
        assert "overflowed the coset bound" in err

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
