"""The verification-check registry and runner."""

import dataclasses
import os
import subprocess
import sys
import sysconfig
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import pytest

import oracles
from pa import cosetenum, cusplattice, dihedral, groups, orbigraph, quat, slopes, verify
from pa.groups import FinGroup
from pa.slopes import Slope


class TestRegistry:
    def test_twelve_checks(self):
        assert len(verify.CHECKS) == 12
        assert set(verify.CHECKS) == {
            "brenner-filter",
            "cusp-236",
            "cusp-244",
            "dihedral-order",
            "heckoid-classification",
            "homology-cases",
            "isometry-groups",
            "no-floats",
            "normalizer-soundness",
            "theta-isom",
            "triangle-images",
            "triangle-orders",
        }

    def test_criteria_covered(self):
        criteria = {crit for crit, _, _ in verify.CHECKS.values()}
        assert criteria == set(range(1, 10))

    def test_float_scan_covers_every_core_module(self):
        # Criterion 9 scans a hand-kept list; a new module must join it.
        # Only the front ends (cli, verify) and the package root stay out.
        root = Path(verify.__file__).parent
        modules = {path.name for path in root.glob("*.py")}
        assert set(verify.CORE_MODULES) == modules - {"__init__.py", "cli.py", "verify.py"}


class TestRunner:
    def test_selector_subset_sorted(self):
        results = verify.run_checks(["cusp-244", "brenner-filter"])
        assert [r.check_id for r in results] == ["brenner-filter", "cusp-244"]
        assert all(r.ok for r in results)
        assert all(r.status == "pass" for r in results)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify.run_checks(["cusp-244", "nope"])

    @pytest.mark.parametrize("selector", ["cusp-244", "all"])
    def test_string_selector_refused_before_any_check(self, monkeypatch, selector):
        # a string is not read character by character as a list of ids
        ran = []
        for cid, (criterion, anchor, fn) in list(verify.CHECKS.items()):
            monkeypatch.setitem(
                verify.CHECKS, cid, (criterion, anchor, lambda _cid=cid: ran.append(_cid))
            )
        with pytest.raises(TypeError, match="list of check ids"):
            verify.run_checks(selector)
        assert ran == []

    def test_result_fields(self):
        (res,) = verify.run_checks(["cusp-244"])
        assert res.criterion == 4
        assert res.anchor and "2,4,4" in res.anchor
        assert res.witness["values"] == [4, 8, 16]

    def test_exceptions_become_failures(self, monkeypatch):
        def boom():
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(
            verify.CHECKS, "synthetic", (1, "synthetic check", boom)
        )
        (res,) = verify.run_checks(["synthetic"])
        assert not res.ok
        assert res.status == "fail"
        assert "synthetic failure" in res.witness["error"]


class TestLatticeCrossCheck:
    """Checks 1-3 close Gamma and N(Gamma) and hold the lattice answer
    against the closures at every point: ``dihedral.orbifold``'s, or only
    its certificate half ``gamma_lattice``'s where check 1 alone reads it."""

    def corrupt(self, monkeypatch, change, name="orbifold"):
        answer = getattr(dihedral, name)
        monkeypatch.setattr(dihedral, name, lambda *a: change(answer(*a)))

    def failures(self):
        results = verify.run_checks(["dihedral-order", "isometry-groups", "normalizer-soundness"])
        return {r.check_id: r.witness for r in results if not r.ok}

    def test_wrong_order(self, monkeypatch):
        # ``orbifold`` takes its certificate from ``gamma_lattice``, so the
        # fault reaches the record at the ordinary points too.
        self.corrupt(monkeypatch, lambda rec: rec._replace(
            cert=MappingProxyType({**rec.cert, "order": rec.cert["order"] + 2})
        ), "gamma_lattice")
        failures = self.failures()
        assert set(failures) == {"dihedral-order", "isometry-groups", "normalizer-soundness"}
        assert failures["dihedral-order"] == {"point": "(0/1;1,1)", "lattice": "disagrees"}
        # and check 1 fails at every point it alone covers, (1, 1) and theta
        exceptional = [
            point for point in (
                verify._Point(r, d1, d2)
                for r in verify._sweep_slopes(8) for d1, d2 in verify._coprime_pairs(4)
            )
            if point.exceptional
        ]
        assert len(exceptional) == 24
        for point in exceptional:
            assert verify._order_fault(point) == {"point": point.name, "lattice": "disagrees"}

    def test_wrong_labels_or_table(self, monkeypatch):
        def relabel(rec):
            if rec.quotient is None or len(rec.quotient) != 4:
                return rec
            q = rec.quotient
            return rec._replace(quotient=FinGroup(
                [*q.elements[:1], *reversed(q.elements[1:])], q.identity, mul=q.mul, inv=q.inv
            ))

        self.corrupt(monkeypatch, relabel)
        assert set(self.failures()) == {"isometry-groups", "normalizer-soundness"}

        def retable(rec):
            if rec.quotient is None or len(rec.quotient) != 4:
                return rec
            q = rec.quotient
            return rec._replace(quotient=FinGroup(
                q.elements, q.identity, mul=lambda a, b: q.identity, inv=q.inv
            ))

        monkeypatch.undo()
        self.corrupt(monkeypatch, retable)
        failures = self.failures()
        assert set(failures) == {"isometry-groups", "normalizer-soundness"}
        assert failures["isometry-groups"]["lattice"] == "disagrees"


DIHEDRAL_IDS = ("dihedral-order", "isometry-groups", "normalizer-soundness")
# every way to select checks 1-3: alone, in pairs, and with all twelve checks
SELECTIONS = [[cid] for cid in DIHEDRAL_IDS] + [
    [a, b] for i, a in enumerate(DIHEDRAL_IDS) for b in DIHEDRAL_IDS[i + 1:]
] + [None]
TARGET = (Slope(2, 5), 2, 3)  # a point of all three sweeps
EARLY = (Slope(1, 3), 1, 1)  # a point of check 1's sweep only, before TARGET


def _gamma_lattice_wrong(monkeypatch):
    gamma_lattice = dihedral.gamma_lattice

    def wrong(r, d1, d2):
        rec = gamma_lattice(r, d1, d2)
        if (r, d1, d2) != EARLY:
            return rec
        return rec._replace(cert=MappingProxyType({**rec.cert, "order": rec.cert["order"] + 2}))

    monkeypatch.setattr(dihedral, "gamma_lattice", wrong)


def _orbifold_wrong(monkeypatch):
    orbifold = dihedral.orbifold

    def wrong(r, d1, d2):
        rec = orbifold(r, d1, d2)
        if (r, d1, d2) != TARGET:
            return rec
        return rec._replace(cert=MappingProxyType({**rec.cert, "order": rec.cert["order"] + 2}))

    monkeypatch.setattr(dihedral, "orbifold", wrong)


# The pass closes Gamma and N(Gamma) coset by coset, the sweeps breadth-first
# (``oracles.closure_gamma``, ``oracles.closure_normalizer``): a fault in
# either step is put into both forms.


def _normalizer_raises(monkeypatch):
    for owner, name in ((dihedral, "normalizer"), (oracles, "closure_normalizer")):
        def raising(params, group, _normalizer=getattr(owner, name)):
            if (params.r, params.d1, params.d2) == TARGET:
                raise ArithmeticError("synthetic: fails to normalize Gamma")
            return _normalizer(params, group)

        monkeypatch.setattr(owner, name, raising)


def _gamma_raises(monkeypatch):
    for owner, name in ((dihedral, "gamma"), (oracles, "closure_gamma")):
        def raising(params, _gamma=getattr(owner, name)):
            if (params.r, params.d1, params.d2) in (EARLY, TARGET):
                raise RuntimeError(f"synthetic: no Gamma at {params.r}")
            return _gamma(params)

        monkeypatch.setattr(owner, name, raising)


def _recognize_wrong(monkeypatch):
    labels = oracles.closure_orbifold(*TARGET)[4].elements
    recognize = groups.recognize

    def wrong(group):
        return "D4" if group.elements == labels else recognize(group)

    monkeypatch.setattr(groups, "recognize", wrong)


class TestOnePass:
    """Checks 1-3 share one pass over the dihedral sweep; every verdict and
    witness is the one the check's own sweep (``oracles.DIHEDRAL_SWEEPS``)
    gives, under any selection."""

    @pytest.mark.parametrize(
        "fault",
        [_orbifold_wrong, _gamma_lattice_wrong, _normalizer_raises, _gamma_raises, _recognize_wrong],
    )
    def test_faults_give_the_sweeps_witnesses(self, monkeypatch, fault):
        fault(monkeypatch)
        expected = {cid: oracles.run_sweep(sweep) for cid, sweep in oracles.DIHEDRAL_SWEEPS.items()}
        assert any(status == "fail" for status, _ in expected.values())
        for selection in SELECTIONS:
            got = {
                r.check_id: (r.status, r.witness)
                for r in verify.run_checks(selection)
                if r.check_id in DIHEDRAL_IDS
            }
            assert got == {cid: expected[cid] for cid in got}, selection
            assert len(got) == len(selection or DIHEDRAL_IDS)

    def test_fault_witnesses(self, monkeypatch):
        # the sweeps themselves: each fault is seen where it was put
        _normalizer_raises(monkeypatch)
        witnesses = {r.check_id: r.witness for r in verify.run_checks(list(DIHEDRAL_IDS))}
        assert witnesses == {
            "dihedral-order": {"points": 242},
            "isometry-groups": {"error": "ArithmeticError: synthetic: fails to normalize Gamma"},
            "normalizer-soundness": {
                "point": "(2/5;2,3)", "error": "synthetic: fails to normalize Gamma"
            },
        }
        monkeypatch.undo()
        _gamma_raises(monkeypatch)
        failures = {r.check_id: r.witness for r in verify.run_checks(list(DIHEDRAL_IDS))}
        assert failures == {
            "dihedral-order": {"error": "RuntimeError: synthetic: no Gamma at 1/3"},
            "isometry-groups": {"error": "RuntimeError: synthetic: no Gamma at 2/5"},
            "normalizer-soundness": {"error": "RuntimeError: synthetic: no Gamma at 2/5"},
        }
        monkeypatch.undo()
        _recognize_wrong(monkeypatch)
        failures = {r.check_id: r.witness for r in verify.run_checks(None) if not r.ok}
        assert failures == {
            "isometry-groups": {"point": "(2/5;2,3)", "tag": "D4"},
            "normalizer-soundness": {"point": "(2/5;2,3)", "lattice": "disagrees"},
        }

    def test_presentation_agrees_with_the_dihedral_search(self):
        # Check 1 reads D_n from Gamma's presentation: order(f) = n,
        # order(J) = 2, J f J^-1 = f^-1 and |Gamma| = 2n (von Dyck).  The
        # search for a rotation of order n that it replaced agrees at every
        # point of its sweep.
        points = 0
        for r, d1, d2 in oracles._dihedral_points():
            params = dihedral.params_for(r, d1, d2)
            group, cert = dihedral.gamma(params)
            assert groups.dihedral_degree(group) == params.n == cert["order_f"], (r, d1, d2)
            assert cert["order_J"] == 2 and cert["dihedral_relation"], (r, d1, d2)
            points += 1
        assert points == 242

    def test_wrong_order_of_f_is_not_dihedral(self, monkeypatch):
        gamma = dihedral.gamma

        def wrong(params):
            group, cert = gamma(params)
            if (params.r, params.d1, params.d2) == TARGET:
                cert = MappingProxyType({**cert, "order_f": 2 * params.n})
            return group, cert

        monkeypatch.setattr(dihedral, "gamma", wrong)
        (result,) = verify.run_checks(["dihedral-order"])
        assert (result.status, result.witness) == (
            "fail", {"point": "(2/5;2,3)", "not_dihedral": 30}
        )

    def test_each_group_is_closed_once(self, monkeypatch):
        # ``orbifold`` at the 218 points of checks 2 and 3; at the 24 points
        # check 1 alone covers, (1, 1) and theta, only its certificate half.
        # 218 of the 242 ``gamma_lattice`` calls are ``orbifold``'s own.
        calls = Counter()
        for name in ("gamma", "normalizer", "orbifold", "gamma_lattice"):
            def counted(*args, _fn=getattr(dihedral, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(dihedral, name, counted)
        assert all(r.ok for r in verify.run_checks(None))
        assert calls == {"gamma": 242, "normalizer": 218, "orbifold": 218, "gamma_lattice": 242}

    def test_theta_closed_once_and_no_graph_for_a_key(self, monkeypatch):
        # All twelve checks close the theta normalizer once, in theta-isom
        # (502 QuatExt products; 1 506 when check 1 built the full record at
        # both theta points), and build only check 7's 38 graphs, one per
        # (p mod 2, d+, d-).
        # Before: 874 graphs, one per point of check 7's sweep (1 636 when
        # check 8's O-moves built two graphs for each key).
        counts = Counter()
        mul = quat.QuatExt.__mul__
        make_dihedral = orbigraph.make_dihedral

        def counted_mul(a, b):
            counts["QuatExt"] += 1
            return mul(a, b)

        def counted_make(*args):
            counts["make_dihedral"] += 1
            return make_dihedral(*args)

        monkeypatch.setattr(quat.QuatExt, "__mul__", counted_mul)
        monkeypatch.setattr(orbigraph, "make_dihedral", counted_make)
        assert all(r.ok for r in verify.run_checks(None))
        assert counts == {"QuatExt": 502, "make_dihedral": 38}

    def test_no_elision_pass(self, monkeypatch):
        # Checks 7 and 8 build their Heckoid and dihedral graphs already
        # elided, so no check runs the weight-1 elision.
        # Before: 345 calls, one per graph built (38 of check 7, 307 of
        # check 8).
        calls = Counter()
        elide = orbigraph._elide_weight_one

        def counted(*args, **kwargs):
            calls["elide"] += 1
            return elide(*args, **kwargs)

        monkeypatch.setattr(orbigraph, "_elide_weight_one", counted)
        assert all(r.ok for r in verify.run_checks(None))
        assert calls["elide"] == 0

    def test_homology_once_per_graph(self, monkeypatch):
        # Check 7 builds each of its 38 distinct graphs, and runs h1_z2 on
        # it, once, at the first of its 874 points with the graph's
        # (p mod 2, d+, d-), as make_dihedral reads r only through the
        # parity of p.  The guard fails a return to a graph or an h1_z2 per
        # point, and a dropped point.
        # Before: 874 make_dihedral calls, one per point, and 874 h1_z2
        # calls before that.
        calls = Counter()
        for name in ("h1_z2", "make_dihedral"):
            def counted(*args, _fn=getattr(orbigraph, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(orbigraph, name, counted)
        (result,) = verify.run_checks(["homology-cases"])
        assert (result.status, result.witness) == ("pass", {"points": 874})
        assert calls == {"h1_z2": 38, "make_dihedral": 38}

    def test_product_count(self, monkeypatch):
        # Gamma closed coset by coset from the known identity, orders from
        # the multiple n, N(Gamma)/Gamma from Gamma's cosets with N(Gamma)
        # never listed and the declared generators inside Gamma dropped (39
        # products a point, 25 where a half turn lies in Gamma), the torus
        # quotient searching vectors, order(J) read once, and check 1
        # reading D_n from Gamma's certificate instead of walking <f> again:
        # 24 181 Isom3 products over checks 1-3.  The guard fails a
        # returning J column.
        # Before: 24 423 when <f> was closed from f*f^-1 (an inverse and
        # a product at every point), 33 883 when the quotients multiplied
        # by J and the torus quotient labelled its cosets by products,
        # 41 130 when check 1 recognized D_n by ``dihedral_degree`` and the
        # torus quotient formed its whole 4x4 coset action
        # (orbifold('2/7', 3, 5) made 47, not 38; it makes 30 now), 39 011
        # when it stopped at the fourth coset, 82 327 when N(Gamma) was
        # listed and the quotient read from its blocks, 142 195 when the
        # quotient labelled every element by a product and recognition
        # walked <f> twice, and 333 382 when Gamma and N(Gamma) were closed
        # breadth-first and order(f) was walked.
        products = Counter()
        mul = quat.Isom3.__mul__

        def counted(a, b):
            products["Isom3"] += 1
            return mul(a, b)

        monkeypatch.setattr(quat.Isom3, "__mul__", counted)
        verdicts = verify._dihedral_verdicts(DIHEDRAL_IDS)
        assert all(ok for ok, _ in verdicts.values())
        assert products["Isom3"] <= 25_000, f"{products['Isom3']} Isom3 products"


def _fault_on_graph(monkeypatch, point, change):
    """``orbigraph.h1_z2`` passes its report through ``change`` for the
    graph of ``point`` = (r, d+, d-), whatever point it was built for."""
    graph = orbigraph.make_dihedral(*point).graph
    h1_z2 = orbigraph.h1_z2

    def wrong(g):
        report = h1_z2(g)
        return change(report) if g == graph else report

    monkeypatch.setattr(orbigraph, "h1_z2", wrong)


def _dimension_up(report):
    return dataclasses.replace(report, dimension=report.dimension + 1)


def _classes(change):
    def changed(report):
        return dataclasses.replace(report, meridian_class={**report.meridian_class, **change})

    return changed


class TestCaseTableFaults:
    """Checks 7 and 8 fail, with their witnesses, under one fault each.

    A check 7 fault sits on a graph, and ``make_dihedral`` reads r only
    through the parity of p: the witness is the first point of the sweep
    with that graph (0/1 for p odd, 1/2 for p even)."""

    @pytest.mark.parametrize("target, point, dim", [
        (("2/5", 3, 5), "(0/1;3,5)", 2),
        (("3/8", 5, 3), "(1/2;5,3)", 3),
    ], ids=["(2/5;3,5)-2", "(3/8;5,3)-3"])  # ids: the faulted graph's point
    def test_homology_rank_off_where_both_weights_are_odd(
        self, monkeypatch, target, point, dim
    ):
        # Points with d+ > 1: the case table's odd-odd row reaches them.
        _fault_on_graph(monkeypatch, target, _dimension_up)
        (result,) = verify.run_checks(["homology-cases"])
        assert (result.status, result.witness) == ("fail", {"point": point, "dim": dim})

    @pytest.mark.parametrize("target, change, point, dim, extra", [
        (("1/2", 1, 3), {"tminus": (1, 0)}, "(1/2;1,3)", 2, {"tminus_nonzero": True}),
        (("2/5", 3, 5), {"K1": (0,)}, "(0/1;3,5)", 1, {"arc_classes": [(0,), (1,)]}),
    ], ids=["(1/2;1,3)-2-change0-extra0", "(2/5;3,5)-1-change1-extra1"])
    def test_homology_classes_off_where_both_weights_are_odd(
        self, monkeypatch, target, change, point, dim, extra
    ):
        # the witness keys past the dimension, read from ``meridian_class``
        _fault_on_graph(monkeypatch, target, _classes(change))
        (result,) = verify.run_checks(["homology-cases"])
        assert (result.status, result.witness) == ("fail", {"point": point, "dim": dim, **extra})

    def test_graph_reads_only_the_parity_of_p(self):
        # The premise of building each graph at its first point: the graph
        # of every point equals that of the sweep's first slope of the same
        # parity, 0/1 or 1/2.
        points = 0
        for r in verify._sweep_slopes(12):
            s = Slope(1, 2) if r.p % 2 == 0 else Slope(0, 1)
            for d1, d2 in verify._coprime_pairs(5):
                graph = orbigraph.make_dihedral(r, d1, d2).graph
                assert graph == orbigraph.make_dihedral(s, d1, d2).graph, (r, d1, d2)
                points += 1
        assert points == 874

    def test_once_per_graph_agrees_with_every_point_unfaulted(self):
        # ``oracles.homology_cases_per_point`` runs h1_z2 at all 874 points
        expected = (True, {"points": 874})
        assert oracles.homology_cases_per_point() == verify.check_homology_cases() == expected

    @pytest.mark.parametrize("target, change, ok", [
        (("2/5", 3, 5), _dimension_up, False),
        (("3/8", 5, 3), _dimension_up, False),
        (("5/12", 4, 5), _dimension_up, False),
        (("1/2", 1, 3), _classes({"tminus": (1, 0)}), False),
        (("2/5", 3, 5), _classes({"K1": (0,)}), False),
        (("2/5", 3, 5), _classes({"tminus": (1,)}), True),
    ], ids=["dim-odd-p", "dim-even-p", "dim-not-both-odd", "tminus", "arcs", "unread"])
    def test_once_per_graph_agrees_with_every_point(self, monkeypatch, target, change, ok):
        # The faults on 3/8 and 5/12 first reach the sweep at 1/2, past its
        # p = 1 points; no row reads tminus for p odd, so "unread" passes.
        _fault_on_graph(monkeypatch, target, change)
        expected = oracles.homology_cases_per_point()
        assert expected[0] is ok
        assert verify.check_homology_cases() == expected

    def test_o_key_without_the_inversion_move(self, monkeypatch):
        def wrong(r, d_plus, d_minus):
            r = slopes.slope(r)
            return f"O[{r.q % r.p}/{r.p};{d_plus},{d_minus}]"

        monkeypatch.setattr(slopes, "dihedral_key", wrong)
        (result,) = verify.run_checks(["heckoid-classification"])
        assert (result.status, result.witness) == ("fail", {"o_move": "(1/2;1,2)"})

    def test_every_graph_of_check_8_is_closed(self, monkeypatch):
        # Check 8 runs check_sc on its Heckoid graphs, and every one is
        # closed: with no boundary sphere, the sphere condition holds
        # trivially and check_sc returns [] without reading a germ.
        graphs = []
        make = orbigraph.make_heckoid

        def recorded(r, n):
            desc = make(r, n)
            graphs.append(desc.graph)
            return desc

        monkeypatch.setattr(orbigraph, "make_heckoid", recorded)
        assert verify.check_heckoid_classification()[0]
        assert len(graphs) == 307
        assert not any(g.is_boundary(v) for g in graphs for v in g.vertex_ids())


class TestCheckFaults:
    """Checks 4-6, theta-isom and check 9 fail, with their witnesses, under
    one fault each."""

    @staticmethod
    def run(check_id):
        (result,) = verify.run_checks([check_id])
        return result.status, result.witness

    @pytest.mark.parametrize("check_id, kind, values", [
        ("cusp-244", "T244", [4, 9, 16]),
        ("cusp-236", "T236", [12, 37, 48]),
    ])
    def test_cusp_spectrum_value_off(self, monkeypatch, check_id, kind, values):
        spectrum = cusplattice.spectrum

        def wrong(k, bound):
            spec = list(spectrum(k, bound))
            value, orbits = spec[1]
            spec[1] = (value + 1, orbits)
            return spec

        monkeypatch.setattr(cusplattice, "spectrum", wrong)
        assert self.run(check_id) == ("fail", {"kind": kind, "values": values})

    def test_brenner_filter_drops_an_orbit(self, monkeypatch):
        candidates = cusplattice.brenner_candidates
        monkeypatch.setattr(
            cusplattice, "brenner_candidates",
            lambda kind: candidates(kind)[:-1] if kind == "T236" else candidates(kind),
        )
        assert self.run("brenner-filter") == ("fail", {
            "T244": {"coef2": [4, 8], "words": ["bba", "bbacca"]},
            "T236": {"coef2": [12], "words": ["accc"]},
        })

    def test_triangle_order_off_by_one(self, monkeypatch):
        triangle_group = cosetenum.triangle_group

        def wrong(p, q, r):
            group = triangle_group(p, q, r)
            return [*group, None] if (p, q, r) == (2, 3, 5) else group

        monkeypatch.setattr(cosetenum, "triangle_group", wrong)
        assert self.run("triangle-orders") == (
            "fail", {"type": (2, 3, 5), "order": 61, "expected": 60}
        )

    def test_triangle_image_order_off(self, monkeypatch):
        image_order = cosetenum.image_order

        def wrong(word, source, target):
            if (word, target) == ("b2ac2a", (2, 2, 2)):
                return 2
            return image_order(word, source, target)

        monkeypatch.setattr(cosetenum, "image_order", wrong)
        assert self.run("triangle-images") == (
            "fail", {"b2a": [2, 2, 2], "b2ac2a": [2, 2, 2]}
        )

    def test_triangle_image_not_conjugate(self, monkeypatch):
        # b2a's image in the (2,2,4) quotient replaced by the identity,
        # which is conjugate to no other element
        word_images = cosetenum.triangle_word_images

        def wrong(ptype, words):
            G, images = word_images(ptype, words)
            if ptype == (2, 2, 4):
                images = [images[0], G.identity]
            return G, images

        monkeypatch.setattr(cosetenum, "triangle_word_images", wrong)
        assert self.run("triangle-images") == ("fail", {
            "b2a": [2, 2, 2], "b2ac2a": [1, 2, 2], "ac3": 2, "ac4ac2": 2,
            "ac4ac2_conj_a": True, "c2a_conj_b2a_in_224": False,
        })

    THETA = {
        "gamma_pairs": 8, "gamma_isometries": 4, "normalizer_pairs": 96,
        "normalizer_isometries": 48, "quotient_order": 12, "type": "D6",
    }

    def test_theta_type_off(self, monkeypatch):
        # ``exceptional_isom`` holds its own answer against the paper's and
        # raises; the check fails with the error
        monkeypatch.setattr(dihedral, "recognize", lambda group: "D6")
        assert self.run("theta-isom") == ("fail", {
            "error": f"ArithmeticError: exceptional computation inconsistent: {self.THETA}"
        })

    def test_theta_type_off_past_the_inner_test(self, monkeypatch):
        # the check's own comparison, with the inner test bypassed
        exceptional_isom = dihedral.exceptional_isom

        def wrong():
            quotient, details = exceptional_isom()
            return quotient, {**details, "type": "D6"}

        monkeypatch.setattr(dihedral, "exceptional_isom", wrong)
        assert self.run("theta-isom") == ("fail", self.THETA)

    def test_float_in_a_core_source(self, monkeypatch):
        read_text = Path.read_text

        def with_float(path, *args, **kwargs):
            text = read_text(path, *args, **kwargs)
            return text + "x = 1.5\n" if path.name == "quat.py" else text

        monkeypatch.setattr(Path, "read_text", with_float)
        assert self.run("no-floats") == ("fail", {
            "scanned": list(verify.CORE_MODULES), "offenders": {"quat.py": ["1.5"]}
        })


# Criterion 9's scan: (source, what it flags).  Every source is valid Python.
# The first group is flagged; the rest name floats only inside strings and
# comments, or not at all.  The f-string group covers replacement fields,
# which are flagged, and format specs, which are not.  The next group puts a
# number or a string right after a run of operators and brackets, which the
# scan skips in one match.  The last group puts identifiers in that run:
# string prefixes, names that contain ``float``, ``float`` itself before
# "(", "." and "#" and at the end of the source, and attribute chains.
FLOAT_CASES = [
    ("x = 1.5", ["1.5"]),
    ("x = .5", [".5"]),
    ("x = 5.", ["5."]),
    ("x = 1e3", ["1e3"]),
    ("x = 1E-3", ["1E-3"]),
    ("x = 1_000.5", ["1_000.5"]),
    ("x = 2j", ["2j"]),
    ("x = 3J", ["3J"]),
    ("y = float(x)", ["float"]),
    ("y = x.float", ["float"]),
    ("s = '1.5'; t = 2.5  # 3.5", ["2.5"]),
    ('s = "#"; t = 3.5', ["3.5"]),
    ("s = '''\n1.5 ''' + \"float\"; f = float", ["float"]),
    ("x = 0xE", []),
    ("x = 0XE1", []),
    ("x = 0b1", []),
    ("x = 0o7", []),
    ("x = 1_000", []),
    ("x1e5 = float_ + floaty", []),
    ("x = 1  # 1.5 float 'quote 2e3", []),
    ("# it's 2.5\nx = 1", []),
    ("x = 'it\\'s 1.5 float'", []),
    ('x = "say \\"2e3\\" float"', []),
    ("x = 'a\\\n1.5 float'", []),
    ('x = """one "two" ""three"" 1.5 \\""" float"""', []),
    ("x = '''\n1.5\nfloat \\''' 2j\n'''", []),
    ('x = f"{x} 1.5 float"', []),
    ("x = rf'{x!r:>10} 2e3'", []),
    ('x = F"""{x}\n1.5"""', []),
] + [
    (f"x = {prefix}{quote}1.5 float 2j .5{quote}", [])
    for prefix in ("", "r", "R", "u", "U", "b", "br", "Rb", "f", "F", "rf", "fR")
    for quote in ("'", '"', "'''", '"""')
] + [
    ('x = f"{1.5}"', ["1.5"]),
    ('x = f"{float(y)}"', ["float"]),
    ('x = f"{x:{2.5}}"', ["2.5"]),
    ('x = f"{a:{b}.{1e3}} {2j}"', ["1e3", "2j"]),
    ('x = f"{x:.2f}"', []),
] + [
    ("x=(-1.5)*-2e3", ["1.5", "2e3"]),
    ("y=a[.5:]", [".5"]),
    ("s=1+'2.5'", []),
    ("z={1:.5,-2:3.}", [".5", "3."]),
    ('t=("1.5")+(2.5j)', ["2.5j"]),
    ("u=x@-.5e-3//+7", [".5e-3"]),
    ("v=(f'{1.5}')!=~1", ["1.5"]),
    ("w=[1,\\\n2.5]#.5", ["2.5"]),
    ("x=a.float(),-.0", ["float", ".0"]),
] + [
    ("x=rb'1.5'", []),
    ('y=Rb"2.5"', []),
    ("u'3.5'", []),
    ('print(f"{1.5}")', ["1.5"]),
    ("floats=1", []),
    ("is_float(2.5)", ["2.5"]),
    ("float2", []),
    ("floatΣ", []),
    ("a=float(1)", ["float"]),
    ("b=float.hex", ["float"]),
    ("c=float#2.5", ["float"]),
    ("d=float", ["float"]),
    ("x.real.imag", []),
    ("a[.5:]", [".5"]),
]

REPO = Path(__file__).resolve().parent.parent
STDLIB_FILES = (
    "test/test_grammar.py",
    "test/test_tokenize.py",
    "test/test_fstring.py",
    "_pydecimal.py",
    "statistics.py",
)


class TestFloatScan:
    """Criterion 9's one regular-expression pass against ``tokenize``'s
    token stream (``oracles.float_literals_by_tokenize``)."""

    @pytest.mark.parametrize("source, flagged", FLOAT_CASES)
    def test_flags_exactly_the_float_tokens(self, source, flagged):
        compile(source, "<case>", "exec")
        assert verify._float_literals(source) == flagged
        assert oracles.float_literals_by_tokenize(source) == flagged

    @pytest.mark.parametrize("source, flagged, parsed", [
        # neither a digit nor ``float``: not parsed, nothing to report
        ('x = f"{x!r:>{w}}"', [], 0),
        ('x = f"{a}{b.c}"', [], 0),
        # ``float`` or a digit somewhere in the literal: parsed
        ('x = f"{floats}"', [], 1),
        ('x = f"{x:{1.5}}"', ["1.5"], 1),
        ('x = f"{x:>10}"', [], 1),
        ('x = f"{float}" f"{y}"', ["float"], 1),
    ])
    def test_parses_only_fstrings_that_can_hold_a_report(
        self, monkeypatch, source, flagged, parsed
    ):
        calls = []
        parse = verify.ast.parse

        def counted(text, *args, **kwargs):
            calls.append(text)
            return parse(text, *args, **kwargs)

        monkeypatch.setattr(verify.ast, "parse", counted)
        assert verify._float_literals(source) == flagged
        monkeypatch.undo()
        assert len(calls) == parsed, calls
        assert oracles.float_literals_by_tokenize(source) == flagged

    def test_agrees_with_tokenize_on_the_repository(self):
        paths = [
            path
            for top in ("src", "tests", "bench", "demos")
            for path in sorted((REPO / top).rglob("*.py"))
        ]
        flagged = 0
        for path in paths:
            source = path.read_text(encoding="utf-8")
            got = verify._float_literals(source)
            assert got == oracles.float_literals_by_tokenize(source), path
            flagged += bool(got)
        # the tests and the bench use floats, so the sweep is not vacuous
        assert len(paths) >= 30 and flagged >= 5

    def test_agrees_with_name_capture_on_the_repository_and_standard_library(self):
        # The scan that eats whole identifiers reads the same f-strings,
        # numbers and names ``float``, in the same order, as the scan that
        # captured every name, and on the repository reports the same
        # tokens.  (From Python 3.12 a standard-library f-string may nest
        # its own quotes, which neither scan parses.)
        stdlib = Path(sysconfig.get_paths()["stdlib"])
        repository = [
            path
            for top in ("src", "tests", "bench", "demos")
            for path in sorted((REPO / top).rglob("*.py"))
        ]
        standard = [stdlib / name for name in STDLIB_FILES if (stdlib / name).is_file()]
        for path in repository + standard:
            source = path.read_text(encoding="utf-8")
            got = [match for match in verify._TOKENS.findall(source) if any(match)]
            assert got == oracles.reported_tokens_by_name_capture(source), path
            if path in repository:
                got = verify._float_literals(source)
                assert got == oracles.float_literals_by_name_capture(source), path
        assert len(repository) >= 30

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="from Python 3.12 the standard library nests same-quote f-strings (PEP 701)",
    )
    def test_agrees_with_tokenize_on_standard_library_files(self):
        stdlib = Path(sysconfig.get_paths()["stdlib"])
        paths = [stdlib / name for name in STDLIB_FILES if (stdlib / name).is_file()]
        if not paths:
            pytest.skip("none of the standard-library files is installed")
        for path in paths:
            source = path.read_text(encoding="utf-8")
            assert verify._float_literals(source) == oracles.float_literals_by_tokenize(source), path

    def test_reads_sources_as_utf8_under_an_ascii_locale(self):
        # quat.py holds a non-ASCII character, and `verify --all` must pass
        # whatever encoding the locale names
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(verify.__file__).parent.parent))
        probe = (
            "import codecs, locale, sys\n"
            "print(codecs.lookup(locale.getpreferredencoding(False)).name)\n"
            "from pa.cli import main\n"
            "sys.exit(main(['verify', '--all']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "ascii"
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert any(line.startswith("PASS  no-floats") for line in lines)
        assert lines[-1] == "12/12 checks passed"
