"""Tests of the benchmark's own parts.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import expect  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import streams  # noqa: E402
from streams import Op  # noqa: E402


def setUpModule():
    run.OUT.mkdir(exist_ok=True)


def pa_payload(argv: list[str]) -> dict:
    import pa.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert pa.cli.main(argv) == 0
    return json.loads(buf.getvalue())


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for make in (streams.paper_replay, streams.dihedral_session):
            self.assertEqual(make(7), make(7))
        self.assertNotEqual(streams.dihedral_session(7), streams.dihedral_session(8))
        with tempfile.TemporaryDirectory(dir=run.OUT) as a, \
                tempfile.TemporaryDirectory(dir=run.OUT) as b:
            first = streams.write_graphs(7, a)
            second = streams.write_graphs(7, b)
            for x, y in zip(first, second):
                self.assertEqual(Path(x).read_text(), Path(y).read_text())
            ops_a = streams.combinatorics_mix(7, first)
            ops_b = streams.combinatorics_mix(7, second)
            strip = lambda ops: [[arg.replace(a, "").replace(b, "") for arg in op.argv]
                                 for op in ops]
            self.assertEqual(strip(ops_a), strip(ops_b))
            self.assertNotEqual(strip(ops_a), strip(streams.combinatorics_mix(8, first)))

    def test_dihedral_make_up(self):
        for seed in range(1, 6):
            ops = streams.dihedral_session(seed)
            kinds = [op.kind.split(".")[1] for op in ops]
            for kind, count in streams.DIHEDRAL_SHARES.items():
                self.assertEqual(kinds.count(kind), count)
            generic, last = [], {}
            for i, op in enumerate(ops):
                info = op.info
                pt = (info["q"], info["p"], info["d1"], info["d2"])
                n = info["p"] * info["d1"] * info["d2"]
                self.assertLessEqual(n, 2 * streams.DIHEDRAL_N_MAX)
                if op.kind in ("dihedral.near", "dihedral.far"):
                    since_all = len({tuple(o.argv) for o in ops[last[pt] + 1:i]})
                    since_generic = len({g for g, j in generic if j > last[pt]})
                    if op.kind == "dihedral.near":
                        self.assertLess(since_all, streams.NEAR_REACH)
                    else:
                        self.assertGreaterEqual(since_generic, streams.FAR_REACH)
                if op.kind in ("dihedral.fresh", "dihedral.partner"):
                    self.assertNotIn(pt, last)
                if op.kind not in ("dihedral.theta", "dihedral.d11"):
                    generic.append((pt, i))
                last[pt] = i

    def test_mix_make_up(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            ops = streams.combinatorics_mix(3, streams.write_graphs(3, work))
        kinds = [op.kind for op in ops]
        for kind, count in streams.MIX_SHARES.items():
            self.assertEqual(kinds.count(kind), count)
        triangles = [op for op in ops if op.kind.startswith("triangle.")]
        distinct = {op.info["target"] for op in triangles}
        self.assertEqual(sum(op.info["reuse"] for op in triangles), len(triangles) - len(distinct))
        large = [op.info["target"][2] for op in triangles
                 if op.info["target"][2] >= streams.LARGE_R[0]]
        self.assertEqual(len(large), 2 * (len(triangles) // 2 // streams.LARGE_SHARE))
        self.assertEqual(large.count(streams.LARGE_R[1]), 2 * streams.LARGE_TOP)


class TailTests(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for size in (11, 12, 50, 160, 999, 1000, 2000):
            samples = [float(i) for i in range(size)]
            value = run.percentile(samples, run.tail_fraction(size))
            self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_median_over_rounds(self):
        rounds = [run.Round(), run.Round(), run.Round()]
        rounds[0].costs = [1.0, 5.0, 3.0]
        rounds[1].costs = [2.0, 4.0, 3.5]
        rounds[2].costs = [9.0, 4.5, 3.2]
        self.assertEqual(run.per_command(rounds, "costs"), [2.0, 4.5, 3.2])
        metrics = run.end_to_end(rounds, 0.5)
        self.assertAlmostEqual(metrics["wall"][0], 0.0097)
        self.assertEqual(metrics["op_p50"], (3.2, "probe"))
        self.assertEqual(metrics["setup_s"], (0.5, "s"))


class SpeedProbeTests(unittest.TestCase):
    def probe(self, durations):
        probe = speed.SpeedProbe()
        probe.starts = [0.0, 1.0, 2.0, 3.0]
        probe.durations = durations
        return probe

    def test_cost_takes_out_probes(self):
        probe = self.probe([0.5] * 4)
        # 2.5 s, of which two probes of 0.5 s, at 0.5 s a probe
        self.assertAlmostEqual(probe.cost(0.2, 2.7, probe.smoothed()), 3.0)

    def test_cost_follows_speed(self):
        probe = self.probe([0.5, 0.5, 1.0, 1.0])
        # 0.8 s and 1 s at 0.5 s a probe, 0.7 s at 1 s a probe, less two probes
        self.assertAlmostEqual(probe.cost(0.2, 2.7, [0.5, 0.5, 1.0, 1.0]), 2.3)
        # a command between two probes is read at the speed of the first
        self.assertAlmostEqual(probe.cost(2.1, 2.6, [0.5, 0.5, 1.0, 1.0]), 0.5)

    def test_smoothing_drops_a_stray_probe(self):
        probe = self.probe([0.5, 0.5, 9.0, 0.5])
        self.assertEqual(probe.smoothed(), [0.5] * 4)

    def test_probe_runs_on_timer(self):
        with speed.SpeedProbe() as probe:
            end = time.perf_counter() + 4 * speed.PERIOD_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.durations), 2)
        self.assertTrue(all(d > 0 for d in probe.durations))

    def test_named_percentiles(self):
        self.assertEqual(run.tail_fraction(160), Fraction(15, 16))  # p93.75
        self.assertEqual(run.tail_fraction(1000), Fraction(99, 100))  # p99
        self.assertEqual(run.percentile([3.0], run.tail_fraction(1)), 3.0)


class ModelTests(unittest.TestCase):
    def test_models_match_coset_enumeration(self):
        from pa.cosetenum import image_order

        words = ["a", "b", "c", "ab", "b2a", "ac3", "abcA", "c^4B", "aBcab2"]
        for ptype in ((2, 2, 7), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 4, 2), (3, 2, 3)):
            for word in words:
                self.assertEqual(expect.word_order(word, ptype), image_order(word, ptype))

    def test_betti_matches_pa(self):
        from pa.orbigraph import graph_from_json, h1_z2
        import random

        rng = random.Random(5)
        for size in (2, 4, 10, 30):
            graph = streams.cubic_graph(rng, size, "t")
            self.assertEqual(expect.betti_even(graph), h1_z2(graph_from_json(graph)).dimension)


class CheckTests(unittest.TestCase):
    """Each check passes pa's own payload and rejects it with one number
    changed."""

    def assert_catches(self, op, payload, mutate, state=None):
        self.assertEqual(expect.check(op, payload, {} if state is None else state), [])
        broken = copy.deepcopy(payload)
        mutate(broken)
        self.assertNotEqual(expect.check(op, broken, {}), [], "wrong payload accepted")

    def dihedral_op(self, q, p, d1, d2, role="fresh"):
        argv = ["dihedral", f"{q}/{p}", str(d1), str(d2), "--json"]
        return Op(f"dihedral.{role}", argv, {"q": q, "p": p, "d1": d1, "d2": d2})

    def test_dihedral(self):
        op = self.dihedral_op(2, 5, 2, 3)
        payload = pa_payload(op.argv)

        def order_2n_plus_2(x):
            x["order"] = 2 * 30 + 2

        self.assert_catches(op, payload, order_2n_plus_2)
        self.assert_catches(op, payload, lambda x: x.update(k2=x["k2"] + 1))
        self.assert_catches(op, payload, lambda x: x.update(normalizer_order=8 * 30 + 8))
        self.assert_catches(op, payload, lambda x: x["quotient_elements"].pop())

    def test_dihedral_d11_and_theta(self):
        for q, p in ((3, 7), (3, 8), (5, 12), (1, 9), (0, 1), (1, 2)):
            op = self.dihedral_op(q, p, 1, 1, "d11")
            self.assert_catches(op, pa_payload(op.argv), lambda x: x.update(order=x["order"] + 2))
            self.assertEqual(pa_payload(op.argv)["isom"], expect.d11_tag(q, p))
        op = self.dihedral_op(0, 1, 2, 1, "theta")
        self.assert_catches(op, pa_payload(op.argv), lambda x: x.update(quotient_order=13))

    def test_dihedral_partner_and_repeat(self):
        first = self.dihedral_op(3, 7, 2, 3)
        mate = self.dihedral_op(5, 7, 3, 2, "partner")  # 3 * 5 = 1 mod 7
        mate.info["partner_of"] = (3, 7, 2, 3)
        state: dict = {}
        self.assertEqual(expect.check(first, pa_payload(first.argv), state), [])
        good = pa_payload(mate.argv)
        self.assertEqual(expect.check(mate, good, {"dihedral": dict(state["dihedral"])}), [])
        bad = dict(good, key="O[1/7;2,3]")
        self.assertNotEqual(expect.check(mate, bad, {"dihedral": dict(state["dihedral"])}), [])
        again = pa_payload(first.argv)
        self.assertEqual(expect.check(first, again, state), [])
        again["certificate"]["order_f"] = 0
        self.assertNotEqual(expect.check(first, again, state), [])

    def test_cusp(self):
        for label, count in (("244", 5), ("T236", 7)):
            op = Op("cusp.spectrum", ["cusp", label, "--count", str(count), "--json"],
                    {"kind": "T" + label.lstrip("T"), "count": count})
            payload = pa_payload(op.argv)
            self.assert_catches(op, payload, lambda x: x["spectrum"][-1]["orbits"].pop())
            self.assert_catches(op, payload,
                                lambda x: x["spectrum"][0]["orbits"][0].update(size=5))
            self.assert_catches(op, payload, lambda x: x["spectrum"][1].update(coef2=1))
        op = Op("cusp.brenner", ["cusp", "236", "--brenner", "--json"], {"kind": "T236"})
        self.assert_catches(op, pa_payload(op.argv), lambda x: x["orbits"].pop())

    def test_triangle(self):
        for argv, target, word in (
            (["triangle", "order", "2 2 300", "c7a", "--json"], (2, 2, 300), "c7a"),
            (["triangle", "order", "2,3,5", "ab^2C", "--json"], (2, 3, 5), "ab^2C"),
            (["triangle", "image", "4,6,8 -> 2,3,4", "bC2", "--json"], (2, 3, 4), "bC2"),
        ):
            op = Op("triangle." + argv[1], argv, {"target": target, "word": word})
            self.assert_catches(op, pa_payload(argv), lambda x: x.update(order=x["order"] + 1))

    def test_homology(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            path = streams.write_graphs(2, work)[5]
            op = Op("homology", ["homology", path, "--json"], {"path": path})
            payload = pa_payload(op.argv)
            self.assert_catches(op, payload,
                                lambda x: x.update(dimension=x["dimension"] + 1))

    def test_links_and_heckoid(self):
        cases = [
            ("link.classify", ["link", "classify", "3/8", "--json"], {"q": 3, "p": 8},
             lambda x: x.update(components=1)),
            ("link.cf", ["link", "cf", "7/19", "--json"], {"q": 7, "p": 19},
             lambda x: x["terms"].__setitem__(0, x["terms"][0] + 1)),
            ("link.hat", ["link", "hat", "3/7", "--json"], {"q": 3, "p": 7},
             lambda x: x.update(hat="6/7")),
            ("link.equiv", ["link", "equiv", "2/7", "4/7", "--json"],
             {"q": 2, "p": 7, "q2": 4, "p2": 7}, lambda x: x.update(bridge_swap=False)),
            ("link.equiv", ["link", "equiv", "3/10", "13/10", "--json"],
             {"q": 3, "p": 10, "q2": 13, "p2": 10},
             lambda x: x.update(involution_class="vertical-preserved")),
            ("heckoid", ["heckoid", "3/5", "5/2", "--json"], {"q": 3, "p": 5, "twice": 5},
             lambda x: x["family_params"].update(m=4)),
            ("heckoid", ["heckoid", "3/8", "7/2", "--json"], {"q": 3, "p": 8, "twice": 7},
             lambda x: x["graph"]["edges"][0].update(weight="3")),
            ("heckoid", ["heckoid", "5/9", "3", "--json"], {"q": 5, "p": 9, "twice": 6},
             lambda x: x.update(slope="5/8")),
        ]
        for kind, argv, info, mutate in cases:
            self.assert_catches(Op(kind, argv, info), pa_payload(argv), mutate)

    def test_replay(self):
        expected = expect.replay_expected()
        checks = []
        for cid, witness in expected.items():
            if cid == "brenner-filter":
                witness = {k: {"coef2": v} for k, v in witness.items()}
            checks.append({"id": cid, "status": "pass", "witness": copy.deepcopy(witness)})
        payload = {"schema": "pa/1", "checks": checks, "passed": 12, "failed": 0}
        op = Op("verify.all", ["verify", "--all", "--json"], {}, attempted=12)
        self.assertEqual(expected["isometry-groups"], {"points": 218})
        self.assertEqual(expected["dihedral-order"], {"points": 242})

        def drop_point(x):
            check = next(c for c in x["checks"] if c["id"] == "isometry-groups")
            check["witness"]["points"] -= 1

        self.assert_catches(op, payload, drop_point)
        self.assertEqual(expect.replay_failed(payload), 0)
        payload["checks"][0]["status"] = "fail"
        self.assertEqual(expect.replay_failed(payload), 1)


class TracerTests(unittest.TestCase):
    def test_spans_and_counts(self):
        import pa.cli
        import pa.dihedral

        original = pa.dihedral.gamma
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                pa.cli.main(["dihedral", "2/5", "2", "3", "--json"])
                pa.cli.main(["triangle", "order", "2 3 4", "ab", "--json"])
                pa.cli.main(["verify", "cusp-244", "--json"])
        finally:
            tracer.uninstall()
        self.assertIs(pa.dihedral.gamma, original)
        metrics = tracer.metrics()
        names = [name for name, _ in spans.metric_names()]
        self.assertEqual(set(metrics) | {"trace.overhead"}, set(names))
        self.assertGreaterEqual(metrics["cli.calls"], 3)
        self.assertGreater(metrics["quat.mul.Isom3"], 0)
        self.assertEqual(metrics["cosetenum.cosets"], 24)
        self.assertGreater(metrics["verify.check.cusp-244.s"], 0)
        self.assertGreater(metrics["cusplattice.vectors"], 0)
        roots = sum(end - start for _, parent, start, end, _ in tracer.spans if parent < 0)
        self_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(self_total, roots, delta=1e-6)


if __name__ == "__main__":
    unittest.main()
