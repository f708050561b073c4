"""The verification-check registry and runner."""

from pathlib import Path
from types import MappingProxyType

import pytest

from pa import dihedral, verify
from pa.quat import FinGroup


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
    """Checks 1-3 close Gamma and N(Gamma) and hold ``dihedral.orbifold``'s
    lattice answer against the closures at every point."""

    def corrupt(self, monkeypatch, change):
        orbifold = dihedral.orbifold
        monkeypatch.setattr(dihedral, "orbifold", lambda *a: change(orbifold(*a)))

    def failures(self):
        results = verify.run_checks(["dihedral-order", "isometry-groups", "normalizer-soundness"])
        return {r.check_id: r.witness for r in results if not r.ok}

    def test_wrong_order(self, monkeypatch):
        self.corrupt(monkeypatch, lambda rec: rec._replace(
            cert=MappingProxyType({**rec.cert, "order": rec.cert["order"] + 2})
        ))
        failures = self.failures()
        assert set(failures) == {"dihedral-order", "isometry-groups", "normalizer-soundness"}
        assert failures["dihedral-order"] == {"point": "(0/1;1,1)", "lattice": "disagrees"}

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
