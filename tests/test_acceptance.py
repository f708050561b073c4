"""Acceptance suite: nine criteria, exact arithmetic, pinned runtime bounds.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (run pytest with
``-s`` to see them live).  All tolerances are exact — every assertion is an
equality over integers, rationals, or exact field elements; no epsilon
appears anywhere in this file.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from pa import verify
from pa.cosetenum import (
    image_order,
    spherical_triangle_order,
    triangle_table,
    triangle_word_images,
)
from pa.cusplattice import (
    as_lattice_vector,
    brenner_candidates,
    evaluate_word,
    spectrum,
)
from pa.dihedral import exceptional_isom, gamma, orbifold, params_for
from pa.orbigraph import canonical_key, h1_z2, make_dihedral, make_heckoid
from pa.groups import dihedral_degree, recognize
from pa.slopes import slope


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL  ({title})", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {n}: PASS  ({title})")


def run_ok(check_ids, budget=None):
    """Run registry checks; assert all pass, and the wall time if bounded."""
    start = time.perf_counter()
    results = verify.run_checks(check_ids)
    elapsed = time.perf_counter() - start
    for res in results:
        assert res.ok, f"{res.check_id} failed: {res.witness}"
    if budget is not None:
        assert elapsed < budget, f"{check_ids} took {elapsed:.1f}s >= {budget}s"
    return results


def test_criterion_1_dihedral_order_law():
    with criterion(1, "dihedral order law, sweep p<=8, d<=4, < 10 s"):
        run_ok(["dihedral-order"], budget=10.0)
        params = params_for(slope("2/5"), 2, 3)
        group, cert = gamma(params)
        assert len(group) == 2 * 5 * 2 * 3 == 60
        assert cert["order_f"] == 30 and cert["dihedral_relation"] is True
        assert dihedral_degree(group) == 30


def test_criterion_2_isometry_groups():
    with criterion(2, "isometry groups (Z2)^2 / D3xZ2, < 20 s"):
        run_ok(["isometry-groups", "theta-isom"], budget=20.0)
        _, _, tag, quotient = orbifold(slope("2/7"), 1, 3)
        assert tag == "(Z2)^2" and len(quotient) == 4
        assert all(quotient.element_order(g) <= 2 for g in quotient)
        theta_quotient, details = exceptional_isom()
        assert len(theta_quotient) == 12
        assert details["type"] == "D3xZ2"
        assert details["normalizer_isometries"] == 48


def test_criterion_3_normalizer_soundness():
    with criterion(3, "normalizer generators conjugate Gamma to itself"):
        run_ok(["normalizer-soundness"])


def test_criterion_4_cusp_spectra():
    with criterion(4, "rigid cusp spectra (4,8,16) and (12,36,48), < 1 s"):
        run_ok(["cusp-244", "cusp-236"], budget=1.0)
        spec244 = spectrum("T244", 3)
        spec236 = spectrum("T236", 3)
        assert [v for v, _ in spec244] == [4, 8, 16]
        assert [v for v, _ in spec236] == [12, 36, 48]
        for kind, spec, words in (
            ("T244", spec244, ["b2a", "b2ac2a", "b2ab2a"]),
            ("T236", spec236, ["ac3", "ac4ac2", "ac3ac3"]),
        ):
            for (value, orbits), word in zip(spec, words):
                assert len(orbits) == 1
                vec = as_lattice_vector(kind, evaluate_word(kind, word))
                assert vec is not None and vec.coef2 == value
                assert vec in orbits[0].members


def test_criterion_5_brenner_filter():
    with criterion(5, "exactly two parabolic-candidate orbits per rigid type"):
        run_ok(["brenner-filter"])
        assert [o.coef2 for o in brenner_candidates("T244")] == [4, 8]
        assert [o.coef2 for o in brenner_candidates("T236")] == [12, 36]


def test_criterion_6_triangle_orders_and_images():
    with criterion(6, "triangle-group orders and word images, < 5 s"):
        run_ok(["triangle-orders", "triangle-images"], budget=5.0)
        assert triangle_table(2, 3, 3).n_cosets == spherical_triangle_order(
            2, 3, 3
        ) == 12
        # the (2,4,4) cusp words have orders 1, 2 and 2 in the quotients
        assert [
            image_order("b2ac2a", (2, 4, 4), t)
            for t in [(2, 2, 2), (2, 2, 4), (2, 4, 2)]
        ] == [1, 2, 2]
        # the (2,3,6) word ac4ac2 has order 2, conjugate to a
        assert image_order("ac4ac2", (2, 3, 6), (2, 3, 3)) == 2
        G, (g, h) = triangle_word_images((2, 3, 3), ["ac4ac2", "a"])
        assert G.are_conjugate(g, h)


def test_criterion_7_homology_case_table():
    with criterion(7, "Z2-homology case table, sweep p<=12, d<=5"):
        run_ok(["homology-cases"])
        # 2-component link, d+ = 1, d- odd: dim 2 with m(tau-) = 0
        rep = h1_z2(make_dihedral(slope("3/8"), 1, 5).graph)
        assert rep.dimension == 2
        assert rep.meridian_class["tminus"] == (0, 0)
        # knot, d+ = 1, d- odd: dim 1, generated by the identified arcs
        rep = h1_z2(make_dihedral(slope("2/5"), 1, 3).graph)
        assert rep.dimension == 1
        assert rep.meridian_class["K1"] == rep.meridian_class["K2"] == (1,)
        # exactly one tunnel weight even: dim 2
        rep = h1_z2(make_dihedral(slope("2/5"), 2, 3).graph)
        assert rep.dimension == 2


def test_criterion_8_heckoid_classification():
    with criterion(8, "Heckoid families over a 200-point sweep + key moves"):
        results = run_ok(["heckoid-classification"])
        assert results[0].witness["points"] >= 200
        d = make_heckoid(slope("3/5"), Fraction(5, 2))
        assert d.family["tag"] == "M1" and d.family["r"] == "4/5"
        assert canonical_key(make_dihedral(slope("2/7"), 2, 3)) == canonical_key(
            make_dihedral(slope("4/7"), 3, 2)
        )


def test_criterion_9_no_floating_point():
    with criterion(9, "static scan: no float/complex in core modules"):
        results = run_ok(["no-floats"])
        assert len(results[0].witness["scanned"]) == 7
        assert not results[0].witness["offenders"]


def test_verify_all_stays_under_a_minute():
    # stated interface invariant for the `verify --all` command
    start = time.perf_counter()
    results = verify.run_checks(None)
    elapsed = time.perf_counter() - start
    assert len(results) == 12
    assert all(res.ok for res in results), [
        (res.check_id, res.witness) for res in results if not res.ok
    ]
    assert elapsed < 60.0, f"verify --all took {elapsed:.1f}s"
