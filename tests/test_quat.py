"""Exact quaternion-angle arithmetic, Isom+(S^3) model, group machinery."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pa.quat import (
    HALF,
    DS_I,
    DS_J,
    DS_ONE,
    DSElem,
    GroupOverflow,
    ISOM_ID,
    Isom3,
    J,
    J1,
    J2,
    L,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Q_S,
    Q_W,
    QSqrt2,
    binary_octahedral,
    close,
    d2_star,
    dihedral_degree,
    embed_ds,
    format_isom,
    group_to_json,
    is_L,
    isom_order,
    l_angles,
    recognize,
    _q,
)

angles = st.fractions(
    min_value=0, max_value=1, max_denominator=12
).map(lambda f: f % 1)


# D_S elements in the oracles' (t, jflag) form, with denominators 1..48.
ds_pairs = st.tuples(
    st.integers(1, 48), st.integers(0, 47), st.booleans()
).map(lambda x: (Fraction(x[1], x[0]) % 1, x[2]))


def ds(t, j=False):
    return DSElem(Fraction(t), j)


def as_pair(g):
    """An Isom3 in the oracles' form ((t1, j1), (t2, j2))."""
    return ((g.g1.t, g.g1.jflag), (g.g2.t, g.g2.jflag))


def as_qs(q):
    """A QuatExt in the oracles' form: four (a, b) pairs for a + b*sqrt2."""
    return tuple((c.a, c.b) for c in (q.w, q.x, q.y, q.z))


class TestDSElem:
    def test_multiplication_law(self):
        t1, t2 = Fraction(1, 3), Fraction(1, 5)
        assert ds(t1) * ds(t2) == ds(t1 + t2)
        assert ds(t1) * ds(t2, True) == ds(t1 + t2, True)
        assert ds(t1, True) * ds(t2) == ds(t1 - t2, True)
        assert ds(t1, True) * ds(t2, True) == ds(t1 - t2 + Fraction(1, 2))

    def test_j_squares_to_minus_one(self):
        assert DS_J * DS_J == -DS_ONE
        assert DS_I * DS_I == -DS_ONE

    def test_negation_adds_half(self):
        assert -ds(Fraction(1, 8)) == ds(Fraction(5, 8))

    @given(t1=angles, t2=angles, t3=angles, j1=st.booleans(),
           j2=st.booleans(), j3=st.booleans())
    def test_associative(self, t1, t2, t3, j1, j2, j3):
        a, b, c = DSElem(t1, j1), DSElem(t2, j2), DSElem(t3, j3)
        assert (a * b) * c == a * (b * c)

    @given(t=angles, j=st.booleans())
    def test_inverse(self, t, j):
        g = DSElem(t, j)
        assert g * g.inv() == DS_ONE
        assert g.inv() * g == DS_ONE

    @given(u=ds_pairs, v=ds_pairs)
    def test_agrees_with_fraction_rule(self, u, v):
        a, b = DSElem(*u), DSElem(*v)
        assert (a.t, a.jflag) == u
        assert ((a * b).t, (a * b).jflag) == oracles.ds_mul(u, v)
        assert (a.inv().t, a.inv().jflag) == oracles.ds_inv(u)

    def test_embed_ds_is_homomorphism(self):
        # exhaustive over the denominators the QuatExt table covers
        elems = [
            DSElem(Fraction(k, 8), j) for k in range(8) for j in (False, True)
        ]
        for a in elems:
            for b in elems:
                assert embed_ds(a) * embed_ds(b) == embed_ds(a * b)


class TestQuatExt:
    def test_hamilton_table(self):
        assert Q_I * Q_J == Q_K
        assert Q_J * Q_I == -Q_K
        assert Q_I * Q_I == -Q_ONE

    def test_s_and_w(self):
        # s = (1+i)/sqrt2 has order 8; w = (1+i+j+k)/2 has order 6
        G = binary_octahedral()
        assert G.element_order(Q_S) == 8
        assert G.element_order(Q_W) == 6
        for q in (Q_S, Q_W):
            assert q.norm() == QSqrt2(1, 0)

    def test_sqrt2_coordinates(self):
        assert Q_S.w == QSqrt2(0, Fraction(1, 2))
        assert Q_S.x == QSqrt2(0, Fraction(1, 2))

    def test_product_leaving_half_z_sqrt2_raises(self):
        # (1/2)*(1/2) = 1/4 is not in (1/2)Z[sqrt2]: never rounded.
        with pytest.raises(ArithmeticError):
            _q(HALF) * _q(HALF)

    def test_coordinate_outside_half_z_sqrt2_rejected(self):
        with pytest.raises(ValueError):
            _q(QSqrt2(Fraction(1, 3), 0))
        with pytest.raises(ValueError):
            _q(0, QSqrt2(0, Fraction(1, 4)))


class TestIsom3:
    def test_identity(self):
        assert L(0, 0) == ISOM_ID

    def test_involution(self):
        g = L(Fraction(1, 2), 0)
        assert g * g == ISOM_ID

    def test_kernel_canonicalization(self):
        g1, g2 = ds(Fraction(2, 3)), ds(Fraction(1, 5), True)
        assert Isom3(g1, g2) == Isom3(-g1, -g2)

    @given(t1=angles, t2=angles, j1=st.booleans(), j2=st.booleans())
    def test_kernel_random(self, t1, t2, j1, j2):
        g1, g2 = DSElem(t1, j1), DSElem(t2, j2)
        assert Isom3(g1, g2) == Isom3(-g1, -g2)

    @given(x=st.tuples(ds_pairs, ds_pairs), y=st.tuples(ds_pairs, ds_pairs))
    def test_agrees_with_fraction_rule(self, x, y):
        a = Isom3(DSElem(*x[0]), DSElem(*x[1]))
        b = Isom3(DSElem(*y[0]), DSElem(*y[1]))
        ox, oy = oracles.isom_canonical(*x), oracles.isom_canonical(*y)
        assert as_pair(a) == ox and as_pair(b) == oy
        prod = oracles.isom_mul(ox, oy)
        assert as_pair(a * b) == prod
        assert as_pair(a.inv()) == oracles.isom_inv(ox)
        assert (a == b) == (ox == oy)
        # Equal elements reached by different routes hash alike.
        for same in (
            Isom3(-DSElem(*x[0]), -DSElem(*x[1])),
            Isom3(DSElem(*ox[0]), DSElem(*ox[1])),
        ):
            assert same == a and hash(same) == hash(a)
        rebuilt = Isom3(DSElem(*prod[0]), DSElem(*prod[1]))
        assert rebuilt == a * b and hash(rebuilt) == hash(a * b)
        assert format_isom(a) == oracles.isom_format(ox)

    def test_l_homomorphism(self):
        a = L(Fraction(1, 3), Fraction(1, 4))
        b = L(Fraction(1, 5), Fraction(1, 7))
        assert a * b == L(
            Fraction(1, 3) + Fraction(1, 5), Fraction(1, 4) + Fraction(1, 7)
        )

    def test_l_angles_round_trip(self):
        t1, t2 = Fraction(2, 7), Fraction(3, 11)
        g = L(t1, t2)
        assert is_L(g)
        assert l_angles(g) == (t1, t2)

    def test_j_conjugation_negates(self):
        for t1, t2 in [(Fraction(1, 3), Fraction(1, 7)), (Fraction(2, 5), 0)]:
            g = L(t1, t2)
            assert J * g * J.inv() == L(-t1, -t2)

    @given(
        t1=st.fractions(min_value=0, max_value=1, max_denominator=24),
        t2=st.fractions(min_value=0, max_value=1, max_denominator=24),
    )
    def test_j1_conjugation_swaps(self, t1, t2):
        g = L(t1, t2)
        assert J1 * g * J1.inv() == L(t2, t1)

    def test_j_factorization(self):
        assert J1 * J2 == J
        assert J2 * J1 == J

    def test_j_j1_group(self):
        # J1 squares to the antipodal map L(1/2,1/2), which is central;
        # <J, J1> has order 8 and <J, J1>/<L(1/2,1/2)> = (Z2)^2.
        antipodal = L(Fraction(1, 2), Fraction(1, 2))
        assert J1 * J1 == antipodal
        G = close([J, J1], 16)
        assert len(G) == 8
        assert antipodal in G.center()
        quotient = G.quotient(close([antipodal], 4))
        assert len(quotient) == 4
        assert recognize(quotient) == "(Z2)^2"

    def test_orders(self):
        assert isom_order(J) == 2
        assert isom_order(J1) == 4
        assert isom_order(J2) == 4
        assert isom_order(L(Fraction(1, 6), Fraction(1, 2))) == 6

    def test_order_matches_dihedral_n(self):
        # (p,d1,d2,k1,k2) = (3,1,2,1,1): f = L(1/6, 1/3) has order 6 = p*d1*d2
        f = L(Fraction(1, 6), Fraction(1, 3))
        assert isom_order(f) == 6

    def test_format(self):
        assert format_isom(L(Fraction(1, 3), Fraction(1, 4))) == "L(1/3, 1/4)"
        assert format_isom(J) == "L(0, 0)·J"
        assert format_isom(J1).endswith("·J1")


class TestExactBoundary:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: L(0.1, 0),
            lambda: L(0, 0.5),
            lambda: L("1/2", 0),
            lambda: DSElem(0.25),
            lambda: DSElem(0.25, True),
            lambda: QSqrt2(0.5, 0),
            lambda: QSqrt2(0, 0.5),
            lambda: _q(0.5),
        ],
    )
    def test_inexact_values_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "element, attrs",
        [
            (DS_I, ("t", "jflag", "n")),
            (J1, ("g1", "g2", "D")),
            (Q_S, ("w", "x", "y", "z", "A")),
        ],
    )
    def test_elements_are_immutable(self, element, attrs):
        # Cached groups share their elements between callers.
        before = repr(element)
        for attr in attrs:
            with pytest.raises(AttributeError):
                setattr(element, attr, 0)
        assert repr(element) == before


class TestFinGroup:
    def test_close_j(self):
        assert len(close([J])) == 2

    def test_close_order_4(self):
        G = close([L(Fraction(1, 2), Fraction(1, 2)), J])
        assert len(G) == 4
        assert recognize(G) == "(Z2)^2"

    def test_close_d4(self):
        G = close([L(Fraction(1, 4), Fraction(1, 2)), J])
        assert len(G) == 8
        assert recognize(G) == "D4"
        assert dihedral_degree(G) == 4

    def test_order_12_dihedral_reports_product_form(self):
        # D_6 = D_3 x Z_2; the recognizer prefers the product tag.
        G = close([L(Fraction(1, 6), Fraction(1, 2)), J])
        assert len(G) == 12
        assert dihedral_degree(G) == 6
        assert recognize(G) == "D3xZ2"

    def test_closure_count_oracle(self):
        for gens, expected in [
            ([J], 2),
            ([L(Fraction(1, 6), Fraction(1, 2)), J], 12),
            ([L(Fraction(1, 5), 0)], 5),
        ]:
            G = close(gens)
            assert len(G) == expected
            assert (
                oracles.closure_count(gens, lambda a, b: a * b, ISOM_ID)
                == expected
            )

    def test_overflow(self):
        with pytest.raises(GroupOverflow):
            close([Q_S, Q_W], 10, identity=Q_ONE)

    def test_element_order_and_center(self):
        G = close([L(Fraction(1, 4), 0)])
        assert len(G) == 4
        assert G.element_order(L(Fraction(1, 4), 0)) == 4
        assert len(G.center()) == 4  # cyclic, abelian

    def test_quotient(self):
        G = close([L(Fraction(1, 4), 0)])
        S = close([L(Fraction(1, 2), 0)])
        Q = G.quotient(S)
        assert len(Q) == 2
        assert recognize(Q) == "Z2"

    def test_quotient_does_not_keep_its_group_alive(self):
        # A quotient multiplies through its own table over the coset labels.
        G = close([L(Fraction(1, 4), 0), J])
        ref = weakref.ref(G)
        Q = G.quotient(close([L(Fraction(1, 2), 0)]))
        del G
        gc.collect()
        assert ref() is None
        assert len(Q) == 4
        assert recognize(Q) == "(Z2)^2"
        assert all(Q.mul(x, Q.inv(x)) == Q.identity for x in Q)

    def test_quotient_rejects_non_subgroup(self):
        G = close([L(Fraction(1, 4), 0)])
        with pytest.raises(ValueError):
            G.quotient(close([J]))

    def test_quotient_rejects_non_normal_subgroup(self):
        G = close([L(Fraction(1, 4), Fraction(1, 2)), J])
        H = close([J])
        assert len(G) == 8 and all(h in G for h in H)
        with pytest.raises(ValueError, match="not a normal subgroup"):
            G.quotient(H)

    def test_is_normal_agrees_with_all_elements_form(self):
        # The generator test against conjugating all of H by every element,
        # on every cyclic subgroup; D4 and D6 have non-normal ones, the
        # abelian <J, J1> has none.
        seen = set()
        for gens in (
            [L(Fraction(1, 4), Fraction(1, 2)), J],
            [L(Fraction(1, 6), Fraction(1, 2)), J],
            [J, J1],
        ):
            G = close(gens)
            for g in G:
                H = close([g])
                expected = oracles.normal_by_all_elements(
                    G, H, lambda a, b: a * b, lambda a: a.inv()
                )
                assert G.is_normal(H) == expected, (gens, g)
                seen.add(expected)
        assert seen == {True, False}

    def test_recognition_tags(self):
        assert recognize(close([ISOM_ID])) == "Z1"
        assert recognize(close([L(Fraction(1, 5), 0)])) == "Z5"
        assert recognize(close([L(Fraction(1, 2), 0), L(0, Fraction(1, 2))])) == "(Z2)^2"

    def test_group_to_json(self):
        G = close([J])
        out = group_to_json(G)
        assert out == ["L(0, 0)", "L(0, 0)·J"]


class TestBinaryOctahedral:
    def test_order_48(self):
        G = binary_octahedral()
        assert len(G) == 48
        assert (
            oracles.closure_count([Q_S, Q_W], lambda a, b: a * b, Q_ONE) == 48
        )

    def test_contains_d2_star(self):
        G = binary_octahedral()
        D = d2_star()
        assert len(D) == 8
        for g in D:
            assert g in G

    def test_normalizes_d2_star(self):
        G = binary_octahedral()
        dset = set(d2_star())
        for g in G:
            assert {g * x * g.inv() for x in dset} == dset

    def test_products_agree_with_fraction_rule(self):
        elements = list(binary_octahedral())
        for p in elements:
            for q in elements:
                assert as_qs(p * q) == oracles.quat_mul(as_qs(p), as_qs(q))

    def test_unit_norms(self):
        for g in binary_octahedral():
            assert g.norm() == QSqrt2(1, 0)
