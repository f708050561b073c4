"""Exact quaternion-angle arithmetic, Isom+(S^3) model, group machinery."""

import gc
import itertools
import types
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import element_kernel_sweep
import oracles
from pa import cosetenum, dihedral, groups, verify
from pa.groups import (
    FinGroup,
    GroupOverflow,
    close,
    dihedral_degree,
    extend,
    order_from_multiple,
    recognize,
)
from pa.quat import (
    ISOM_ID,
    Isom3,
    J,
    J1,
    J2,
    L,
    Q_I,
    Q_J,
    Q_ONE,
    Q_S,
    Q_W,
    QuatExt,
    format_isom,
    group_to_json,
)

Q_K = QuatExt(0, 0, 0, 2, 0, 0, 0, 0)


def binary_octahedral():
    """The 48-element binary octahedral group O*, generated by
    (1+i)/sqrt(2) and (1+i+j+k)/2."""
    return close([Q_S, Q_W], 96, identity=Q_ONE)


def d2_star():
    """The quaternion group {+-1, +-i, +-j, +-k} inside O*."""
    return close([Q_I, Q_J], 16, identity=Q_ONE)

angles = st.fractions(
    min_value=0, max_value=1, max_denominator=12
).map(lambda f: f % 1)


# D_S elements in the oracles' (t, jflag) form, with denominators 1..48.
ds_pairs = st.tuples(
    st.integers(1, 48), st.integers(0, 47), st.booleans()
).map(lambda x: (Fraction(x[1], x[0]) % 1, x[2]))


def as_pair(key):
    """An Isom3 key in the oracles' form ((t1, j1), (t2, j2))."""
    D, a1, j1, a2, j2 = key
    return ((Fraction(a1, D), j1), (Fraction(a2, D), j2))


def from_pair(pair):
    """The Isom3 of an oracle pair ((t1, j1), (t2, j2)), built over the
    least common denominator of its two angles."""
    (t1, j1), (t2, j2) = pair
    t1, t2 = Fraction(t1), Fraction(t2)
    D = lcm(t1.denominator, t2.denominator)
    return Isom3(D, int(t1 * D), j1, int(t2 * D), j2)


def negated(pair):
    """(-q1, -q2): each angle plus 1/2, in the oracles' form."""
    return tuple(((t + oracles.HALF) % 1, j) for t, j in pair)


def as_qs(q):
    """A QuatExt in the oracles' form: four (a, b) pairs for a + b*sqrt2."""
    return tuple((Fraction(q[i], 2), Fraction(q[i + 4], 2)) for i in range(4))


class TestDSElem:
    """D_S elements in the oracles' (t, jflag) form, embedded in QuatExt."""

    def test_embed_ds_is_homomorphism(self):
        # exhaustive over the denominators the QuatExt table covers
        elems = [(Fraction(k, 8), j) for k in range(8) for j in (False, True)]
        for a in elems:
            for b in elems:
                assert oracles.embed_ds(a) * oracles.embed_ds(b) == oracles.embed_ds(
                    oracles.ds_mul(a, b)
                )


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
            assert q * q.conjugate() == Q_ONE

    def test_sqrt2_coordinates(self):
        # s = (1+i)/sqrt2: w = x = (0 + 1*sqrt2)/2.
        assert as_qs(Q_S)[:2] == ((0, Fraction(1, 2)), (0, Fraction(1, 2)))
        assert repr(Q_S) == "[1/2*sqrt2 1/2*sqrt2i 0j 0k]"
        assert repr(QuatExt(1, -2, 0, 3, 1, 0, -1, 0)) == (
            "[(1/2+1/2*sqrt2) -1i -1/2*sqrt2j 3/2k]"
        )

    def test_product_leaving_half_z_sqrt2_raises(self):
        # (1/2)*(1/2) = 1/4 is not in (1/2)Z[sqrt2]: never rounded.
        half = QuatExt(1, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ArithmeticError):
            half * half

    def test_coordinate_outside_half_z_sqrt2_rejected(self):
        # A quaternion is its eight integers A, B of (A + B*sqrt2)/2, so a
        # coordinate 1/3 or sqrt2/4 would need a non-integer and is refused.
        assert QuatExt(*Q_W) == Q_W
        with pytest.raises(TypeError):
            QuatExt(Fraction(2, 3), 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(TypeError):
            QuatExt(0, 0, 0, 0, 0, Fraction(1, 2), 0, 0)
        with pytest.raises(TypeError):
            QuatExt(1, 1, 1, 1)


class TestIsom3:
    def test_identity(self):
        assert L(0, 0) == ISOM_ID

    def test_involution(self):
        g = L(Fraction(1, 2), 0)
        assert g * g == ISOM_ID

    def test_kernel_canonicalization(self):
        # (q1, q2) and (-q1, -q2) are one isometry.
        x = ((Fraction(2, 3), False), (Fraction(1, 5), True))
        assert from_pair(x) == from_pair(negated(x))
        assert as_pair(from_pair(x)) == oracles.isom_canonical(*x)
        assert as_pair(from_pair(x)) == oracles.isom_canonical(*negated(x))

    @given(t1=angles, t2=angles, j1=st.booleans(), j2=st.booleans())
    def test_kernel_random(self, t1, t2, j1, j2):
        x = ((t1, j1), (t2, j2))
        assert from_pair(x) == from_pair(negated(x))
        assert as_pair(from_pair(x)) == oracles.isom_canonical(*x)
        assert as_pair(from_pair(x)) == oracles.isom_canonical(*negated(x))

    def test_products_over_denominator_pairs(self):
        # Keys over every pair of denominators up to 12, so that one divides
        # the other, either one is odd, or neither divides the other.
        elements = [
            Isom3(d, a, j1, b, j2)
            for d in range(1, 13)
            for a, b in ((1, 0), (d - 1, 1), (d // 2, d - 1))
            for j1, j2 in ((False, False), (True, True), (False, True))
        ]
        assert set(range(1, 13)) <= {g[0] for g in elements}
        for x in elements:
            ox = as_pair(x)
            for y in elements:
                assert as_pair(x * y) == oracles.isom_mul(ox, as_pair(y)), (x, y)

    def test_l_matches_its_ds_pair_form(self):
        # The first form of L, phi(e^{pi*i(t1+t2)}, e^{pi*i(t2-t1)}) by the
        # Fraction rule, against the integer construction.
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                for a in range(-d1, 2 * d1, 2):
                    for b in range(-2, d2 + 1):
                        t1, t2 = Fraction(a, d1), Fraction(b, d2)
                        assert as_pair(L(t1, t2)) == oracles.isom_l(t1, t2), (t1, t2)
                        assert L(t1, t2) == L(t1 + 1, t2 - 2)

    @given(x=st.tuples(ds_pairs, ds_pairs), y=st.tuples(ds_pairs, ds_pairs))
    def test_agrees_with_fraction_rule(self, x, y):
        a, b = from_pair(x), from_pair(y)
        ox, oy = oracles.isom_canonical(*x), oracles.isom_canonical(*y)
        assert as_pair(a) == ox and as_pair(b) == oy
        prod = oracles.isom_mul(ox, oy)
        assert as_pair(a * b) == prod
        assert as_pair(a.inv()) == oracles.isom_inv(ox)
        assert (a == b) == (ox == oy)
        # Equal elements reached by different routes hash alike.
        D, a1, j1, a2, j2 = a
        for same in (
            from_pair(negated(x)),
            from_pair(ox),
            Isom3(6 * D, 6 * a1 - 3 * D, j1, 6 * a2 + 3 * D, j2),
        ):
            assert same == a and hash(same) == hash(a)
        rebuilt = from_pair(prod)
        assert rebuilt == a * b and hash(rebuilt) == hash(a * b)
        assert format_isom(a) == oracles.isom_format(ox)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(
        half=st.integers(1, 40),
        c1=st.integers(-500, 500),
        c2=st.integers(-500, 500),
        j1=st.booleans(),
        j2=st.booleans(),
    )
    def test_constructor_is_canonical(self, parity, half, c1, c2, j1, j2):
        D = 2 * half - parity
        g = Isom3(D, c1, j1, c2, j2)
        assert Isom3(*g) == g and tuple(Isom3(*g)) == tuple(g)
        E, a1, k1, a2, k2 = g
        assert 0 <= 2 * a1 < E and 0 <= a2 < E and gcd(E, a1, a2) == 1
        assert (k1, k2) == (j1, j2) and type(k1) is bool and type(k2) is bool
        assert as_pair(g) == oracles.isom_canonical(
            (Fraction(c1, D) % 1, j1), (Fraction(c2, D) % 1, j2)
        )
        # The kernel: adding 1/2 to both angles names the same isometry.
        if D % 2 == 0:
            assert Isom3(D, c1 + D // 2, j1, c2 + D // 2, j2) == g
        assert Isom3(2 * D, 2 * c1 + D, j1, 2 * c2 - D, j2) == g

    def test_constructor_needs_a_positive_denominator(self):
        for D in (0, -1, -2):
            with pytest.raises(ValueError, match="denominator must be at least 1"):
                Isom3(D, 0, False, 0, False)

    def test_l_homomorphism(self):
        a = L(Fraction(1, 3), Fraction(1, 4))
        b = L(Fraction(1, 5), Fraction(1, 7))
        assert a * b == L(
            Fraction(1, 3) + Fraction(1, 5), Fraction(1, 4) + Fraction(1, 7)
        )

    def test_l_angles_round_trip(self):
        # format_isom reads L's angles back from the key, flags or not.
        for t1, t2 in ((Fraction(2, 7), Fraction(3, 11)), (Fraction(1, 2), 0), (0, Fraction(5, 6))):
            g = L(t1, t2)
            assert not g[2] and not g[4]
            assert format_isom(g) == f"L({t1}, {t2})"
            assert format_isom(g * J) == f"L({t1}, {t2})·J"

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
        assert all(G.mul(antipodal, g) == G.mul(g, antipodal) for g in G)
        A = close([antipodal], 4)
        for quotient in (
            oracles.quotient(G, A),
            oracles.block_quotient(extend(A, [J, J1], 16), A),
            A.quotient([J, J1], 16),
        ):
            assert len(quotient) == 4
            assert recognize(quotient) == "(Z2)^2"

    def test_orders(self):
        # the walk over the powers, and the order read from a multiple
        for g, order in ((J, 2), (J1, 4), (J2, 4), (L(Fraction(1, 6), Fraction(1, 2)), 6)):
            assert oracles.isom_order(g) == order
            assert order_from_multiple(g, 12, (2, 3), ISOM_ID) == order
            assert order_from_multiple(g, order, (2, 3) if order == 6 else (2,), ISOM_ID) == order
        # J1 has order 4, which does not divide 6
        assert order_from_multiple(J1, 6, (2, 3), ISOM_ID) is None
        assert order_from_multiple(ISOM_ID, 1, (), ISOM_ID) == 1

    def test_order_from_multiple_needs_every_prime(self):
        with pytest.raises(ValueError, match="do not factor"):
            order_from_multiple(J1, 12, (2,), ISOM_ID)
        with pytest.raises(ValueError, match="not a prime"):
            order_from_multiple(J1, 12, (1, 2, 3), ISOM_ID)

    def test_order_matches_dihedral_n(self):
        # (p,d1,d2,k1,k2) = (3,1,2,1,1): f = L(1/6, 1/3) has order 6 = p*d1*d2
        f = L(Fraction(1, 6), Fraction(1, 3))
        assert oracles.isom_order(f) == 6
        assert order_from_multiple(f, 6, (2, 3), ISOM_ID) == 6

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
            lambda: Isom3(4.0, 1, False, 0, False),
            lambda: Isom3(4, 1.0, True, 0, False),
            lambda: QuatExt(1.0, 0, 0, 0, 0, 0, 0, 0),
            lambda: QuatExt(0, 0, 0, 0, 0, 0, 0, 0.5),
            lambda: QuatExt(0, 1e0, 0, 0, 0, 0, 0, 0),
            lambda: Isom3(4, 1, False, Fraction(1, 2), False),
        ],
    )
    def test_inexact_values_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "element, attrs",
        [
            (ISOM_ID, ("D", "a1", "j1")),
            (J1, ("j1", "j2", "D")),
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


def _reachable(root):
    """Every object reachable from ``root`` through references, without
    entering modules, classes or a function's globals: what ``root`` keeps
    alive beyond the program's code."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


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

    def test_bound_admits_exactly_the_group_order(self):
        # At exactly |G| the closure passes; one element short, it raises
        # the same GroupOverflow, whatever the group.
        f = dihedral._rotation(dihedral.params_for(Fraction(2, 5), 2, 3))
        for gens, identity in (
            ([Q_S, Q_W], Q_ONE),
            ([Q_S], Q_ONE),
            ([f], ISOM_ID),
            ([f, J], ISOM_ID),
            ([J], ISOM_ID),
        ):
            order = oracles.closure_count(gens, lambda a, b: a * b, identity)
            assert len(close(gens, order, identity=identity)) == order
            with pytest.raises(GroupOverflow, match=f"^closure exceeds bound {order - 1}$"):
                close(gens, order - 1, identity=identity)

    def test_dihedral_degree_agrees_with_the_conjugation_search(self):
        # Every triangle group T(p, q, r) with entries 1..7 and order at
        # most 200, Z1..Z24 as permutations and eight quaternion closures:
        # an x of order n with only involutions outside <x> is found
        # exactly when the search finds an involution s inverting it.
        sweep = [
            cosetenum.triangle_group(*t)
            for t in itertools.product(range(1, 8), repeat=3)
            if (cosetenum.spherical_triangle_order(*t) or 201) <= 200
        ]
        for n in range(1, 25):
            shift = tuple((i + 1) % n for i in range(n))
            sweep.append(close([shift], n, identity=tuple(range(n)),
                               mul=cosetenum._then, inv=cosetenum._inverse_permutation))
        for gens in ([-Q_ONE], [Q_I], [Q_W], [Q_S], [Q_I, Q_J], [Q_S, Q_J],
                     [Q_I, Q_W], [Q_S, Q_W]):
            sweep.append(close(gens, 48, identity=Q_ONE))
        degrees = Counter()
        for G in sweep:
            degree = dihedral_degree(G)
            assert degree == oracles.dihedral_degree_by_conjugation(G), G.gens
            degrees[degree] += 1
        assert len(sweep) == 190 and {len(G) for G in sweep[-8:]} == {2, 4, 6, 8, 16, 24, 48}
        assert set(degrees) == {None, *range(1, 8)}

    def test_recognition_reads_each_order_once(self, monkeypatch):
        # recognize hands the orders it read to the dihedral test: 12
        # element_order calls on the theta-orbifold's order-12 quotient,
        # where it made 24 when dihedral_degree read them all again.
        quotient, _ = dihedral.exceptional_isom()
        calls = Counter()
        element_order = groups.FinGroup.element_order

        def counted(G, g):
            calls["element_order"] += 1
            return element_order(G, g)

        monkeypatch.setattr(groups.FinGroup, "element_order", counted)
        assert recognize(quotient) == "D3xZ2"
        assert calls["element_order"] == len(quotient) == 12
        assert dihedral_degree(quotient) == 6
        assert calls["element_order"] == 24

    def test_element_order_and_center(self):
        G = close([L(Fraction(1, 4), 0)])
        assert len(G) == 4
        assert G.element_order(L(Fraction(1, 4), 0)) == 4
        assert all(G.mul(a, b) == G.mul(b, a) for a in G for b in G)  # cyclic, abelian

    def test_quotient(self):
        S = close([L(Fraction(1, 2), 0)])
        Q = S.quotient([L(Fraction(1, 4), 0)])
        assert len(S) * len(Q) == len(extend(S, [L(Fraction(1, 4), 0)])) == 4
        assert len(Q) == 2
        assert recognize(Q) == "Z2"

    def test_quotient_does_not_keep_its_group_alive(self):
        # A quotient multiplies through its own table over the coset
        # representatives: nothing it holds reaches the subgroup or its
        # element set.
        H = close([L(Fraction(1, 2), 0)])
        subgroup_ref, members = weakref.ref(H), H._index
        Q = H.quotient([L(Fraction(1, 4), 0), J])
        assert all(obj is not members for obj in _reachable(Q))
        del H
        gc.collect()
        assert subgroup_ref() is None
        assert len(Q) == 4
        assert recognize(Q) == "(Z2)^2"
        assert all(Q.mul(x, Q.inv(x)) == Q.identity for x in Q)

    def test_quotient_rejects_non_subgroup(self):
        # The quotient is taken by the group it is called on, so no other
        # subgroup can be passed; the block oracle reads only the group an
        # extension lists first, and the product oracle only a subset.
        S = close([L(Fraction(1, 2), 0)])
        G = extend(S, [L(Fraction(1, 4), 0)])
        assert oracles.block_quotient(G, S).elements == S.quotient(G.gens).elements
        for H in (close([J]), close([L(Fraction(1, 2), 0), J]), close([L(Fraction(1, 4), 0)])):
            with pytest.raises(ValueError, match="not the subgroup this group extends"):
                oracles.block_quotient(G, H)
        with pytest.raises(ValueError, match="not a subset"):
            oracles.quotient(G, close([J]))
        # generators inside the subgroup give the trivial quotient
        assert S.quotient(S.gens).elements == (ISOM_ID,)

    def test_quotient_rejects_non_normal_subgroup(self):
        H = close([J])
        x = L(Fraction(1, 4), Fraction(1, 2))
        G = extend(H, [x])
        assert len(G) == 8
        for quotient in (
            lambda: H.quotient([x]),
            lambda: oracles.quotient(G, H),
            lambda: oracles.block_quotient(G, H),
        ):
            with pytest.raises(ValueError, match="not a normal subgroup"):
                quotient()

    def test_quotient_raises_before_any_search_product(self):
        # L(1/4,0)*J*L(-1/4,0) = L(1/2,0)*J lies outside Gamma: the products
        # formed are the conjugations up to that one, and no product of the
        # coset search.  f and J lie in Gamma and are dropped before the
        # normality test, so only the conjugations by ``quarter`` remain.
        params = dihedral.params_for(Fraction(2, 5), 2, 3)
        f, quarter = dihedral._rotation(params), L(Fraction(1, 4), 0)
        G, _ = dihedral.gamma(params)
        products = []

        def recording(a, b):
            products.append((a, b))
            return a * b

        H = FinGroup(G.elements, ISOM_ID, mul=recording, gens=G.gens)
        with pytest.raises(ValueError, match="not a normal subgroup"):
            H.quotient([f, quarter, J])
        assert products == [
            pair
            for s in (f, J)
            for pair in ((quarter, s), (quarter * s, quarter.inv()))
        ]

    @staticmethod
    def counting_copy(G, calls):
        """G with its products and inverses recorded in ``calls``."""
        def mul(a, b):
            calls.append(("mul", a, b))
            return a * b

        def inv(a):
            calls.append(("inv", a))
            return a.inv()

        return FinGroup(G.elements, G.identity, mul=mul, inv=inv, gens=G.gens)

    def test_quotient_drops_generators_inside_the_subgroup(self):
        # N(Gamma)'s rotations outside Gamma, with f, J, f*J or the half
        # turn L(0, 1/2), which lies in Gamma here, inserted at each place:
        # no extra product, inverse or coset, and the same quotient as
        # without it.
        params = dihedral.params_for(Fraction(2, 5), 2, 3)
        G, _ = dihedral.gamma(params)
        f = dihedral._rotation(params)
        half_turn = L(0, Fraction(1, 2))
        outside = [x for x in dihedral._normalizer_rotations(params) if x not in G]
        assert half_turn not in outside and len(outside) == 2
        calls = []
        H = self.counting_copy(G, calls)
        expected = H.quotient(outside, 16 * params.n)
        expected_calls = list(calls)
        for x in (f, J, f * J, half_turn):
            assert x in G
            for at in range(len(outside) + 1):
                calls.clear()
                Q = H.quotient([*outside[:at], x, *outside[at:]], 16 * params.n)
                assert calls == expected_calls, (x, at)
                assert Q.elements == expected.elements, (x, at)
                assert [[Q.mul(a, b) for b in Q] for a in Q] == [
                    [expected.mul(a, b) for b in expected] for a in expected
                ]
                assert [Q.inv(a) for a in Q] == [expected.inv(a) for a in expected]

    def test_quotient_by_generators_inside_the_subgroup_is_trivial(self):
        # Every declared generator lies in H: no product, no inverse, and
        # the one coset H itself.
        params = dihedral.params_for(Fraction(1, 3), 1, 2)
        G, _ = dihedral.gamma(params)
        f = dihedral._rotation(params)
        calls = []
        H = self.counting_copy(G, calls)
        Q = H.quotient([J, f, f * J, ISOM_ID])
        assert (Q.elements, calls) == ((ISOM_ID,), [])
        assert Q.mul(ISOM_ID, ISOM_ID) == Q.inv(ISOM_ID) == ISOM_ID

    def test_quotient_by_a_non_normal_generator_still_raises_first(self):
        # In O*, <i> is not normalized by w = (1+i+j+k)/2, which sends i to
        # j: i and -1 lie in <i> and are dropped, and the only products are
        # the first conjugation by w, before any product of the search.
        H = close([Q_I], 8, identity=Q_ONE)
        products = []

        def recording(a, b):
            products.append((a, b))
            return a * b

        H = FinGroup(H.elements, Q_ONE, mul=recording, gens=H.gens)
        with pytest.raises(ValueError, match="not a normal subgroup"):
            H.quotient([Q_I, -Q_ONE, Q_W], 96)
        assert products == [(Q_W, Q_I), (Q_W * Q_I, Q_W.inv())]

    def test_quotient_of_trivial_group_is_closure(self):
        # From the trivial group the cosets are single elements: the
        # representatives are close's elements and the table is the product.
        for gens, identity in (
            ([Q_S, Q_W], Q_ONE),
            ([Q_W], Q_ONE),
            ([L(Fraction(1, 4), Fraction(1, 2)), J], ISOM_ID),
            ([L(Fraction(1, 6), Fraction(1, 2)), J, J1], ISOM_ID),
        ):
            trivial = FinGroup([identity], identity, gens=())
            Q = trivial.quotient(gens, 96)
            G = close(gens, 96, identity=identity)
            assert Q.elements == G.elements, gens
            assert all(Q.mul(a, b) == a * b for a in Q for b in Q)
            assert all(Q.inv(a) == a.inv() for a in Q)

    def test_quotient_non_abelian(self):
        # The binary octahedral group modulo <-1> (the octahedral rotation
        # group, order 24) and the trivial theta-orbifold's D3 x Z2, against
        # the product-labelling quotient over the closure.
        minus_one = close([-Q_ONE], 4, identity=Q_ONE)
        octahedral = binary_octahedral()
        Q = minus_one.quotient(octahedral.gens, 48)
        expected = oracles.quotient(octahedral, minus_one)
        one = (Q_ONE, Q_ONE)
        mul, inv = dihedral._pair_mul, dihedral._pair_inv
        gamma_raw = close([(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=mul, inv=inv)
        generators = [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)]
        theta = gamma_raw.quotient(generators, 192)
        theta_expected = oracles.quotient(
            oracles.breadth_first_group(generators, one, mul, inv), gamma_raw
        )
        for got, want, size in ((Q, expected, 24), (theta, theta_expected, 12)):
            assert len(got) == size
            assert got.elements == want.elements
            table = [[got.mul(a, b) for b in got] for a in got]
            assert table == [[want.mul(a, b) for b in want] for a in want]
            assert [got.inv(g) for g in got] == [want.inv(g) for g in want]
            assert any(got.mul(a, b) != got.mul(b, a) for a in got for b in got)
        assert recognize(theta) == "D3xZ2"

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
                assert H.normalized_by(G.gens) == expected, (gens, g)
                seen.add(expected)
        assert seen == {True, False}

    def test_extend_agrees_with_close(self):
        # <H, x> coset by coset against the breadth-first closure, for every
        # cyclic subgroup H of the binary octahedral group, most of them not
        # normal, and x each generator of the group and i, j.
        normal = set()
        for g in binary_octahedral():
            H = oracles.breadth_first_group([g], Q_ONE)
            normal.add(H.normalized_by(binary_octahedral().gens))
            for x in (Q_S, Q_W, Q_I, Q_J):
                G = extend(H, [x], 48)
                expected = oracles.breadth_first_group([g, x], Q_ONE)
                assert len(G) == len(expected) and set(G) == set(expected), (g, x)
                assert G.gens == (g, x)
                assert G.elements[: len(H)] == H.elements
                # each block of |H| elements is a right coset H*y listed from y
                for start in range(0, len(G), len(H)):
                    y = G.elements[start]
                    assert G.elements[start : start + len(H)] == tuple(h * y for h in H)
        assert normal == {True, False}

    def test_extend_hands_over_one_index_of_its_elements(self):
        # ``extend`` lists the elements once, as the keys of the index the
        # group it returns reads membership from: exactly the elements, in
        # listing order.  H's own index is copied, not grown.
        for g in binary_octahedral():
            H = close([g], 48, identity=Q_ONE)
            before = list(H._index)
            for x in (Q_S, Q_W, Q_I):
                G = extend(H, [x], 48)
                assert list(G._index) == list(G.elements), (g, x)
                assert all(y in G for y in G.elements) and len(G._index) == len(G)
                assert list(H._index) == before == list(H.elements)
        # a group built from a list indexes it itself, in the same order
        G = FinGroup([ISOM_ID, J], ISOM_ID)
        assert list(G._index) == [ISOM_ID, J] and J in G

    def test_close_agrees_with_breadth_first(self, monkeypatch):
        # close is extend from the trivial group: the same elements in the
        # same order as the breadth-first oracle, on the binary octahedral
        # group, each of its cyclic subgroups and every group the program
        # closes for checks 1-3 (<f> at each point), the trivial
        # theta-orbifold (both pair groups) and check 6 (the triangle
        # groups as permutations).
        closed = []

        def recording(*args, **kwargs):
            closed.append(groups.close(*args, **kwargs))
            return closed[-1]

        monkeypatch.setattr(dihedral, "close", recording)
        monkeypatch.setattr(cosetenum, "close", recording)
        points = list(oracles._dihedral_points())
        for r, d1, d2 in points:
            dihedral.gamma(dihedral.params_for(r, d1, d2))
        assert [len(G) for G in closed] == [
            dihedral.params_for(*point).n for point in points
        ]
        # the trivial theta-orbifold closes Gamma~ and extends it to N(Gamma~)
        quotient, _ = dihedral.exceptional_isom()
        assert [len(G) for G in closed[len(points):]] == [8]
        # the labels and table of N(Gamma~)'s former closure from the identity
        gamma_raw = closed[-1]
        former = oracles.breadth_first_group(
            [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)],
            gamma_raw.identity, gamma_raw.mul, gamma_raw._inv,
        )
        expected = oracles.quotient(former, gamma_raw)
        assert quotient.elements == expected.elements
        assert [[quotient.mul(a, b) for b in quotient] for a in quotient] == [
            [expected.mul(a, b) for b in expected] for a in expected
        ]
        assert verify.check_triangle_orders()[0] and verify.check_triangle_images()[0]
        assert len(closed) > len(points) + 1
        octahedral = binary_octahedral()
        cyclic = [close([g], 48, identity=Q_ONE) for g in octahedral]
        for G in [octahedral, *cyclic, *closed]:
            assert G.elements == tuple(oracles.breadth_first(G.gens, G.identity, G.mul))

    def test_identity_must_come_first(self):
        assert FinGroup([ISOM_ID, J], ISOM_ID).elements == (ISOM_ID, J)
        for elements in ([J, ISOM_ID], [J], []):
            with pytest.raises(ValueError, match="the identity must be the first element"):
                FinGroup(elements, ISOM_ID)

    def test_repeated_elements_refused(self):
        # A list that repeats an element would count it twice: |G| = 3 and
        # recognize answering other(3) for Z2.
        with pytest.raises(ValueError, match="the elements must be distinct"):
            FinGroup([ISOM_ID, J, J], ISOM_ID)
        with pytest.raises(ValueError, match="the elements must be distinct"):
            FinGroup((g for g in [ISOM_ID, J, ISOM_ID]), ISOM_ID)
        assert recognize(FinGroup([ISOM_ID, J], ISOM_ID)) == "Z2"

    def test_extend_overflow(self):
        H = close([Q_S], 48, identity=Q_ONE)
        assert len(extend(H, [Q_W], 48)) == 48
        with pytest.raises(GroupOverflow):
            extend(H, [Q_W], 47)

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
            assert g * g.conjugate() == Q_ONE


class TestOneStepKernels:
    """The products, inverses and quotient tables of ``pa`` against the
    forms they replaced, by ``tests/element_kernel_sweep.py`` at a small
    bound."""

    def test_isom3_products_agree_with_the_lcm_form(self):
        assert element_kernel_sweep.isom3_products(24) == 131_840

    def test_isom3_inverses_agree_with_the_doubling_form(self):
        assert element_kernel_sweep.isom3_inverses(24) == 8_240

    def test_quatext_products_agree_with_the_hamilton_form(self):
        # O* x O* and 40 seeded quaternions with small coordinates, most of
        # them not units: the same product or the same error text
        assert element_kernel_sweep.quatext_products(extra=40) == 88 * 88

    def test_quotient_tables_agree_with_the_pair_dict_form(self):
        # two tables at each of the dihedral pass's 218 points
        assert element_kernel_sweep.quotient_tables() == 436

    def test_a_wrong_kernel_is_caught(self, monkeypatch):
        monkeypatch.setattr(Isom3, "inv", lambda g: g)
        with pytest.raises(element_kernel_sweep.Mismatch, match="Isom3 inverse"):
            element_kernel_sweep.isom3_inverses(4)
        monkeypatch.setattr(Isom3, "__mul__", lambda a, b: oracles.isom3_mul_by_lcm(b, a))
        with pytest.raises(element_kernel_sweep.Mismatch, match="Isom3 product"):
            element_kernel_sweep.isom3_products(4)
