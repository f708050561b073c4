"""Spherical dihedral orbifold groups, normalizers and isometry groups."""

from fractions import Fraction
from math import gcd

import pytest

import oracles
from pa.dihedral import (
    DihedralParams,
    TAG_D3xZ2,
    TAG_D4,
    TAG_S1_Z2,
    TAG_S1_Z2SQ,
    TAG_TORUS_Z2,
    TAG_TORUS_Z2SQ,
    TAG_Z2CUBE,
    TAG_Z2SQ,
    exceptional_isom,
    gamma,
    is_trivial_theta,
    isom_plus,
    normalizer,
    orbifold,
    params_for,
    same_oriented,
    solve_k,
)
from pa.quat import (
    J,
    L,
    Q_I,
    Q_J,
    Q_ONE,
    Q_S,
    Q_W,
    close,
    dihedral_degree,
    group_to_json,
    isom_order,
    recognize,
)
from pa.slopes import Slope, slope


def _sweep(p_max, d_max, q_range=range):
    for p in range(1, p_max + 1):
        for q in q_range(p):
            if gcd(q, p) != 1 and p > 1:
                continue
            for d1 in range(1, d_max + 1):
                for d2 in range(1, d_max + 1):
                    if gcd(d1, d2) == 1:
                        yield (Slope(q if p > 1 else 0, p), d1, d2)


def _translates(p):
    # q in [-p, 2p): three representatives of each class mod p
    return range(-p, 2 * p)


class TestSolveK:
    def test_frozen_witnesses(self):
        assert solve_k(slope("1/2"), 1, 1) == (1, 1)
        assert solve_k(slope("1/3"), 1, 2) == (1, 1)
        assert solve_k(slope("2/5"), 2, 3) == (1, 7)

    def test_postconditions_sweep(self):
        for r, d1, d2 in _sweep(6, 3):
            k1, k2 = solve_k(r, d1, d2)
            p, q = r.p, r.q
            assert gcd(p * d2, k1) == 1
            assert gcd(p * d1, k2) == 1
            assert (k2 - q * k1) % p == 0
            # lexicographic minimality of k1
            for smaller in range(1, k1):
                assert gcd(p * d2, smaller) != 1

    def test_agrees_with_double_search_sweep(self):
        # The first form: k1 <= p*d2 and k2 <= p*d1*p searched in
        # lexicographic order.
        for r, d1, d2 in _sweep(39, 12, _translates):
            assert solve_k(r, d1, d2) == oracles.solve_k_search(r, d1, d2), (r, d1, d2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_k(slope("inf"), 1, 2)
        with pytest.raises(ValueError):
            solve_k(slope("1/3"), 2, 4)
        for d1 in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                solve_k(slope("2/5"), d1, 1)


class TestParams:
    def test_n(self):
        params = params_for(slope("2/5"), 2, 3)
        assert params.n == 30
        assert (params.k1, params.k2) == (1, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            DihedralParams(slope("inf"), 1, 2, 1, 1)
        with pytest.raises(ValueError):
            DihedralParams(slope("1/3"), 2, 4, 1, 1)  # d's not coprime
        with pytest.raises(ValueError):
            DihedralParams(slope("1/3"), 1, 2, 2, 1)  # gcd(p*d2, k1) = 2
        with pytest.raises(ValueError):
            DihedralParams(slope("1/3"), 1, 2, 1, 2)  # k2 != q*k1 mod p
        with pytest.raises(ValueError):
            DihedralParams(slope("1/3"), 0, 1, 1, 1)

    def test_trivial_theta_predicate(self):
        assert is_trivial_theta(slope("0/1"), 1, 2)
        assert is_trivial_theta(slope("0/1"), 2, 1)
        assert not is_trivial_theta(slope("0/1"), 1, 3)
        assert not is_trivial_theta(slope("1/2"), 1, 2)


class TestGamma:
    def test_frozen_orders(self):
        G, cert = gamma(params_for(slope("1/2"), 1, 1))
        assert len(G) == 4 and cert["order_f"] == 2

        G, cert = gamma(params_for(slope("1/3"), 1, 2))
        assert len(G) == 12
        assert cert == {
            "order": 12,
            "expected_order": 12,
            "order_f": 6,
            "order_J": 2,
            "dihedral_relation": True,
        }

        G, _ = gamma(params_for(slope("0/1"), 1, 2))
        assert len(G) == 4

    def test_dihedral_structure_sweep(self):
        for r, d1, d2 in _sweep(5, 3):
            params = params_for(r, d1, d2)
            G, cert = gamma(params)
            n = params.n
            assert len(G) == 2 * n
            assert cert["order_f"] == n
            assert cert["dihedral_relation"]
            assert dihedral_degree(G) == n

    def test_generator_relation(self):
        params = params_for(slope("2/5"), 2, 3)
        p = params.r.p
        f = L(
            Fraction(params.k1, p * params.d2),
            Fraction(params.k2, p * params.d1),
        )
        assert J * f * J.inv() == f.inv()
        assert isom_order(f) == params.n


class TestNormalizer:
    def test_frozen_orders(self):
        params = params_for(slope("1/3"), 1, 2)
        G, _ = gamma(params)
        N = normalizer(params, G)
        assert len(N) == 48
        Q = N.quotient(G)
        assert len(Q) == 4
        assert recognize(Q) == TAG_Z2SQ

        params = params_for(slope("0/1"), 1, 3)
        G, _ = gamma(params)
        N = normalizer(params, G)
        assert len(N) == 24
        assert len(N.quotient(G)) == 4

    def test_index_is_four_sweep(self):
        for r, d1, d2 in _sweep(4, 3):
            if (d1, d2) == (1, 1) or is_trivial_theta(r, d1, d2):
                continue
            params = params_for(r, d1, d2)
            G, _ = gamma(params)
            N = normalizer(params, G)
            assert len(N) == 8 * params.n
            assert all(g in N for g in G)
            Q = N.quotient(G)
            assert len(Q) == 4
            assert all(Q.element_order(x) <= 2 for x in Q)

    def test_generators_conjugate_all_of_gamma_sweep(self):
        # The form of the normality check before FinGroup.is_normal: each
        # normalizer generator conjugates every element of Gamma into Gamma.
        for r, d1, d2 in _sweep(4, 3):
            if (d1, d2) == (1, 1) or is_trivial_theta(r, d1, d2):
                continue
            params = params_for(r, d1, d2)
            G, _ = gamma(params)
            N = normalizer(params, G)
            assert len(N.gens) == 4
            assert oracles.normal_by_all_elements(
                N.gens, G, lambda a, b: a * b, lambda a: a.inv()
            ), (r, d1, d2)

    @pytest.mark.parametrize("r, d1, d2", [("1/2", 1, 3), ("1/3", 2, 1), ("2/5", 2, 3)])
    def test_orders_agree_with_fraction_rule_closure(self, r, d1, d2):
        # The generators L(k1/pd2, k2/pd1), L(k1/2pd2, k2/2pd1), L(1/2,0),
        # L(0,1/2) and J have different natural denominators, so the
        # closures multiply elements stored over different denominators.
        params = params_for(slope(r), d1, d2)
        p, k1, k2 = params.r.p, params.k1, params.k2
        L_, J_, mul = oracles.isom_l, oracles.ISOM_J, oracles.isom_mul
        identity = L_(0, 0)
        gamma_gens = [L_(Fraction(k1, p * d2), Fraction(k2, p * d1)), J_]
        assert oracles.closure_count(gamma_gens, mul, identity) == len(gamma(params)[0])
        half = Fraction(1, 2)
        n_gens = [
            L_(Fraction(k1, 2 * p * d2), Fraction(k2, 2 * p * d1)),
            L_(half, 0),
            L_(0, half),
            J_,
        ]
        N = normalizer(params, gamma(params)[0])
        assert oracles.closure_count(n_gens, mul, identity) == len(N)

    def test_rejects_a_subgroup_it_does_not_normalize(self):
        # <J> is not normal in N(Gamma): conjugating J by the first
        # generator g gives g^2*J.
        params = params_for(slope("2/5"), 2, 3)
        with pytest.raises(ArithmeticError):
            normalizer(params, close([J]))

    def test_preconditions(self):
        for r, d1, d2 in [("1/3", 1, 1), ("0/1", 1, 2), ("0/1", 2, 1)]:
            params = params_for(slope(r), d1, d2)
            with pytest.raises(ValueError):
                normalizer(params, gamma(params)[0])


class TestExceptional:
    def test_certificate(self):
        quotient, details = exceptional_isom()
        assert details == {
            "gamma_pairs": 8,
            "gamma_isometries": 4,
            "normalizer_pairs": 96,
            "normalizer_isometries": 48,
            "quotient_order": 12,
            "type": TAG_D3xZ2,
        }
        assert len(quotient) == 12
        assert recognize(quotient) == TAG_D3xZ2

    def test_all_96_pairs_normalize_gamma(self):
        # The form of the normality check before FinGroup.is_normal: every
        # one of the 96 raw pairs conjugates all of Gamma~ onto itself.
        mul = lambda a, b: (a[0] * b[0], a[1] * b[1])
        inv = lambda a: (a[0].inv(), a[1].inv())
        one = (Q_ONE, Q_ONE)
        gamma_raw = close([(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=mul, inv=inv)
        n_raw = close(
            [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)], 192, identity=one, mul=mul, inv=inv
        )
        assert (len(gamma_raw), len(n_raw)) == (8, 96)
        assert oracles.normal_by_all_elements(n_raw, gamma_raw, mul, inv)
        assert n_raw.is_normal(gamma_raw)


class TestIsomPlus:
    def test_generic_pair(self):
        tag, Q = isom_plus(slope("2/7"), 1, 3)
        assert tag == TAG_Z2SQ
        assert Q is not None and len(Q) == 4

    def test_trivial_theta(self):
        for d1, d2 in [(1, 2), (2, 1)]:
            tag, Q = isom_plus(slope("0/1"), d1, d2)
            assert tag == TAG_D3xZ2
            assert len(Q) == 12

    def test_formula_only_cases(self):
        cases = [
            ("0/1", TAG_TORUS_Z2),     # p = 1
            ("1/2", TAG_TORUS_Z2SQ),   # p = 2
            ("1/3", TAG_S1_Z2),        # q = 1 mod p, p odd
            ("1/4", TAG_S1_Z2SQ),      # q = 1 mod p, p even
            ("2/7", TAG_Z2SQ),         # p odd, q^2 != 1 mod p
            ("4/15", TAG_D4),          # p odd, q^2 = 1 mod p, q != +-1
            ("3/8", TAG_D4),           # p even, q^2 = p+1 mod 2p
            ("5/12", TAG_Z2CUBE),      # p even, q^2 = 1 mod 2p
            ("3/10", TAG_Z2SQ),        # p even, generic
        ]
        for text, expected in cases:
            tag, Q = isom_plus(slope(text), 1, 1)
            assert tag == expected, text
            assert Q is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            isom_plus(slope("inf"), 1, 2)
        with pytest.raises(ValueError):
            isom_plus(slope("1/3"), 2, 4)


class TestOrbifold:
    def test_record(self):
        r = slope("2/5")
        params = params_for(r, 2, 3)
        G, cert = gamma(params)
        record = orbifold(r, 2, 3)
        assert record.params == params
        assert list(record.gamma) == list(G)
        assert record.cert == cert
        assert (record.isom, record.quotient) == isom_plus(r, 2, 3)
        assert group_to_json(record.quotient) == group_to_json(
            normalizer(params, G).quotient(G)
        )

    def test_formula_only_and_theta(self):
        record = orbifold(slope("3/8"), 1, 1)
        assert (record.isom, record.quotient) == (TAG_D4, None)
        assert len(record.gamma) == 16
        record = orbifold(slope("0/1"), 2, 1)
        assert record.isom == TAG_D3xZ2 and len(record.quotient) == 12
        assert len(record.gamma) == 4


class TestSameOriented:
    def test_frozen_cases(self):
        assert same_oriented((slope("2/7"), 2, 3), (slope("4/7"), 3, 2))
        assert not same_oriented((slope("2/7"), 2, 3), (slope("2/7"), 3, 2))
        assert not same_oriented((slope("2/7"), 2, 3), (slope("2/5"), 2, 3))
        assert same_oriented((slope("2/7"), 2, 3), (slope("2/7"), 2, 3))

    def test_group_order_two_exceptions(self):
        a = (slope("0/1"), 1, 2)
        b = (slope("0/1"), 2, 1)
        c = (slope("1/2"), 1, 1)
        assert same_oriented(a, b)
        assert not same_oriented(a, c)
        assert same_oriented(c, c)

    def test_translate_invariance(self):
        # q and q + p name the same slope class for the oriented orbifold
        assert same_oriented((Slope(9, 7), 2, 3), (slope("2/7"), 2, 3))

    def test_equivalence_relation(self):
        triples = list(_sweep(5, 3))
        for a in triples:
            assert same_oriented(a, a)
        import random

        rng = random.Random(7)
        sample = rng.sample(triples, 25)
        for a in sample:
            for b in sample:
                assert same_oriented(a, b) == same_oriented(b, a)
                if same_oriented(a, b):
                    for c in sample:
                        if same_oriented(b, c):
                            assert same_oriented(a, c)

    def test_same_orbifold_same_isom_tag(self):
        pairs = [
            ((slope("2/5"), 1, 2), (slope("3/5"), 2, 1)),
            ((slope("2/7"), 1, 3), (slope("4/7"), 3, 1)),
        ]
        for a, b in pairs:
            assert same_oriented(a, b)
            assert isom_plus(*a)[0] == isom_plus(*b)[0]

    def test_agrees_with_first_rule_sweep(self):
        # The first form: the congruence rule plus the explicit n = 2
        # identifications, against canonical keys; the left triples take
        # three representatives of each slope class.
        left = list(_sweep(5, 3, _translates))
        right = list(_sweep(5, 3))
        for a in left:
            for b in right:
                assert same_oriented(a, b) == oracles.same_oriented_rule(a, b), (a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            same_oriented((slope("inf"), 1, 2), (slope("1/3"), 1, 2))
        with pytest.raises(ValueError):
            same_oriented((slope("1/3"), 2, 4), (slope("1/3"), 1, 2))
