"""Spherical dihedral orbifold groups, normalizers and isometry groups."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import oracles
from pa import cli, dihedral, verify
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
    TorusLattice,
    _normalizer_rotations,
    _prime_factors,
    _rotation,
    exceptional_isom,
    gamma,
    is_trivial_theta,
    normalizer,
    orbifold,
    params_for,
    solve_k,
    torus_quotient,
    torus_vector,
)
from pa.groups import (
    FinGroup,
    GroupOverflow,
    close,
    dihedral_degree,
    extend,
    order_from_multiple,
    recognize,
)
from pa.orbigraph import canonical_key, make_dihedral
from pa.quat import (
    ISOM_ID,
    Isom3,
    J,
    J1,
    L,
    Q_I,
    Q_J,
    Q_ONE,
    Q_S,
    Q_W,
    group_to_json,
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


class TestIntegerRotations:
    def test_agree_with_fraction_form_sweep(self):
        # The keys built from integers against quat.L of Fraction angles,
        # over p <= 30, d <= 6, which holds the sweep of checks 1-3.
        points = list(_sweep(30, 6))
        checks = {(r, d1, d2) for r in verify._sweep_slopes(8) for d1, d2 in verify._coprime_pairs(4)}
        assert checks <= set(points) and len(checks) == 242
        for r, d1, d2 in points:
            params = params_for(r, d1, d2)
            assert _rotation(params) == oracles.rotation_by_fractions(params), (r, d1, d2)
            assert _normalizer_rotations(params) == oracles.normalizer_rotations_by_fractions(
                params
            ), (r, d1, d2)


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
        assert oracles.isom_order(f) == params.n


class TestNormalizer:
    def test_frozen_orders(self):
        # normalizer returns N(Gamma)/Gamma; |N(Gamma)| = |Gamma| * |Q|,
        # against the closure listed element by element
        params = params_for(slope("1/3"), 1, 2)
        G, _ = gamma(params)
        Q = normalizer(params, G)
        assert len(G) * len(Q) == len(oracles.closure_normalizer(params, G)) == 48
        assert len(Q) == 4
        assert recognize(Q) == TAG_Z2SQ

        params = params_for(slope("0/1"), 1, 3)
        G, _ = gamma(params)
        Q = normalizer(params, G)
        assert len(G) * len(Q) == len(oracles.closure_normalizer(params, G)) == 24
        assert len(Q) == 4

    def test_index_is_four_sweep(self):
        for r, d1, d2 in _sweep(4, 3):
            if (d1, d2) == (1, 1) or is_trivial_theta(r, d1, d2):
                continue
            params = params_for(r, d1, d2)
            G, _ = gamma(params)
            Q = normalizer(params, G)
            N = oracles.closure_normalizer(params, G)
            assert len(G) * len(Q) == len(N) == 8 * params.n
            assert all(g in N for g in G)
            assert len(Q) == 4
            assert all(Q.element_order(x) <= 2 for x in Q)

    def test_generators_conjugate_all_of_gamma_sweep(self):
        # The form of the normality check before FinGroup.normalized_by:
        # each normalizer generator conjugates every element of Gamma into
        # Gamma; normalizer accepts the same generators.
        for r, d1, d2 in _sweep(4, 3):
            if (d1, d2) == (1, 1) or is_trivial_theta(r, d1, d2):
                continue
            params = params_for(r, d1, d2)
            G, _ = gamma(params)
            assert len(normalizer(params, G)) == 4
            N = oracles.closure_normalizer(params, G)
            assert N.gens == (*_normalizer_rotations(params), J)
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
        G = gamma(params)[0]
        assert oracles.closure_count(n_gens, mul, identity) == len(G) * len(normalizer(params, G))

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
        # The form of the normality check before FinGroup.normalized_by:
        # every one of the 96 raw pairs conjugates all of Gamma~ onto itself.
        mul = lambda a, b: (a[0] * b[0], a[1] * b[1])
        inv = lambda a: (a[0].inv(), a[1].inv())
        one = (Q_ONE, Q_ONE)
        gamma_raw = close([(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=mul, inv=inv)
        n_raw = close(
            [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)], 192, identity=one, mul=mul, inv=inv
        )
        assert (len(gamma_raw), len(n_raw)) == (8, 96)
        assert oracles.normal_by_all_elements(n_raw, gamma_raw, mul, inv)
        assert gamma_raw.normalized_by(n_raw.gens)

    def test_counts_agree_with_the_listing(self):
        # The counts before they were derived: N(Gamma~) listed by
        # groups.extend, 96 pairs in 48 classes under g ~ -g.
        _, details = exceptional_isom()
        assert oracles.exceptional_normalizer_counts() == (96, 48)
        assert (details["normalizer_pairs"], details["normalizer_isometries"]) == (96, 48)
        # (-1,-1) = (i,i)^2 lies in Gamma~, so the pairs fall two by two.
        assert (Q_I * Q_I, Q_I * Q_I) == (-Q_ONE, -Q_ONE)


class TestIsomPlus:
    def test_generic_pair(self):
        _, _, tag, Q = orbifold(slope("2/7"), 1, 3)
        assert tag == TAG_Z2SQ
        assert Q is not None and len(Q) == 4

    def test_trivial_theta(self):
        for d1, d2 in [(1, 2), (2, 1)]:
            _, _, tag, Q = orbifold(slope("0/1"), d1, d2)
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
            _, _, tag, Q = orbifold(slope(text), 1, 1)
            assert tag == expected, text
            assert Q is None

    def test_d1_table_against_palindromes(self):
        # Isom+ O(q/p;1,1) for every coprime q < p <= 60, against a table
        # derived here: away from p <= 2 and the torus links q = +-1 mod p,
        # the group has eight elements exactly when the odd-length
        # all-positive expansion of p/q reads the same reversed (q^2 = 1
        # mod p); for p even, q^2 mod 2p tells (Z2)^3 from D4.
        def odd_length_expansion(p, q):
            terms = []
            while q:
                terms.append(p // q)
                p, q = q, p % q
            if len(terms) % 2 == 0:
                terms[-1:] = [terms[-1] - 1, 1]
            return terms

        def expected(p, q):
            if p == 1:
                return TAG_TORUS_Z2
            if p == 2:
                return TAG_TORUS_Z2SQ
            if q in (1, p - 1):
                return TAG_S1_Z2 if p % 2 else TAG_S1_Z2SQ
            terms = odd_length_expansion(p, q)
            if terms != terms[::-1]:
                return TAG_Z2SQ
            if p % 2:
                return TAG_D4
            return TAG_Z2CUBE if q * q % (2 * p) == 1 else TAG_D4

        tags = Counter()
        for p in range(1, 61):
            for q in range(p):
                if gcd(q, p) == 1:
                    tag = dihedral._isom_tag_d1(Slope(q, p))
                    assert tag == expected(p, q), (q, p)
                    tags[tag] += 1
        assert sum(tags.values()) == 1102
        assert set(tags) == {
            TAG_TORUS_Z2, TAG_TORUS_Z2SQ, TAG_S1_Z2, TAG_S1_Z2SQ, TAG_Z2SQ, TAG_D4, TAG_Z2CUBE
        }

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            orbifold(slope("inf"), 1, 2)
        with pytest.raises(ValueError):
            orbifold(slope("1/3"), 2, 4)

    def test_refuses_whatever_make_dihedral_refuses(self):
        # ``pa dihedral`` asks orbifold and reads the key from (r, d1, d2)
        # without a graph, so orbifold alone must refuse every input the
        # graph refused: an infinite slope, a weight d <= 0, or d1, d2 with
        # a common factor.
        refused = 0
        for r in (slope("inf"), slope("0/1"), slope("1/2"), slope("2/5"), slope("-3/8")):
            for d1 in range(-2, 7):
                for d2 in range(-2, 7):
                    try:
                        make_dihedral(r, d1, d2)
                    except ValueError:
                        refused += 1
                        with pytest.raises(ValueError):
                            orbifold(r, d1, d2)
        assert refused == 5 * 81 - 4 * 23  # accepted: 4 finite slopes x 23 coprime pairs


class TestOrbifold:
    def test_record(self):
        r = slope("2/5")
        params = params_for(r, 2, 3)
        G, cert = gamma(params)
        record = orbifold(r, 2, 3)
        assert record.params == params
        assert record.cert == cert
        assert group_to_json(record.quotient) == group_to_json(normalizer(params, G))
        # the same elements; the breadth-first closure lists them otherwise
        _, group, _, _, _ = oracles.closure_orbifold(r, 2, 3)
        assert len(group) == len(G) and set(group) == set(G)

    def test_formula_only_and_theta(self):
        record = orbifold(slope("3/8"), 1, 1)
        assert (record.isom, record.quotient) == (TAG_D4, None)
        assert record.cert["order"] == 16
        assert len(oracles.closure_orbifold(slope("3/8"), 1, 1)[1]) == 16
        record = orbifold(slope("0/1"), 2, 1)
        assert record.isom == TAG_D3xZ2 and len(record.quotient) == 12
        assert record.cert["order"] == 4
        assert len(oracles.closure_orbifold(slope("0/1"), 2, 1)[1]) == 4

    def test_largest_primes_below_the_factoring_bound(self):
        # n = p*d1*d2 past 2**63, where len() of a lattice cannot report |A|.
        next_big, big, p = 999999999961, 999999999989, 100000000003
        primes = [m for m in range(next_big, dihedral.FACTOR_BOUND) if _prime_factors(m) == [m]]
        assert primes == [next_big, big]
        assert _prime_factors(p) == [p]
        for d1, d2 in ((big, 1), (big, next_big), (1, big)):
            n = p * d1 * d2
            assert n >= 2**63
            # |Gamma| = 2|A_Gamma| and |A_N| = 4n are read from the lattices.
            record = orbifold(Slope(3, p), d1, d2)
            assert (record.cert["order"], record.cert["order_f"]) == (2 * n, n)
            assert record.isom == TAG_Z2SQ and len(record.quotient) == 4


def _table(quotient):
    return [[quotient.mul(a, b) for b in quotient] for a in quotient]


class TestCosetByCoset:
    """``gamma`` closes coset by coset (``groups.extend``), ``normalizer``
    finds N(Gamma)/Gamma from Gamma's cosets, and the certificate reads
    order(f) from its multiple n; the breadth-first closures and the walk
    over the powers are the reference at every point of the sweep of checks
    1-3."""

    def test_agrees_with_breadth_first_sweep(self):
        quotients = 0
        for r, d1, d2 in oracles._dihedral_points():
            params = params_for(r, d1, d2)
            G, cert = gamma(params)
            reference, reference_cert = oracles.closure_gamma(params)
            assert len(G) == len(reference) and set(G) == set(reference), (r, d1, d2)
            assert cert == reference_cert, (r, d1, d2)
            f = _rotation(params)
            primes = sorted({ell for m in (r.p, d1, d2) for ell in _prime_factors(m)})
            assert order_from_multiple(f, params.n, primes, ISOM_ID) == oracles.isom_order(f)
            if (d1, d2) == (1, 1) or is_trivial_theta(r, d1, d2):
                continue
            declared = (*_normalizer_rotations(params), J)
            Q = normalizer(params, G)
            N = extend(G, declared, 16 * params.n)
            reference_n = oracles.closure_normalizer(params, reference)
            assert len(G) * len(Q) == len(N) == len(reference_n), (r, d1, d2)
            assert set(N) == set(reference_n), (r, d1, d2)
            assert N.gens == (*G.gens, *reference_n.gens)
            # the same coset labels, in the same order, and the same table
            reference_q = oracles.quotient(reference_n, reference)
            assert Q.elements == reference_q.elements, (r, d1, d2)
            assert _table(Q) == _table(reference_q), (r, d1, d2)
            quotients += 1
        assert quotients == 218

    @pytest.mark.parametrize("order", ["2n", "n/2"])
    def test_wrong_rotation_fails_the_certificate(self, monkeypatch, capsys, order):
        # A wrong f of order 2n (not dividing n) or n/2: the certificate
        # records order_f None or n/2, the query raises ArithmeticError and
        # the command exits 1.
        def wrong(params):
            denominator = 2 * params.n if order == "2n" else params.n // 2
            return L(Fraction(1, denominator), 0)

        monkeypatch.setattr(dihedral, "_rotation", wrong)
        recorded = "None" if order == "2n" else "15"
        with pytest.raises(ArithmeticError, match=f"'order_f': {recorded}"):
            orbifold(slope("2/5"), 2, 3)
        assert cli.main(["dihedral", "2/5", "2", "3"]) == 1
        assert f"'order_f': {recorded}" in capsys.readouterr().err

    def test_prime_factors(self):
        for m in range(1, 2000):
            expected = [d for d in range(2, m + 1) if m % d == 0 and all(d % e for e in range(2, d))]
            assert _prime_factors(m) == expected, m
        assert _prime_factors(999999999989) == [999999999989]
        assert _prime_factors(10**12) == [2, 5]
        assert _prime_factors(2 * 999983**2) == [2, 999983]


class TestQuotientFromCosets:
    """``normalizer`` finds N(Gamma)/Gamma from Gamma's cosets
    (``FinGroup.quotient``) without listing N(Gamma), and
    ``dihedral_degree`` walks each cycle once; the product-labelling
    quotient over the breadth-first closure, the quotient read from the
    blocks ``groups.extend`` listed and the two-walk recognition of
    ``oracles`` are the reference."""

    @staticmethod
    def assert_same_quotient(Q, expected, where):
        assert Q.elements == expected.elements, where
        assert _table(Q) == _table(expected), where
        assert [Q.inv(g) for g in Q] == [expected.inv(g) for g in expected], where

    def test_agrees_with_product_labels_sweep(self):
        # every N(Gamma)/Gamma of checks 1-3, and theta's N(Gamma~)/Gamma~;
        # and the quotient that drops the declared generators inside Gamma
        # (J at every point, a half turn at some) against the search over
        # all four
        quotients = dropped_half_turns = 0
        for r, d1, d2 in oracles._criterion2_points():
            params = params_for(r, d1, d2)
            G, _ = gamma(params)
            Q = normalizer(params, G)
            declared = (*_normalizer_rotations(params), J)
            closure = oracles.closure_normalizer(params, G)
            listed = extend(G, declared, 16 * params.n)
            every = oracles.quotient_over_every_generator(G, declared, 16 * params.n)
            assert len(G) * len(Q) == len(closure) == len(listed), (r, d1, d2)
            self.assert_same_quotient(Q, oracles.quotient(closure, G), (r, d1, d2))
            self.assert_same_quotient(Q, oracles.block_quotient(listed, G), (r, d1, d2))
            self.assert_same_quotient(Q, every, (r, d1, d2))
            assert group_to_json(Q) == group_to_json(every), (r, d1, d2)
            dropped_half_turns += any(x in G for x in declared[1:3])
            quotients += 1
        assert quotients == 218 and 0 < dropped_half_turns < 218
        gamma_raw = close(
            [(Q_I, Q_I), (Q_J, Q_J)], 16, identity=(Q_ONE, Q_ONE),
            mul=dihedral._pair_mul, inv=dihedral._pair_inv,
        )
        generators = [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)]
        theta = gamma_raw.quotient(generators, 192)
        closure = oracles.breadth_first_group(
            generators, gamma_raw.identity, gamma_raw.mul, gamma_raw._inv
        )
        listed = extend(gamma_raw, generators, 192)
        assert len(gamma_raw) * len(theta) == len(closure) == len(listed) == 96
        self.assert_same_quotient(theta, oracles.quotient(closure, gamma_raw), "theta")
        self.assert_same_quotient(theta, oracles.block_quotient(listed, gamma_raw), "theta")
        self.assert_same_quotient(exceptional_isom()[0], theta, "theta")

    def test_quotient_forms_no_product_per_element(self, monkeypatch):
        # ``FinGroup.quotient`` drops the declared generators that lie in
        # Gamma, so the counts depend on how many of them lie outside it:
        # J always lies in Gamma, and at n = 4 the half turn L(1/2, 0) = f^2
        # does too, so k = 2 generators are left at n = 4 and k = 3 at
        # n = 195.  The normality test conjugates Gamma's 2 generators by
        # the k left (4k products, one inverse each), the search multiplies
        # each of the 4 representatives by each of them (4k products) and
        # tests the products outside Gamma against the representatives
        # after the identity (9 products z*r^-1 at n = 4, 15 at n = 195,
        # with one inverse for each of the 3 new representatives), and the
        # table forms none.  Before the drop: 53 products and 7 inverses at
        # both points.
        calls = []
        mul, inv = Isom3.__mul__, Isom3.inv

        def counted(kind, fn):
            return lambda *a: calls.append(kind) or fn(*a)

        counts = {}
        for point in ((slope("0/1"), 1, 4), (slope("1/13"), 3, 5)):
            params = params_for(*point)
            G, _ = gamma(params)
            left = [x for x in (*_normalizer_rotations(params), J) if x not in G]
            monkeypatch.setattr(Isom3, "__mul__", counted("mul", mul))
            monkeypatch.setattr(Isom3, "inv", counted("inv", inv))
            Q = normalizer(params, G)
            monkeypatch.undo()
            counts[params.n] = (len(left), calls.count("mul"), calls.count("inv"))
            calls.clear()
            assert len(Q) == 4 and len(G) == 2 * params.n
        assert counts == {
            4: (2, 4 * 2 + 4 * 2 + 9, 2 + 3),
            195: (3, 4 * 3 + 4 * 3 + 15, 3 + 3),
        }

    def test_bound_admits_exactly_the_normalizer_order(self):
        # |Gamma| * |Q| = 8n must fit the bound: at 8n the quotient passes,
        # at 8n - 1 the fourth coset raises GroupOverflow.
        for point in ((slope("2/5"), 2, 3), (slope("0/1"), 1, 4), (slope("3/8"), 3, 1)):
            params = params_for(*point)
            G, _ = gamma(params)
            declared = (*_normalizer_rotations(params), J)
            order = 8 * params.n
            assert len(G.quotient(declared, order)) == 4
            with pytest.raises(GroupOverflow, match=f"^closure exceeds bound {order - 1}$"):
                G.quotient(declared, order - 1)

    def test_dihedral_degree_agrees_with_two_walks(self):
        # every check-1 Gamma (D_1 and D_2 among them), the binary octahedral
        # group and each of its cyclic subgroups, and (Z2)^3
        degrees = set()
        for r, d1, d2 in oracles._dihedral_points():
            G, _ = gamma(params_for(r, d1, d2))
            assert dihedral_degree(G) == oracles.dihedral_degree(G) == len(G) // 2
            degrees.add(len(G) // 2)
        assert {1, 2} <= degrees
        octahedral = close([Q_S, Q_W], 96, identity=Q_ONE)  # O*
        cube = close([J, L(Fraction(1, 2), 0), L(0, Fraction(1, 2))])
        assert recognize(cube) == TAG_Z2CUBE
        answers = set()
        for G in (octahedral, cube, *(close([g], 48, identity=Q_ONE) for g in octahedral)):
            answers.add(dihedral_degree(G))
            assert dihedral_degree(G) == oracles.dihedral_degree(G), G.gens
        assert answers == {None, 1}

    def test_dihedral_degree_guard(self):
        # an element of order 5 in a four-element list is no group
        fifth = L(Fraction(1, 5), 0)
        fake = FinGroup([ISOM_ID, fifth, J, J1], ISOM_ID)
        for degree in (dihedral_degree, oracles.dihedral_degree):
            with pytest.raises(ValueError, match="element order exceeds group order"):
                degree(fake)


def _torus_sweep():
    """Every point with p <= 8 and d1, d2 <= 4, then 160 seeded points
    with 9 <= p < 50 and n = p*d1*d2 <= 200."""
    points = list(_sweep(8, 4))
    larger = [
        (Slope(q, p), d1, d2)
        for p in range(9, 50)
        for q in range(1, p)
        if gcd(q, p) == 1
        for d1 in range(1, 8)
        for d2 in range(1, 8)
        if gcd(d1, d2) == 1 and p * d1 * d2 <= 200
    ]
    return points + random.Random(5).sample(larger, 160)


def _session_grid():
    """Every generic (q/p; d1, d2) with n = p*d1*d2 in [4, 200], the range of
    the ``dihedral-session`` benchmark's queries, for the least and the
    greatest q in [0, p) prime to p."""
    for n in range(4, 201):
        for p in range(1, n):  # p < n keeps (d1, d2) != (1, 1)
            if n % p:
                continue
            m = n // p
            for d1 in range(1, m + 1):
                d2 = m // d1
                if m % d1 or gcd(d1, d2) != 1:
                    continue
                qs = [q for q in range(p) if gcd(q, p) == 1]
                for q in sorted({qs[0], qs[-1]}):
                    if not is_trivial_theta(Slope(q, p), d1, d2):
                        yield Slope(q, p), d1, d2


class TestTorusModel:
    def test_agrees_with_closure_sweep(self):
        # The certificate, the tag, the quotient's elements and its table
        # against Gamma and N(Gamma) closed element by element.
        points = _torus_sweep()
        assert len(points) >= 400
        assert 180 <= max(r.p * d1 * d2 for r, d1, d2 in points) <= 200
        depth_two = 0
        for r, d1, d2 in points:
            record = orbifold(r, d1, d2)
            params, group, cert, tag, quotient = oracles.closure_orbifold(r, d1, d2)
            assert record.params == params
            assert dict(record.cert) == dict(cert), (r, d1, d2)
            assert record.isom == tag, (r, d1, d2)
            if quotient is None:
                assert record.quotient is None
                continue
            assert group_to_json(record.quotient) == group_to_json(quotient), (r, d1, d2)
            assert _table(record.quotient) == _table(quotient), (r, d1, d2)
            assert [record.quotient.inv(g) for g in record.quotient] == [
                quotient.inv(g) for g in quotient
            ]
            if is_trivial_theta(r, d1, d2):
                continue
            depth_one = {ISOM_ID, J, *_normalizer_rotations(params)}
            depth_two += any(g not in depth_one for g in record.quotient)
        # Most labels need the depth-2 products of the prefix search.
        assert depth_two > len(points) // 2

    def test_hermite_form_against_brute_force(self):
        rng = random.Random(3)
        for M in range(1, 13):
            for _ in range(6):
                vectors = [
                    (rng.randrange(-M, 2 * M), rng.randrange(-M, 2 * M))
                    for _ in range(rng.randint(0, 3))
                ]
                subgroup = {(0, 0)}
                frontier = [(0, 0)]
                while frontier:
                    frontier = [
                        w
                        for x, y in frontier
                        for u, v in vectors
                        for w in [((x + u) % M, (y + v) % M)]
                        if w not in subgroup and not subgroup.add(w)
                    ]
                lat = TorusLattice.spanned(vectors, M)
                assert M % lat.a == 0 and M % lat.c == 0 and 0 <= lat.b < lat.c
                assert lat.order == len(subgroup), (M, vectors)
                torus = [(x, y) for x in range(M) for y in range(M)]
                for x, y in torus:
                    assert lat.contains(x, y) == ((x, y) in subgroup)
                    key = lat.key(x, y)
                    assert lat.key(x - M, y + 2 * M) == key
                    assert all(lat.key(x + u, y + v) == key for u, v in vectors)
                # The key is constant on each coset and takes one value per coset.
                keys = {lat.key(x, y) for x, y in torus}
                assert len(keys) == M * M // len(subgroup)

    def test_torus_vector(self):
        for M in (1, 2, 6, 12, 60):
            for x in range(-M, M, max(1, M // 6)):
                for y in range(0, 2 * M, max(1, M // 5)):
                    g = L(Fraction(x, M), Fraction(y, M))
                    for h in (g, g * J):
                        u, v = torus_vector(h, M)
                        assert ((u - x) % M, (v - y) % M) == (0, 0)
        with pytest.raises(ValueError):
            torus_vector(L(Fraction(1, 7), 0), 6)
        with pytest.raises(ValueError):
            torus_vector(J1, 6)

    def test_rejects_generators_that_do_not_normalize(self):
        # <f, L(1/4, 0), J> has the right order 8n and contains Gamma, but
        # L(1/4,0)*J*L(-1/4,0) = L(1/2,0)*J lies outside Gamma.
        params = params_for(slope("2/5"), 2, 3)
        f = _rotation(params)
        a_gamma = TorusLattice.spanned([torus_vector(f, 60)], 60)
        quarter = L(Fraction(1, 4), 0)
        with pytest.raises(ArithmeticError, match="fails to normalize"):
            torus_quotient(a_gamma, [f, quarter], params.n)
        assert len(close([f, quarter, J])) == 8 * params.n
        assert not gamma(params)[0].normalized_by([f, quarter, J])
        # Too small a claimed normalizer: <L(1/2,0), L(0,1/2), J> misses f.
        with pytest.raises(ArithmeticError, match="fails to normalize"):
            torus_quotient(a_gamma, _normalizer_rotations(params)[1:], params.n)
        # The generators of N(Gamma) pass.
        assert len(torus_quotient(a_gamma, _normalizer_rotations(params), params.n)) == 4


    @pytest.mark.parametrize(
        "points, count",
        [
            (list(oracles._criterion2_points()), 218),
            ([("3/100000000003", 999999999989, d2) for d2 in (1, 999999999961)], 2),
            (list(_session_grid()), 4350),
        ],
        ids=["criterion-2", "large-n", "session-grid"],
    )
    def test_coset_search_against_keys(self, points, count):
        # The search over torus vectors, each coset labelled L(v/M), and its
        # action-read table against the replayed search with the key-built
        # table and self-inverse rule, and against the search over
        # isometries with each coset labelled by its product.
        assert len(points) == count
        for r, d1, d2 in points:
            params = params_for(r, d1, d2)
            M = 2 * params.n
            a_gamma = TorusLattice.spanned([torus_vector(_rotation(params), M)], M)
            rotations = _normalizer_rotations(params)
            got = torus_quotient(a_gamma, rotations, params.n)
            for want in (
                oracles.torus_quotient_by_keys(a_gamma, rotations),
                oracles.torus_quotient_by_products(a_gamma, rotations),
            ):
                assert got.elements == want.elements, (r, d1, d2)
                assert _table(got) == _table(want), (r, d1, d2)
                assert group_to_json(got) == group_to_json(want), (r, d1, d2)
                assert [got.inv(g) for g in got] == [want.inv(g) for g in want], (r, d1, d2)


def same_oriented(a, b) -> bool:
    """Whether triples (r, d1, d2) name the same oriented orbifold."""
    return canonical_key(make_dihedral(*a)) == canonical_key(make_dihedral(*b))


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
            assert orbifold(*a).isom == orbifold(*b).isom

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
