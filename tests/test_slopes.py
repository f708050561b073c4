"""Slope arithmetic, Schubert equivalence, continued fractions, hat map."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import oracles
from pa.slopes import (
    INF_SLOPE,
    Slope,
    canonical,
    components,
    continued_fraction,
    equivalence,
    hat,
    is_hyperbolic,
    parse_int,
    parse_slope,
    slope,
)


def sweep(p_max):
    return [
        Slope(q, p)
        for p in range(1, p_max + 1)
        for q in range(p)
        if gcd(q, p) == 1
    ]


class TestReduce:
    def test_gcd_reduction(self):
        r = Slope(6, 10)
        assert (r.q, r.p) == (3, 5)

    def test_infinity_sign(self):
        r = Slope(-1, 0)
        assert (r.q, r.p) == (1, 0)
        assert r.is_infinite

    def test_already_reduced(self):
        r = Slope(8, 3)
        assert (r.q, r.p) == (8, 3)

    def test_negative_denominator(self):
        r = Slope(3, -5)
        assert (r.q, r.p) == (-3, 5)

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_parse(self):
        assert parse_slope("3/8") == Slope(3, 8)
        assert parse_slope("inf") == INF_SLOPE
        with pytest.raises(ValueError):
            parse_slope("0.5")
        with pytest.raises(ValueError):
            parse_slope("3 / 8x")

    def test_parse_int_reads_a_sign_and_ascii_digits_only(self):
        for text, value in (("7", 7), ("+7", 7), ("-7", -7), ("007", 7), ("0", 0)):
            assert parse_int(text) == value
        # int() takes all of these
        for text in ("", "+", "-", " 7", "7 ", "1_000", "\u0663", "+\u0663", "--7", "+-7", "7.0"):
            with pytest.raises(ValueError, match="not an integer"):
                parse_int(text)

    def test_parse_refuses_what_is_not_two_ascii_integers(self):
        assert parse_slope(" -3/7 ") == Slope(-3, 7)
        assert parse_slope("3/-7") == Slope(-3, 7)
        assert parse_slope("1/0") == INF_SLOPE
        assert parse_slope("-5") == Slope(-5, 1)
        # "3//7" no longer fails with int()'s own text about "/7"
        for text in ("\u0663/7", "3/1_000_003", "3//7", "3 / 7", "3/", "/7", "inf/1"):
            with pytest.raises(ValueError) as err:
                parse_slope(text)
            assert str(err.value) == f"bad slope {text!r}"
        with pytest.raises(ValueError, match=r"^bad slope '0/0': 0/0 is not a slope$"):
            parse_slope("0/0")

    def test_slope_coercions(self):
        assert slope("2/5") == Slope(2, 5)
        assert slope(Fraction(2, 5)) == Slope(2, 5)
        assert slope(3) == Slope(3, 1)
        assert slope(Slope(2, 5)) == Slope(2, 5)


class TestComponents:
    def test_even_denominator(self):
        assert components(Slope(3, 8)) == 2

    def test_odd_denominator(self):
        assert components(Slope(2, 5)) == 1

    def test_infinity(self):
        assert components(INF_SLOPE) == 2


class TestHyperbolic:
    def test_torus_knot(self):
        assert not is_hyperbolic(Slope(1, 3))

    def test_hyperbolic(self):
        assert is_hyperbolic(Slope(3, 8))

    def test_trivial_knot(self):
        assert not is_hyperbolic(Slope(0, 1))

    def test_q_minus_one(self):
        assert not is_hyperbolic(Slope(4, 5))

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            is_hyperbolic(INF_SLOPE)


class TestContinuedFraction:
    def test_known_expansions(self):
        assert continued_fraction(Slope(2, 5)) == [2, 2]
        assert continued_fraction(Slope(1, 3)) == [3]
        assert continued_fraction(Slope(0, 1)) == []
        assert continued_fraction(Slope(3, 8)) == [2, 1, 2]

    def test_round_trip_2_5(self):
        terms = continued_fraction(Slope(2, 5))
        assert oracles.eval_cf_tower(terms) == Fraction(2, 5)

    def test_round_trip_all_p_le_100(self):
        for p in range(1, 101):
            for q in range(1, p + 1):
                if gcd(q, p) != 1 or q > p:
                    continue
                r = Slope(q, p)
                terms = continued_fraction(r)
                assert all(a >= 1 for a in terms)
                # independent Fraction-tower evaluation
                assert oracles.eval_cf_tower(terms) == Fraction(q, p)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            continued_fraction(Slope(7, 5))  # q/p > 1
        with pytest.raises(ValueError):
            continued_fraction(Slope(-1, 3))
        with pytest.raises(ValueError):
            continued_fraction(INF_SLOPE)


class TestEquivalence:
    def test_bridge_swap_case(self):
        v = equivalence(Slope(2, 7), Slope(4, 7))
        assert v.preserving and v.bridge_swap

    def test_identity_case(self):
        v = equivalence(Slope(1, 3), Slope(1, 3))
        assert v.preserving and not v.bridge_swap
        assert v.involution_class == "vertical-preserved"

    def test_reversing_case(self):
        v = equivalence(Slope(1, 3), Slope(2, 3))
        assert v.reversing and not v.preserving

    def test_planar_swapped(self):
        # q' = q + p mod 2p within the same preserving class
        v = equivalence(Slope(1, 4), Slope(5, 4))
        assert v.preserving
        assert v.involution_class == "planar-swapped"

    def test_different_denominators(self):
        v = equivalence(Slope(1, 3), Slope(1, 5))
        assert not v.preserving and not v.reversing

    def test_infinite_slopes(self):
        v = equivalence(INF_SLOPE, INF_SLOPE)
        assert v.preserving
        assert not equivalence(INF_SLOPE, Slope(1, 3)).preserving

    def test_reflexive_symmetric_transitive_p_le_30(self):
        slopes = sweep(30)
        by_p = {}
        for r in slopes:
            by_p.setdefault(r.p, []).append(r)
        for p, group in by_p.items():
            for a in group:
                assert equivalence(a, a).preserving
            for a in group:
                for b in group:
                    va, vb = equivalence(a, b), equivalence(b, a)
                    assert va.preserving == vb.preserving
                    assert va.reversing == vb.reversing
            # transitivity via canonical form: the preserving classes are
            # exactly the fibers of canonical()
            for a in group:
                for b in group:
                    assert equivalence(a, b).preserving == (
                        canonical(a) == canonical(b)
                    )

    def test_invariants_constant_on_classes_p_le_30(self):
        for a in sweep(30):
            for b in sweep(30):
                if a.p == b.p and equivalence(a, b).preserving:
                    assert components(a) == components(b)
                    assert is_hyperbolic(a) == is_hyperbolic(b)


class TestHat:
    def test_p_odd_q_even(self):
        assert hat(Slope(2, 5)) == Slope(1, 5)

    def test_p_odd_q_odd(self):
        assert hat(Slope(3, 5)) == Slope(4, 5)

    def test_p_even(self):
        assert hat(Slope(3, 8)) == Slope(3, 4)

    def test_negative_q_normalized_first(self):
        # -2/5 = 8/5 mod 2p: q=8 even -> 4/5
        assert hat(Slope(-2, 5)) == Slope(4, 5)

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            hat(INF_SLOPE)

    def test_denominator_rule_sweep(self):
        for r in sweep(40):
            h = hat(r)
            assert gcd(abs(h.q), h.p) == 1
            assert h.p == (r.p if r.p % 2 == 1 else r.p // 2)


class TestCanonical:
    def test_examples(self):
        assert canonical(Slope(7, 10)) == Slope(3, 10)  # 7^-1 = 3 mod 10
        assert canonical(Slope(1, 1)) == Slope(0, 1)
        assert canonical(Slope(2, 7)) == Slope(2, 7)  # min(2, 4)

    def test_idempotent_and_class_constant(self):
        for r in sweep(25):
            c = canonical(r)
            assert canonical(c) == c
            if r.p > 1:
                assert canonical(Slope(pow(r.q, -1, r.p), r.p)) == c


@given(
    q=st.integers(min_value=-200, max_value=200),
    p=st.integers(min_value=1, max_value=200),
)
def test_reduce_properties(q, p):
    r = Slope(q, p)
    assert r.p >= 1
    assert gcd(abs(r.q), r.p) == 1
    assert Fraction(r.q, r.p) == Fraction(q, p)


@given(
    p=st.integers(min_value=1, max_value=60).filter(lambda p: True),
    data=st.data(),
)
def test_hat_reduced(p, data):
    q = data.draw(
        st.integers(min_value=-2 * p, max_value=2 * p).filter(
            lambda q: gcd(abs(q), p) == 1
        )
    )
    h = hat(Slope(q, p))
    assert h.p == (p if p % 2 == 1 else p // 2)
