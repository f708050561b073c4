"""Coset enumeration, triangle groups and word-image orders."""

import itertools
import random
from math import gcd

import pytest

import coset_domain_sweep
import element_kernel_sweep
import oracles
from pa import cosetenum
from pa.cosetenum import (
    CosetTable,
    MAX_COSETS,
    MAX_COUNT_DIGITS,
    MAX_WORD_RUNS,
    Presentation,
    coset_group,
    enumerate_cosets,
    image_order,
    natural_epimorphism_valid,
    parse_word,
    permutation_order,
    spherical_triangle_order,
    triangle_group,
    triangle_presentation,
    triangle_table,
    triangle_word_images,
    word_permutation,
)
from pa.cusplattice import evaluate_word
from pa.groups import recognize


SPHERICAL = [
    (p, q, r)
    for p in range(2, 7)
    for q in range(2, 7)
    for r in range(2, 7)
    if oracles.spherical_triangle_order_by_fractions(p, q, r) is not None
]

# Every spherical triple with entries up to 9, those with an entry 1
# (finite cyclic groups) included.
SPHERICAL_TO_9 = [
    (p, q, r)
    for p in range(1, 10)
    for q in range(1, 10)
    for r in range(1, 10)
    if spherical_triangle_order(p, q, r) is not None
]


def random_words(rng, count, ngens=3):
    letters = "abcde"[:ngens]
    letters += letters.upper()
    return [
        "".join(rng.choice(letters) + str(rng.randint(1, 9)) for _ in range(rng.randint(1, 6)))
        for _ in range(count)
    ]


def as_runs(letters):
    """A relator's letters as runs of one letter each."""
    return tuple((x, 1) for x in letters)


def expand(runs):
    return tuple(letter for letter, count in runs for _ in range(count))


class TestParseWord:
    def test_examples(self):
        assert parse_word("b2a") == ((2, 2), (1, 1))
        assert parse_word("ac3") == ((1, 1), (3, 3))
        assert parse_word("b2ac2a") == ((2, 2), (1, 1), (3, 2), (1, 1))
        assert parse_word("AB") == ((-1, 1), (-2, 1))
        assert parse_word("a^2") == ((1, 2),)
        assert parse_word("aa") == ((1, 1), (1, 1))
        assert parse_word("") == ()
        assert parse_word("ab", 2) == ((1, 1), (2, 1))
        assert parse_word("a99999999999") == ((1, 99999999999),)

    def test_runs_expand_to_the_letters(self):
        for word in ("b2a", "ac3", "b2ac2a", "AB", "a^2", "", "C12bA^3", "cCc"):
            assert expand(parse_word(word)) == oracles.word_letters(word), word
        assert oracles.word_letters("b2ac2a") == (2, 2, 1, 3, 3, 1)

    def test_bounds(self):
        assert len(parse_word("ab" * (MAX_WORD_RUNS // 2))) == MAX_WORD_RUNS
        with pytest.raises(ValueError, match="runs"):
            parse_word("ab" * (MAX_WORD_RUNS // 2) + "c")
        assert parse_word("a" + "9" * MAX_COUNT_DIGITS) == ((1, 10**MAX_COUNT_DIGITS - 1),)
        with pytest.raises(ValueError, match="digits"):
            parse_word("a" + "1" * (MAX_COUNT_DIGITS + 1))

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_word("d")  # out of range for 3 generators
        with pytest.raises(ValueError):
            parse_word("c", 2)
        with pytest.raises(ValueError):
            parse_word("a0")
        with pytest.raises(ValueError):
            parse_word("2a")
        with pytest.raises(ValueError):
            parse_word("a-b")

    @pytest.mark.parametrize("word", ["İ", "aİ", "a²", "a٣", "ß", "a^²", "ａ"])
    def test_non_ascii_is_a_bad_character(self, word):
        # "İ".lower() is two characters, "²" and "٣" are digits to
        # str.isdigit: only ASCII letters and digits are read.
        with pytest.raises(ValueError, match="bad character|needs a repeat count"):
            parse_word(word)
        with pytest.raises(ValueError, match="bad character|needs a repeat count"):
            evaluate_word("T244", word)


def letters(ngens, *relators):
    """The presentation of relators given letter by letter."""
    return Presentation(ngens, tuple(as_runs(rel) for rel in relators))


class TestPresentation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Presentation(0, ())
        with pytest.raises(ValueError):
            Presentation(2, (((3, 1),),))
        with pytest.raises(ValueError):
            Presentation(2, (((1, 1), (-1, 1)),))
        with pytest.raises(ValueError):
            Presentation(2, (((1, 2), (1, 1), (-1, 3)),))
        with pytest.raises(ValueError):
            Presentation(2, (((1, 0),),))

    def test_runs_of_one_letter_merge(self):
        pres = letters(2, (1, 1, 1), (2, 1, 1, -2), (-1, -1))
        assert pres.relators == (((1, 3),), ((2, 1), (1, 2), (-2, 1)), ((-1, 2),))

    def test_triangle_presentation(self):
        pres = triangle_presentation(2, 3, 3)
        assert pres.relators == (((1, 2),), ((2, 3),), ((3, 3),), ((1, 1), (2, 1), (3, 1)))
        with pytest.raises(ValueError):
            triangle_presentation(0, 2, 2)


class TestEnumeration:
    def test_s3_presentation(self):
        pres = letters(2, (1, 1), (2, 2), (1, 2, 1, 2, 1, 2))
        table = enumerate_cosets(pres)
        assert table.n_cosets == 6

    def test_cyclic(self):
        table = enumerate_cosets(Presentation(1, (((1, 7),),)))
        assert table.n_cosets == 7

    def test_overflow_reported(self, monkeypatch):
        # A full table raises; no partial table is returned.
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 500)
        with pytest.raises(ValueError, match="overflow"):
            enumerate_cosets(triangle_presentation(2, 4, 4))
        with pytest.raises(ValueError, match="incomplete"):
            coset_group(CosetTable(1, [[None, 0]]))

    def test_determinism(self):
        t1 = triangle_table(2, 3, 5)
        t2 = triangle_table(2, 3, 5)
        assert t1.rows == t2.rows

    def test_relators_fix_every_coset(self):
        for ptype in [(2, 3, 3), (2, 3, 4), (2, 2, 5)]:
            table = triangle_table(*ptype)
            identity = tuple(range(table.n_cosets))
            for rel in triangle_presentation(*ptype).relators:
                assert word_permutation(table, rel) == identity
            assert word_permutation(table, "abc") == identity


class TestAgainstHLT:
    """The Felsch enumerator against the HLT oracle: the same group orders
    and the same orders of random words."""

    def compare(self, pres, rng, words=5):
        table = enumerate_cosets(pres)
        oracle = oracles.HLTEnumerator(pres, MAX_COSETS).run()
        assert table.n_cosets == oracle.n_cosets
        for word in random_words(rng, words, pres.ngens):
            assert permutation_order(word_permutation(table, word)) == permutation_order(
                oracles.act_word_permutation(oracle, word)
            ), word

    def test_spherical_triples_to_9(self):
        rng = random.Random(6)
        assert len(SPHERICAL_TO_9) == 254
        for ptype in SPHERICAL_TO_9:
            self.compare(triangle_presentation(*ptype), rng)

    @pytest.mark.parametrize("r", [50, 300, 600])
    def test_t22r(self, r):
        self.compare(triangle_presentation(2, 2, r), random.Random(r))

    def test_other_presentations(self):
        rng = random.Random(7)
        commutator = (1, 2, -1, -2)
        for pres in [
            letters(2, (1,) * 4, (1, 1, -2, -2), (1, 2, 1, -2)),  # Q8
            letters(2, (1, 1), (2, 2, 2), (1, 2) * 7, commutator * 4),  # PSL(2,7)
            letters(2, (1, 1), (1, 1, 1), (2,) * 5, (1, 2, 1, -2)),  # a = 1: Z5
            letters(2, (-1,) * 6, (-2, -2), (1, 2, 1, 2)),  # D6, inverse powers
        ]:
            self.compare(pres, rng, words=3)
        # HLT, which processes coincidences, completes these two; Felsch
        # meets a coincidence on each and refuses instead of answering.
        for pres, order in [
            (letters(5, (1, 2, -3), (2, 3, -4), (3, 4, -5), (4, 5, -1), (5, 1, -2)), 11),  # F(2,5)
            (
                letters(
                    2,
                    (1,) * 10, (2,) * 6, (2, 1, 2, 1, 2), (-2, -1, 2, 1, 2),
                    (-1, -1, 2, -1, -1, -1, -2),
                ),
                1,
            ),
        ]:
            with pytest.raises(ValueError, match="coincidence"):
                enumerate_cosets(pres)
            assert oracles.HLTEnumerator(pres, MAX_COSETS).run().n_cosets == order

    def test_random_presentations(self, monkeypatch):
        # Power relators on most generators plus a few short random
        # relators; most of these groups are finite and small.
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 1500)
        rng = random.Random(9)
        refused = agreeing = complete = 0
        for _ in range(60):
            ngens = rng.randint(1, 3)
            rels = [
                ((g if rng.random() < 0.8 else -g),) * rng.randint(2, 12)
                for g in range(1, ngens + 1)
                if rng.random() < 0.8
            ]
            for _ in range(rng.randint(1, 3)):
                word = []
                for _ in range(rng.randint(1, 8)):
                    x = rng.choice([g for g in range(-ngens, ngens + 1) if g])
                    if not word or word[-1] != -x:
                        word.append(x)
                rels.append(tuple(word))
            pres = letters(ngens, *rels)
            try:
                table = enumerate_cosets(pres)
            except ValueError as err:
                if "coincidence" in str(err):
                    refused += 1
                    continue
                assert "overflow" in str(err), rels
                with pytest.raises(ValueError, match="overflow"):
                    oracles.HLTEnumerator(pres, 1500).run()
                agreeing += 1
                continue
            oracle = oracles.HLTEnumerator(pres, 1500).run()
            assert table.n_cosets == oracle.n_cosets, rels
            agreeing += 1
            complete += 1
            for rel in rels:
                assert word_permutation(table, as_runs(rel)) == tuple(range(table.n_cosets))
        assert (refused, agreeing, complete) == (18, 42, 32)

    def test_infinite_group_overflows_in_both(self, monkeypatch):
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 2000)
        pres = triangle_presentation(2, 3, 7)
        with pytest.raises(ValueError, match="overflow"):
            enumerate_cosets(pres)
        with pytest.raises(ValueError, match="overflow"):
            oracles.HLTEnumerator(pres, 2000).run()


class TestEntryOne:
    """T(p, q, r) with an entry 1 is cyclic of order g, the gcd of the other
    two entries; its presentation carries x^g as a Tietze move."""

    @staticmethod
    def plain(p, q, r):
        return letters(3, (1,) * p, (2,) * q, (3,) * r, (1, 2, 3))

    def test_triples_to_12_against_hlt(self):
        rng = random.Random(12)
        triples = [
            (p, q, r)
            for p in range(1, 13)
            for q in range(1, 13)
            for r in range(1, 13)
            if 1 in (p, q, r)
        ]
        assert len(triples) == 397
        for p, q, r in triples:
            g = gcd(*sorted((p, q, r))[1:])
            table = triangle_table(p, q, r)
            oracle = oracles.HLTEnumerator(self.plain(p, q, r), MAX_COSETS).run()
            assert table.n_cosets == oracle.n_cosets == g, (p, q, r)
            for word in random_words(rng, 2):
                assert permutation_order(word_permutation(table, word)) == permutation_order(
                    oracles.act_word_permutation(oracle, word)
                ), ((p, q, r), word)

    def test_presentation_adds_the_cyclic_relators(self):
        abc = ((1, 1), (2, 1), (3, 1))
        assert triangle_presentation(1, 6, 4).relators == (
            ((1, 1),), ((2, 6),), ((3, 4),), abc, ((2, 2),), ((3, 2),)
        )
        assert triangle_presentation(3, 1, 1).relators == (
            ((1, 3),), ((2, 1),), ((3, 1),), abc, ((1, 1),)
        )
        # Nothing to add when the powers are already x^g or x^1.
        assert triangle_presentation(1, 4, 4).relators == (
            ((1, 1),), ((2, 4),), ((3, 4),), abc
        )

    def test_order_is_checked_against_the_bound_up_front(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated past the bound")

        monkeypatch.setattr(cosetenum, "enumerate_cosets", refuse)
        # Cyclic of order 20000, past the default bound of 10000.
        with pytest.raises(ValueError, match="overflowed the coset bound"):
            triangle_table(1, 40000, 20000)

    def test_long_coprime_powers(self):
        table = triangle_table(1, 10001, 10000)
        assert table.n_cosets == 1

    def test_trivial_generator_meets_no_coincidence(self):
        # Each row is made with a fixed by a, so no a-entry is defined as a
        # new row that would name an existing coset twice.
        table = triangle_table(1, 5000, 5000)
        assert table.n_cosets == 5000
        assert permutation_order(word_permutation(table, "b")) == 5000


class TestTableBound:
    def test_spherical_triples_complete_at_their_order(self, monkeypatch):
        # Entry-1 triples included: their relators x^1 make no dead rows.
        for p in range(1, 13):
            for q in range(1, 13):
                for r in range(1, 13):
                    order = spherical_triangle_order(p, q, r)
                    if order is None:
                        continue
                    monkeypatch.setattr(cosetenum, "MAX_COSETS", order)
                    table = enumerate_cosets(triangle_presentation(p, q, r))
                    assert table.n_cosets == order, (p, q, r)
        # The largest groups a triangle query enumerates, of order MAX_COSETS.
        for ptype in [
            (2, 2, 5000), (2, 5000, 2), (5000, 2, 2),
            (1, 10000, 10000), (10000, 1, 10000), (10000, 10000, 1),
        ]:
            order = spherical_triangle_order(*ptype)
            monkeypatch.setattr(cosetenum, "MAX_COSETS", order)
            table = enumerate_cosets(triangle_presentation(*ptype))
            assert table.n_cosets == order == 10000, ptype

    def test_domain_sweep_to_order_120(self, capsys):
        # tests/coset_domain_sweep.py at a small bound: every type with
        # entries <= 60 ends with one row per element, so a triangle query
        # within the bound never fills its table.
        assert coset_domain_sweep.main(["--max-order", "120"]) == 0
        assert capsys.readouterr().out.startswith("10991 triangle types complete")

    def test_presentation_with_dead_rows_is_refused(self, monkeypatch):
        # abc and bc say a = 1, but no power relator does, so a coset's
        # a-entry is first defined as a new row that names an existing
        # coset: a coincidence, refused whatever the bound.
        pres = letters(3, (2,) * 4, (3,) * 4, (1, 2, 3), (2, 3))
        with pytest.raises(ValueError, match="coincidence"):
            enumerate_cosets(pres)
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 6)
        with pytest.raises(ValueError, match="coincidence"):
            enumerate_cosets(pres)

    def test_t22_4999_completes_at_its_order(self, monkeypatch):
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 9998)
        table = enumerate_cosets(triangle_presentation(2, 2, 4999))
        assert table.n_cosets == 9998
        assert permutation_order(word_permutation(table, "c")) == 4999


class TestTriangleGroups:
    def test_frozen_orders(self):
        assert triangle_table(2, 2, 2).n_cosets == 4
        assert triangle_table(2, 3, 3).n_cosets == 12
        assert triangle_table(2, 2, 5).n_cosets == 10
        assert triangle_table(2, 3, 4).n_cosets == 24
        assert triangle_table(2, 3, 5).n_cosets == 60

    def test_rejects_non_spherical(self):
        for ptype in [(2, 4, 4), (2, 3, 6), (3, 3, 3), (2, 3, 7), (4, 4, 4)]:
            with pytest.raises(ValueError):
                triangle_table(*ptype)

    def test_closed_form_matches_enumeration(self):
        for p, q, r in SPHERICAL:
            expected = spherical_triangle_order(p, q, r)
            assert expected == oracles.spherical_triangle_order_by_fractions(p, q, r)
            assert triangle_table(p, q, r).n_cosets == expected

    def test_integer_order_agrees_with_fractions(self):
        # The integer form 2pqr / (qr + pr + pq - pqr) against the Fraction
        # sum it replaced, on every type with entries 1..40: the same order,
        # the same None and the same error (there is none: every spherical
        # order is integral).
        def outcome(order, ptype):
            try:
                return "order", order(*ptype)
            except ValueError as err:
                return "error", str(err)

        kinds = set()
        for ptype in itertools.product(range(1, 41), repeat=3):
            got = outcome(spherical_triangle_order, ptype)
            assert got == outcome(oracles.spherical_triangle_order_by_fractions, ptype), ptype
            kinds.add(got[1] is None)
        assert kinds == {True, False}

    def test_spherical_order_none_cases(self):
        assert spherical_triangle_order(2, 4, 4) is None
        assert spherical_triangle_order(2, 3, 7) is None

    def test_spherical_order_entry_one_and_below(self):
        # An entry 1 leaves the cyclic group of order the gcd of the others.
        assert spherical_triangle_order(1, 2, 2) == 2
        assert spherical_triangle_order(6, 1, 4) == 2
        assert spherical_triangle_order(3, 1, 1) == 1
        assert spherical_triangle_order(1, 10001, 10000) == 1
        for ptype in [(0, 2, 2), (2, -3, 5), (1, 1, 0)]:
            with pytest.raises(ValueError, match="must be positive"):
                spherical_triangle_order(*ptype)

    def test_generator_orders_are_faithful(self):
        for p, q, r in [(2, 3, 3), (2, 3, 5), (2, 2, 4)]:
            table = triangle_table(p, q, r)
            for word, expected in (("a", p), ("b", q), ("c", r)):
                assert permutation_order(word_permutation(table, word)) == expected

    def test_group_is_regular_action(self):
        G = triangle_group(2, 3, 4)
        assert len(G) == 24
        assert recognize(triangle_group(2, 2, 3)) == "D3"

    def test_tetrahedral_element_orders(self):
        G = triangle_group(2, 3, 3)
        assert {G.element_order(g) for g in G} == {1, 2, 3}


class TestPermutations:
    def test_word_permutation_matches_act_word(self):
        rng = random.Random(8)
        for ptype in [(2, 3, 5), (2, 2, 600), (1, 4, 6)]:
            table = triangle_table(*ptype)
            for word in ["", "a", "C", *random_words(rng, 10)]:
                assert word_permutation(table, word) == oracles.act_word_permutation(table, word)

    def test_word_permutation_on_incomplete_table(self):
        with pytest.raises(ValueError):
            word_permutation(CosetTable(1, [[None, 0]]), "a")

    def test_inverse_matches_sort_form(self):
        G = triangle_group(2, 3, 4)
        n = len(G.identity)
        for g in G:
            assert G.inv(g) == tuple(sorted(range(n), key=lambda i: g[i]))
            assert G.mul(g, G.inv(g)) == G.identity

    def test_then_agrees_with_the_comprehension(self):
        # ``itemgetter`` from two points on, the comprehension below: the
        # result is a tuple at every length, T(3, 1, 1)'s one point included
        assert element_kernel_sweep.then_compositions() == 240
        assert triangle_group(3, 1, 1).elements == ((0,),)


class TestPermutationOrder:
    def test_against_brute_oracle(self):
        table = triangle_table(2, 3, 5)
        for word in ("a", "b", "c", "ab", "bc", "b2c", "abcba"):
            perm = word_permutation(table, word)
            assert permutation_order(perm) == oracles.perm_order_brute(perm)

    def test_identity(self):
        assert permutation_order((0, 1, 2)) == 1


class TestImageOrders:
    def test_cusp_244_words(self):
        for target in [(2, 2, 2), (2, 2, 4), (2, 4, 2)]:
            assert image_order("b2a", (2, 4, 4), target) == 2
        assert [
            image_order("b2ac2a", (2, 4, 4), t)
            for t in [(2, 2, 2), (2, 2, 4), (2, 4, 2)]
        ] == [1, 2, 2]

    def test_cusp_236_words(self):
        assert image_order("ac3", (2, 3, 6), (2, 3, 3)) == 2
        assert image_order("ac4ac2", (2, 3, 6), (2, 3, 3)) == 2

    def test_source_defaults_to_target(self):
        assert image_order("ab", (2, 3, 3)) == 3  # ab = c^-1
        assert image_order("a", (2, 3, 5)) == 2

    def test_epimorphism_validation(self):
        assert natural_epimorphism_valid((2, 4, 4), (2, 2, 2))
        assert natural_epimorphism_valid((4, 6, 12), (2, 3, 4))
        assert not natural_epimorphism_valid((2, 4, 4), (2, 3, 3))
        with pytest.raises(ValueError):
            image_order("b2a", (2, 4, 4), (2, 3, 3))
        with pytest.raises(ValueError):
            image_order("ac3", (2, 3, 6), (2, 3, 4))

    def test_non_spherical_target_rejected(self):
        with pytest.raises(ValueError):
            image_order("b2a", (2, 4, 4), (2, 4, 4))


class TestConjugacy:
    def test_rotation_word_conjugate_to_a(self):
        G, (g, h) = triangle_word_images((2, 3, 3), ["ac4ac2", "a"])
        assert G.are_conjugate(g, h)

    def test_244_capped_words(self):
        G, (g, h) = triangle_word_images((2, 2, 4), ["c2a", "b2a"])
        assert G.are_conjugate(g, h)

    def test_negative_case(self):
        # the two classes of 3-cycles in the tetrahedral group
        G, (g, h) = triangle_word_images((2, 3, 3), ["b", "b2"])
        assert not G.are_conjugate(g, h)


class TestCosetLimit:
    def test_default(self):
        assert MAX_COSETS == cosetenum.MAX_COSETS == 10_000

    def test_small_limit_overflows(self, monkeypatch):
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 30)
        with pytest.raises(ValueError):
            triangle_table(2, 3, 5)

    def test_order_past_the_limit_overflows_without_enumerating(self, monkeypatch):
        # A complete table has one row per element and at most the limit of
        # rows, so the closed-form order decides the overflow up front.
        def enumerate_cosets(*args):
            raise AssertionError("enumerate_cosets called")

        monkeypatch.setattr(cosetenum, "enumerate_cosets", enumerate_cosets)
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 59)
        with pytest.raises(ValueError, match="overflowed the coset bound"):
            triangle_table(2, 3, 5)
        monkeypatch.setattr(cosetenum, "MAX_COSETS", 10_000)
        with pytest.raises(ValueError, match="overflowed the coset bound"):
            triangle_table(2, 2, 20000)


class TestCosetTable:
    def test_act_word(self):
        # the letter-at-a-time oracle, and the word path on the same table
        table = triangle_table(2, 3, 3)
        assert oracles.act_word(table, 0, oracles.word_letters("abc")) == 0
        assert word_permutation(table, "abc")[0] == 0
        assert oracles.act(table, 0, 1) == oracles.act_word(table, 0, (1,))
        assert oracles.act(table, 0, 1) == word_permutation(table, "a")[0]

    def test_incomplete_lookup(self):
        table = CosetTable(1, [[None, None]])
        with pytest.raises(ValueError):
            oracles.act(table, 0, 1)
        with pytest.raises(ValueError):
            word_permutation(table, "a")


WORD_GROUPS = [(2, 3, 5), (2, 2, 600), (1, 6, 4)]


def run_words(rng, count):
    """Seeded words of up to 8 runs, counts up to 50, both cases."""
    return [
        "".join(rng.choice("abcABC") + str(rng.randint(1, 50)) for _ in range(rng.randint(1, 8)))
        for _ in range(count)
    ]


class TestWordRuns:
    """Words as runs: each run's column raised to its count by
    square-and-multiply, against the letter-at-a-time oracle."""

    @pytest.mark.parametrize("ptype", WORD_GROUPS)
    def test_sweep_against_letters(self, ptype):
        rng = random.Random(sum(ptype))
        table = triangle_table(*ptype)
        for word in run_words(rng, 40):
            assert word_permutation(table, word) == oracles.act_word_permutation(table, word), word

    @pytest.mark.parametrize("ptype", WORD_GROUPS)
    def test_huge_count_is_count_mod_order(self, ptype):
        rng = random.Random(11)
        table = triangle_table(*ptype)
        identity = tuple(range(table.n_cosets))
        for letter in (1, 2, 3, -1, -2, -3):
            order = permutation_order(word_permutation(table, ((letter, 1),)))
            for count in [10**17, 99999999999, *(rng.randrange(10**12, 10**18) for _ in range(5))]:
                reduced = count % order
                expected = word_permutation(table, ((letter, reduced),)) if reduced else identity
                assert word_permutation(table, ((letter, count),)) == expected, (letter, count)

    def test_huge_count_in_a_word(self):
        assert image_order("a99999999999", (2, 3, 5)) == 2
        assert image_order("b2a99999999999c", (2, 3, 5)) == image_order("b2ac", (2, 3, 5))

    def test_malformed_word_refused_before_enumeration(self, monkeypatch):
        calls = []
        table = cosetenum.triangle_table
        monkeypatch.setattr(
            cosetenum, "triangle_table", lambda *a, **k: calls.append(a) or table(*a, **k)
        )
        for word in ("x", "a0", "a" * (MAX_WORD_RUNS + 1), "a" + "1" * (MAX_COUNT_DIGITS + 1)):
            with pytest.raises(ValueError):
                image_order(word, (1, 5000, 5000))
        assert calls == []
        assert image_order("b", (1, 5000, 5000)) == 5000
        assert calls == [(1, 5000, 5000)]
