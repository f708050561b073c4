"""Coset enumeration, triangle groups and word-image orders."""

import pytest

import oracles
from pa import cosetenum
from pa.cosetenum import (
    CosetTable,
    DEFAULT_MAX_COSETS,
    Presentation,
    coset_group,
    enumerate_cosets,
    image_order,
    max_cosets_default,
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
from pa.quat import recognize


SPHERICAL = [
    (p, q, r)
    for p in range(2, 7)
    for q in range(2, 7)
    for r in range(2, 7)
    if oracles.spherical_order(p, q, r) is not None
]


class TestParseWord:
    def test_examples(self):
        assert parse_word("b2a") == (2, 2, 1)
        assert parse_word("ac3") == (1, 3, 3, 3)
        assert parse_word("b2ac2a") == (2, 2, 1, 3, 3, 1)
        assert parse_word("AB") == (-1, -2)
        assert parse_word("a^2") == (1, 1)
        assert parse_word("") == ()
        assert parse_word("ab", 2) == (1, 2)

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


class TestPresentation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Presentation(0, ())
        with pytest.raises(ValueError):
            Presentation(2, ((3,),))
        with pytest.raises(ValueError):
            Presentation(2, ((1, -1),))

    def test_triangle_presentation(self):
        pres = triangle_presentation(2, 3, 3)
        assert pres.relators == ((1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 3))
        with pytest.raises(ValueError):
            triangle_presentation(0, 2, 2)


class TestEnumeration:
    def test_s3_presentation(self):
        pres = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
        table = enumerate_cosets(pres)
        assert table.status == "complete"
        assert table.n_cosets == 6

    def test_cyclic(self):
        table = enumerate_cosets(Presentation(1, ((1,) * 7,)))
        assert table.n_cosets == 7

    def test_overflow_reported(self):
        table = enumerate_cosets(triangle_presentation(2, 4, 4), 500)
        assert table.status == "overflow"
        assert table.n_cosets == 0
        with pytest.raises(ValueError):
            coset_group(table)

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
            assert expected == oracles.spherical_order(p, q, r)
            assert triangle_table(p, q, r).n_cosets == expected

    def test_spherical_order_none_cases(self):
        assert spherical_triangle_order(2, 4, 4) is None
        assert spherical_triangle_order(2, 3, 7) is None
        assert spherical_triangle_order(1, 2, 2) is None  # entries must be >= 2

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
    def test_default(self, monkeypatch):
        monkeypatch.delenv("PA_MAX_COSETS", raising=False)
        assert max_cosets_default() == DEFAULT_MAX_COSETS == 10_000

    def test_override(self, monkeypatch):
        monkeypatch.setenv("PA_MAX_COSETS", "123")
        assert max_cosets_default() == 123

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv("PA_MAX_COSETS", "zero")
        with pytest.raises(ValueError):
            max_cosets_default()
        monkeypatch.setenv("PA_MAX_COSETS", "0")
        with pytest.raises(ValueError):
            max_cosets_default()

    def test_small_limit_overflows(self, monkeypatch):
        monkeypatch.setenv("PA_MAX_COSETS", "30")
        with pytest.raises(ValueError):
            triangle_table(2, 3, 5)

    def test_order_past_the_limit_overflows_without_enumerating(self, monkeypatch):
        # A complete table has one row per element and at most the limit of
        # rows, so the closed-form order decides the overflow up front.
        def enumerate_cosets(*args):
            raise AssertionError("enumerate_cosets called")

        monkeypatch.setattr(cosetenum, "enumerate_cosets", enumerate_cosets)
        with pytest.raises(ValueError, match="overflowed the coset bound"):
            triangle_table(2, 3, 5, max_cosets=59)
        monkeypatch.setenv("PA_MAX_COSETS", "10000")
        with pytest.raises(ValueError, match="overflowed the coset bound"):
            triangle_table(2, 2, 20000)


class TestCosetTable:
    def test_act_word(self):
        table = triangle_table(2, 3, 3)
        assert table.act_word(0, parse_word("abc")) == 0
        assert table.act(0, 1) == table.act_word(0, (1,))

    def test_incomplete_lookup(self):
        table = CosetTable(1, [[None, None]], "partial")
        with pytest.raises(ValueError):
            table.act(0, 1)
