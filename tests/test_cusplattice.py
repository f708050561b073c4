"""Euclidean lattices of the rigid cusp types and their length spectra."""

import pytest

import oracles
from pa.cusplattice import (
    MAX_SPECTRUM_COUNT,
    EucIsometry,
    LatticeVector,
    T236,
    T244,
    as_lattice_vector,
    attaining_orbits,
    brenner_candidates,
    evaluate_word,
    generators,
    lattice,
    point_group_orbit,
    spectrum,
    vectors_with_coef2_at_most,
    word_for_vector,
)

KINDS = ("T244", "T236")


def is_identity(g):
    return g == EucIsometry(g.lattice, 0, 0, 0)


class TestIsometries:
    def test_generator_orders(self):
        orders = {"T244": {"a": 2, "b": 4, "c": 4}, "T236": {"a": 2, "b": 3, "c": 6}}
        for kind in KINDS:
            for name, g in generators(kind).items():
                acc, k = g, 1
                while not is_identity(acc):
                    acc = acc * g
                    k += 1
                    assert k <= 12
                assert k == orders[kind][name], (kind, name)

    def test_abc_is_identity(self):
        for kind in KINDS:
            assert is_identity(evaluate_word(kind, "abc"))

    def test_inverses(self):
        for kind in KINDS:
            for word in ("a", "b", "c", "ab", "bca", "ccab"):
                g = evaluate_word(kind, word)
                assert is_identity(g * g.inv())
                assert is_identity(g.inv() * g)
            for cancel in ("aA", "bB", "cC", "Aa"):
                assert is_identity(evaluate_word(kind, cancel))

    def test_empty_word(self):
        for lat in (T244, T236):
            assert evaluate_word(lat, "") == EucIsometry(lat, 0, 0, 0)

    def test_composition_direction(self):
        gens = generators("T244")
        assert evaluate_word("T244", "ba") == gens["b"] * gens["a"]

    def test_digit_repetition(self):
        for kind, packed, flat in [
            ("T244", "b2a", "bba"),
            ("T244", "c2a", "cca"),
            ("T236", "ac3", "accc"),
            ("T236", "cac2", "cacc"),
        ]:
            assert evaluate_word(kind, packed) == evaluate_word(kind, flat)

    def test_huge_count_is_count_mod_order(self):
        orders = {"T244": {"a": 2, "b": 4, "c": 4}, "T236": {"a": 2, "b": 3, "c": 6}}
        for kind in KINDS:
            for name, order in orders[kind].items():
                for letter in (name, name.upper()):
                    for count in (10**17, 99999999999, 10**17 + 1, 123456789012345678):
                        reduced = count % order
                        expected = evaluate_word(kind, f"{letter}{reduced}" if reduced else "")
                        assert evaluate_word(kind, f"{letter}{count}") == expected, (kind, letter)

    def test_half_turn_square(self):
        # b^2 is the half-turn about 2l = u: z -> -z + u.
        b = generators("T244")["b"]
        assert b * b == EucIsometry(T244, 2, 2, 0)


class TestAgainstZeta12Model:
    """The integer maps (e, x, y) against the Q(zeta_12) affine maps they
    replaced: (e, x, y) -> (zeta_24^{e*24/order}, (x*u + y*v)/2)."""

    def test_generators_correspond(self):
        for kind in KINDS:
            for g, old in zip(generators(kind).values(), oracles.ZETA12_GENERATORS[kind]):
                self._assert_same(kind, g, old)

    def test_words_up_to_length_4(self):
        for kind in KINDS:
            a, b, c = oracles.ZETA12_GENERATORS[kind]
            letters = dict(zip("abcABC", (a, b, c, a.inv(), b.inv(), c.inv())))
            images = {"": oracles.ZETA12_IDENTITY}
            level = dict(images)
            for _ in range(4):
                level = {
                    word + x: old * g
                    for word, old in level.items()
                    for x, g in letters.items()
                }
                images.update(level)
            assert len(images) == 1 + 6 + 36 + 216 + 1296
            for word, old in images.items():
                self._assert_same(kind, evaluate_word(kind, word), old)

    def test_half_lattice_translations(self):
        # Every translation in the cusp group lies in the lattice; a map with
        # an odd half-coordinate is outside the group and has no coordinates.
        for kind in KINDS:
            lat = lattice(kind)
            for x in range(-3, 4):
                for y in range(-3, 4):
                    old = oracles.Zeta12Isometry(0, oracles.zeta12_translation(kind, x, y))
                    self._assert_same(kind, EucIsometry(lat, 0, x, y), old)
            assert as_lattice_vector(kind, EucIsometry(lat, 0, 1, 2)) is None

    @staticmethod
    def _assert_same(kind, iso, old):
        lat = lattice(kind)
        _, e, x, y = iso
        assert old.rot == e * 24 // lat.point_group_order, (kind, iso)
        assert old.trans == oracles.zeta12_translation(kind, x, y), (kind, iso)
        coords = oracles.zeta12_coords_of(kind, old.trans) if old.rot == 0 else None
        vec = as_lattice_vector(kind, iso)
        assert vec == (None if coords is None else LatticeVector(kind, *coords))


class TestLattices:
    def test_kind_lookup(self):
        assert lattice("T244") is T244
        assert lattice("244") is T244
        assert lattice("236") is T236
        assert lattice(T236) is T236
        with pytest.raises(ValueError):
            lattice("X999")

    def test_forms(self):
        assert T244.form(1, 0) == 4
        assert T244.form(1, 1) == 8
        assert T236.form(1, 0) == 12
        assert T236.form(1, 1) == 36
        assert T236.form(1, -1) == 12

    def test_basis_words_are_basis_translations(self):
        expect = {
            ("T244", "bba"): (1, 0),
            ("T244", "cca"): (0, 1),
            ("T236", "accc"): (1, 0),
            ("T236", "cacc"): (0, 1),
        }
        for (kind, word), (m, n) in expect.items():
            vec = as_lattice_vector(kind, evaluate_word(kind, word))
            assert vec == LatticeVector(kind, m, n)

    def test_rotations_are_not_lattice_vectors(self):
        for kind in KINDS:
            for name in ("a", "b", "c"):
                g = generators(kind)[name]
                assert as_lattice_vector(kind, g) is None

    def test_word_for_vector_round_trip(self):
        for kind in KINDS:
            for m in range(-4, 5):
                for n in range(-4, 5):
                    word = word_for_vector(kind, m, n)
                    vec = as_lattice_vector(kind, evaluate_word(kind, word))
                    assert vec == LatticeVector(kind, m, n), (kind, m, n)

    def test_conjugation_realizes_point_group(self):
        rotor = {"T244": "b", "T236": "c"}
        for kind in KINDS:
            lat = lattice(kind)
            g = generators(kind)[rotor[kind]]
            for m, n in [(1, 0), (0, 1), (2, -1), (-3, 2)]:
                t = evaluate_word(kind, word_for_vector(kind, m, n))
                conj = g * t * g.inv()
                assert as_lattice_vector(kind, conj) == LatticeVector(
                    kind, *lat.rotate(m, n)
                )

    def test_form_is_rotation_invariant(self):
        for kind in KINDS:
            lat = lattice(kind)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    assert lat.form(m, n) == lat.form(*lat.rotate(m, n))


class TestOrbits:
    def test_shortest_orbit_t244(self):
        orbits = attaining_orbits("T244", 4)
        assert len(orbits) == 1
        (orbit,) = orbits
        assert orbit.representative == LatticeVector("T244", 1, 0)
        assert {(v.m, v.n) for v in orbit.members} == {
            (1, 0), (0, 1), (-1, 0), (0, -1),
        }
        assert orbit.word == "bba"

    def test_second_orbit_t244(self):
        (orbit,) = attaining_orbits("T244", 8)
        assert orbit.representative == LatticeVector("T244", 1, 1)
        assert {(v.m, v.n) for v in orbit.members} == {
            (1, 1), (-1, 1), (-1, -1), (1, -1),
        }

    def test_unrepresented_value(self):
        assert attaining_orbits("T244", 3) == []
        assert attaining_orbits("T244", 12) == []
        assert attaining_orbits("T236", 24) == []

    def test_orbit_sizes_are_free(self):
        for kind in KINDS:
            order = lattice(kind).point_group_order
            for value, orbits in spectrum(kind, 5):
                for orbit in orbits:
                    assert len(orbit.members) == order
                    rep = orbit.representative
                    assert rep.m >= 0 and rep.n >= 0
                    assert rep in orbit.members

    def test_point_group_orbit_frozen(self):
        members = point_group_orbit(LatticeVector("T236", 1, 0))
        assert {(v.m, v.n) for v in members} == {
            (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
        }


class TestSpectra:
    def test_t244_values(self):
        spec = spectrum("T244", 3)
        assert [value for value, _ in spec] == [4, 8, 16]
        for value, orbits in spec:
            assert len(orbits) == 1
        reps = [orbits[0].representative for _, orbits in spec]
        assert [(v.m, v.n) for v in reps] == [(1, 0), (1, 1), (2, 0)]
        assert [orbits[0].word for _, orbits in spec] == [
            "bba", "bbacca", "bbabba",
        ]

    def test_t236_values(self):
        spec = spectrum("T236", 3)
        assert [value for value, _ in spec] == [12, 36, 48]
        for value, orbits in spec:
            assert len(orbits) == 1
        reps = [orbits[0].representative for _, orbits in spec]
        assert [(v.m, v.n) for v in reps] == [(1, 0), (1, 1), (2, 0)]
        assert [orbits[0].word for _, orbits in spec] == [
            "accc", "accccacc", "acccaccc",
        ]

    def test_orbit_words_evaluate_to_members(self):
        for kind in KINDS:
            for value, orbits in spectrum(kind, 4):
                for orbit in orbits:
                    vec = as_lattice_vector(kind, evaluate_word(kind, orbit.word))
                    assert vec == orbit.representative
                    assert vec in orbit.members

    def test_one_enumeration_matches_per_value_form(self):
        for kind in ("T244", "244", "T236", "236"):
            for count in range(1, 25):
                assert spectrum(kind, count) == oracles.spectrum_per_value(kind, count)

    def test_multiplicities_against_brute_count(self):
        for kind in KINDS:
            for value, orbits in spectrum(kind, 6):
                total = sum(len(o.members) for o in orbits)
                assert total == oracles.brute_vector_count(kind, value)

    def test_spectrum_matches_forms(self):
        for kind in KINDS:
            lat = lattice(kind)
            realized = sorted(
                {
                    lat.form(m, n)
                    for m in range(-9, 10)
                    for n in range(-9, 10)
                    if (m, n) != (0, 0)
                }
            )
            values = [value for value, _ in spectrum(kind, 8)]
            assert values == realized[:8]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            spectrum("T244", 0)
        with pytest.raises(ValueError, match="past the spectrum bound 1000"):
            spectrum("T244", MAX_SPECTRUM_COUNT + 1)
        assert len(spectrum("T236", MAX_SPECTRUM_COUNT)) == MAX_SPECTRUM_COUNT

    def test_enumeration_is_complete(self):
        for kind in KINDS:
            got = {
                (v.m, v.n) for v in vectors_with_coef2_at_most(kind, 100)
            }
            lat = lattice(kind)
            want = {
                (m, n)
                for m in range(-12, 13)
                for n in range(-12, 13)
                if (m, n) != (0, 0) and lat.form(m, n) <= 100
            }
            assert got == want


class TestBrennerCandidates:
    def test_t244(self):
        orbits = brenner_candidates("T244")
        assert [o.coef2 for o in orbits] == [4, 8]
        # 16 = (2*L_1)^2 is excluded: candidates must be shorter than 2*L_1
        assert all(o.coef2 < 16 for o in orbits)

    def test_t236(self):
        orbits = brenner_candidates("T236")
        assert [o.coef2 for o in orbits] == [12, 36]
        assert all(o.coef2 < 48 for o in orbits)
