"""Exact Euclidean lattice spectra for the rigid cusp types S^2(2,4,4)
and S^2(2,3,6).

The two cusp groups are the wallpaper groups p4 and p6.  Their translation
lattice Lambda = Zu + Zv is free abelian of rank 2, and all lengths carry a
symbolic scale factor l: the vector m*u + n*v has squared length coef2 * l^2
with coef2 = scale * (m^2 + s*m*n + n^2),

* T244: u = 2l, v = 2li,                    s = 0, scale 4;
* T236: u = 2*sqrt(3)l, v = u*e^{i*pi/3},   s = 1, scale 12.

The point group is generated by the rotation rho by 2pi/4 (T244) or 2pi/6
(T236), which maps u to v and acts on lattice coordinates as
(m, n) -> (-n, m + s*n).  Every rotation centre of p4 and p6 lies in
(1/2)Lambda (Conway, Burgiel and Goodman-Strauss, *The Symmetries of
Things*), so an isometry is exactly an integer triple (e, x, y): the map
z -> rho^e * z + (x*u + y*v)/2, with e taken mod the order of rho.  The
group generators are

* T244: a = (2, 0, 0), the half-turn about 0; b = (1, 1, -1) and
  c = (1, 1, 1), the quarter turns about l and li (relators a^2, b^4, c^4,
  abc);
* T236: a = (3, 2, 0), the half-turn about sqrt(3)l; b = (2, 2, 0), the
  third turn about 2l*e^{i*pi/6}; c = (1, 0, 0), the sixth turn about 0
  (relators a^2, b^3, c^6, abc).

Each kind is one ``EucLattice`` record of these numbers.  No floating point
appears anywhere; lengths are compared via the integer coef2 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .cosetenum import parse_word
from .groups import power


@dataclass(frozen=True)
class EucLattice:
    """Translation lattice of a rigid cusp group; lengths are symbolic in l.

    ``s`` and ``scale`` define the form and the action of rho,
    ``generators`` holds the triples (e, x, y) of a, b, c, and
    ``basis_words`` evaluate to the translations by u and v.
    """

    kind: str
    s: int
    scale: int
    point_group_order: int
    generators: tuple[tuple[int, int, int], ...]
    basis_words: tuple[str, str]

    def form(self, m: int, n: int) -> int:
        """coef2 of m*u + n*v: squared length divided by l^2."""
        return self.scale * (m * m + self.s * m * n + n * n)

    def rotate(self, m: int, n: int) -> tuple[int, int]:
        """Action of the point-group generator rho on lattice coordinates:
        u -> v and v -> s*v - u."""
        return (-n, m + self.s * n)


T244 = EucLattice("T244", 0, 4, 4, ((2, 0, 0), (1, 1, -1), (1, 1, 1)), ("bba", "cca"))
T236 = EucLattice("T236", 1, 12, 6, ((3, 2, 0), (2, 2, 0), (1, 0, 0)), ("accc", "cacc"))

_KINDS = {"T244": T244, "244": T244, "T236": T236, "236": T236}


def lattice(kind) -> EucLattice:
    if isinstance(kind, EucLattice):
        return kind
    try:
        return _KINDS[str(kind)]
    except KeyError:
        raise ValueError(f"unknown lattice kind {kind!r}") from None


class EucIsometry(NamedTuple):
    """z -> rho^e * z + (x*u + y*v)/2 on the plane of ``lattice``, with
    0 <= e < point_group_order."""

    lattice: EucLattice
    e: int
    x: int
    y: int

    def __mul__(self, other: "EucIsometry") -> "EucIsometry":
        # (e1, t1)(e2, t2) = (e1 + e2, rho^e1 * t2 + t1): right factor acts first.
        lat, e, x, y = self
        _, e2, x2, y2 = other
        for _ in range(e):
            x2, y2 = lat.rotate(x2, y2)
        return EucIsometry(lat, (e + e2) % lat.point_group_order, x + x2, y + y2)

    def inv(self) -> "EucIsometry":
        # (e, t)^-1 = (-e, 0)(0, -t).
        lat, e, x, y = self
        turn = EucIsometry(lat, -e % lat.point_group_order, 0, 0)
        return turn * EucIsometry(lat, 0, -x, -y)

    def __repr__(self):
        return f"EucIsometry({self.lattice.kind}, e={self.e}, x={self.x}, y={self.y})"


@dataclass(frozen=True)
class LatticeVector:
    kind: str
    m: int
    n: int

    @property
    def coef2(self) -> int:
        return lattice(self.kind).form(self.m, self.n)

    def __repr__(self):
        return f"({self.m},{self.n})@{self.kind}"


@dataclass(frozen=True)
class PointGroupOrbit:
    """A point-group orbit of lattice vectors, with a representative word."""

    representative: LatticeVector
    members: tuple[LatticeVector, ...]
    word: str

    @property
    def coef2(self) -> int:
        return self.representative.coef2


# ---------------------------------------------------------------------------
# Generators and word evaluation


def generators(kind) -> dict[str, EucIsometry]:
    lat = lattice(kind)
    return {name: EucIsometry(lat, *g) for name, g in zip("abc", lat.generators)}


def evaluate_word(kind, word: str) -> EucIsometry:
    """Evaluate a word over a, b, c (uppercase = inverse, digits repeat)
    into an exact isometry, each run (letter, count) raised to its count by
    square-and-multiply; the empty word is the identity."""
    lat = lattice(kind)
    gens = list(generators(lat).values())
    result = EucIsometry(lat, 0, 0, 0)
    for letter, count in parse_word(word, 3):
        g = gens[abs(letter) - 1]
        result = result * power(g if letter > 0 else g.inv(), count)
    return result


def as_lattice_vector(kind, iso: EucIsometry) -> LatticeVector | None:
    """The lattice coordinates of a pure lattice translation, else None."""
    _, e, x, y = iso
    if e or x % 2 or y % 2:
        return None
    return LatticeVector(lattice(kind).kind, x // 2, y // 2)


def word_for_vector(kind, m: int, n: int) -> str:
    """A word evaluating to the translation by m*u + n*v: the lattice's
    basis words, inverted for negative coordinates."""
    u, v = lattice(kind).basis_words
    word = (u if m >= 0 else u[::-1].swapcase()) * abs(m)
    word += (v if n >= 0 else v[::-1].swapcase()) * abs(n)
    return word


# ---------------------------------------------------------------------------
# Orbits and spectra


def point_group_orbit(vec: LatticeVector) -> tuple[LatticeVector, ...]:
    """The point-group orbit of a nonzero vector, in rotation order.  No
    rotation by less than 2pi fixes a nonzero vector of these two
    lattices, so the members are distinct."""
    lat = lattice(vec.kind)
    members = []
    m, n = vec.m, vec.n
    for _ in range(lat.point_group_order):
        members.append(LatticeVector(lat.kind, m, n))
        m, n = lat.rotate(m, n)
    return tuple(members)


def _orbit_representative(members) -> LatticeVector:
    # Every orbit meets the closed first quadrant (rotation steps are at
    # most a quarter turn); take the lexicographically greatest such point
    # so the representatives come out as (1,0), (1,1), (2,0), ...
    quadrant = [v for v in members if v.m >= 0 and v.n >= 0]
    return max(quadrant, key=lambda v: (v.m, v.n))


def _enumeration_radius(lat: EucLattice, coef2_max: int) -> int:
    # 4*form = scale*((2m + s*n)^2 + (4 - s^2)*n^2) >= scale*(4 - s^2)*n^2,
    # and symmetrically in m, so a vector with form <= C has |m|, |n| <=
    # sqrt(4C / (scale*(4 - s^2))): sqrt(C/4) for T244, sqrt(C/9) for T236.
    return isqrt(4 * coef2_max // (lat.scale * (4 - lat.s * lat.s)))


def vectors_with_coef2_at_most(kind, coef2_max: int) -> list[LatticeVector]:
    lat = lattice(kind)
    if coef2_max < 0:
        return []
    radius = _enumeration_radius(lat, coef2_max)
    out = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if (m, n) != (0, 0) and lat.form(m, n) <= coef2_max:
                out.append(LatticeVector(lat.kind, m, n))
    return out


def _by_coef2(lat: EucLattice, coef2_max: int) -> dict[int, list[LatticeVector]]:
    """The nonzero vectors with coef2 <= coef2_max from one enumeration,
    grouped by coef2 in increasing order."""
    buckets: dict[int, list[LatticeVector]] = {}
    for vec in vectors_with_coef2_at_most(lat, coef2_max):
        buckets.setdefault(lat.form(vec.m, vec.n), []).append(vec)
    return dict(sorted(buckets.items()))


def _orbits(lat: EucLattice, vectors) -> list[PointGroupOrbit]:
    """The point-group orbits of ``vectors``, all of one squared length."""
    orbits: list[PointGroupOrbit] = []
    assigned: set[tuple[int, int]] = set()
    for vec in sorted(vectors, key=lambda v: (v.m, v.n)):
        if (vec.m, vec.n) in assigned:
            continue
        members = point_group_orbit(vec)
        assigned.update((v.m, v.n) for v in members)
        rep = _orbit_representative(members)
        orbits.append(
            PointGroupOrbit(rep, members, word_for_vector(lat, rep.m, rep.n))
        )
    return orbits


# The most values ``spectrum`` computes: its time and memory grow
# faster than the count, to seconds and hundreds of MB by 10 000.
MAX_SPECTRUM_COUNT = 1000


def spectrum(kind, count: int) -> list[tuple[int, list[PointGroupOrbit]]]:
    """The first ``count`` distinct values of L_n(Lambda)^2 / l^2 in
    increasing order, each with its point-group orbit decomposition.

    The cap doubles until one enumeration holds ``count`` values; the
    orbits are built from that enumeration's vectors.  A count past
    MAX_SPECTRUM_COUNT is refused (ValueError) before any enumeration."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_SPECTRUM_COUNT:
        raise ValueError(f"count {count} is past the spectrum bound {MAX_SPECTRUM_COUNT}")
    lat = lattice(kind)
    cap = lat.form(1, 0)
    while len(buckets := _by_coef2(lat, cap)) < count:
        cap *= 2
    return [
        (value, _orbits(lat, vectors))
        for value, vectors in list(buckets.items())[:count]
    ]


def brenner_candidates(kind) -> list[PointGroupOrbit]:
    """Orbits short enough to be parabolic-generator candidates: those with
    coef2 < 4 * (minimal coef2), i.e. squared length under (2 * L_1)^2.

    The cusp geometry gives L_1 >= 1 and requires candidates of length
    < 2; after normalizing by l^2 both sides are integers.
    """
    lat = lattice(kind)
    buckets = _by_coef2(lat, 4 * lat.form(1, 0) - 1)
    return [orbit for vectors in buckets.values() for orbit in _orbits(lat, vectors)]
