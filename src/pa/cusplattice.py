"""Exact Euclidean lattice spectra for the rigid cusp types S^2(2,4,4)
and S^2(2,3,6).

Each cusp group acts on the plane C = R^2; its translation lattice Lambda
is free abelian of rank 2.  All lengths carry a symbolic scale factor l:
a vector m*u + n*v has squared length coef2 * l^2 where

* T244: u = 2l, v = 2li,             coef2 = 4(m^2 + n^2);
* T236: u = 2*sqrt(3)l, v = u*e^{i*pi/3}, coef2 = 12(m^2 + mn + n^2).

Isometries are exact affine maps z -> zeta^e * z + t with zeta = e^{i*pi/12}
(a 24th root of unity, exponent stored mod 24) and t in the cyclotomic
field Q(zeta_12), stored as a rational 4-vector in the power basis of
zeta_12 (minimal polynomial x^4 - x^2 + 1), all scaled by l.  The group
generators are

* T244: a = rotation by pi about 0, b, c = rotations by pi/2 about l, li
  (relators a^2, b^4, c^4, abc);
* T236: a = rotation by pi about sqrt(3)l, b = rotation by 2pi/3 about
  2l*e^{i*pi/6}, c = rotation by pi/3 about 0 (relators a^2, b^3, c^6, abc).

No floating point appears anywhere; lengths are compared via the integer
coef2 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cosetenum import parse_word

Vec4 = tuple[Fraction, Fraction, Fraction, Fraction]

_ZERO4: Vec4 = (Fraction(0),) * 4


def _vec(a=0, b=0, c=0, d=0) -> Vec4:
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _vadd(u: Vec4, v: Vec4) -> Vec4:
    return tuple(a + b for a, b in zip(u, v))  # type: ignore[return-value]


def _vneg(u: Vec4) -> Vec4:
    return tuple(-a for a in u)  # type: ignore[return-value]


def _zeta12_mul(u: Vec4, v: Vec4) -> Vec4:
    """Product in Q(zeta_12) via x^4 = x^2 - 1."""
    prod = [Fraction(0)] * 7
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] += a * b
    for deg in (6, 5, 4):
        c = prod[deg]
        if c:
            prod[deg] = Fraction(0)
            prod[deg - 2] += c
            prod[deg - 4] -= c
    return tuple(prod[:4])  # type: ignore[return-value]


def _zeta12_power(k: int) -> Vec4:
    """zeta_12^k as a power-basis vector (k any integer)."""
    k %= 12
    out = _vec(1)
    base = _vec(0, 1)
    for _ in range(k):
        out = _zeta12_mul(out, base)
    return out


@dataclass(frozen=True)
class EucIsometry:
    """z -> zeta_24^rot * z + trans(l), rot in Z/24, trans in Q(zeta_12)."""

    rot: int
    trans: Vec4

    def __post_init__(self):
        object.__setattr__(self, "rot", self.rot % 24)
        object.__setattr__(self, "trans", tuple(Fraction(t) for t in self.trans))

    def _rot_apply(self, v: Vec4) -> Vec4:
        if self.rot % 2 != 0:
            # Odd powers of zeta_24 leave Q(zeta_12); the generators below
            # only ever produce even exponents.
            raise ValueError("rotation exponent leaves Q(zeta_12)")
        return _zeta12_mul(_zeta12_power(self.rot // 2), v)

    def __mul__(self, other: "EucIsometry") -> "EucIsometry":
        # (u1,v1)(u2,v2) = (u1*u2, u1*v2 + v1): right factor acts first.
        return EucIsometry(
            self.rot + other.rot, _vadd(self._rot_apply(other.trans), self.trans)
        )

    def inv(self) -> "EucIsometry":
        r = EucIsometry(-self.rot, _ZERO4)
        return EucIsometry(-self.rot, _vneg(r._rot_apply(self.trans)))

    @property
    def is_translation(self) -> bool:
        return self.rot == 0

    @property
    def is_identity(self) -> bool:
        return self.rot == 0 and all(t == 0 for t in self.trans)

    def __repr__(self):
        return f"EucIsometry(rot={self.rot}/24, trans={self.trans})"


EUC_ID = EucIsometry(0, _ZERO4)


# ---------------------------------------------------------------------------
# The two rigid lattices


@dataclass(frozen=True)
class EucLattice:
    """Translation lattice of a rigid cusp group; lengths are symbolic in l."""

    kind: str  # "T244" or "T236"

    @property
    def point_group_order(self) -> int:
        return 4 if self.kind == "T244" else 6

    def form(self, m: int, n: int) -> int:
        """coef2 of m*u + n*v: squared length divided by l^2."""
        if self.kind == "T244":
            return 4 * (m * m + n * n)
        return 12 * (m * m + m * n + n * n)

    def rotate(self, m: int, n: int) -> tuple[int, int]:
        """Action of the point-group generator on lattice coordinates."""
        if self.kind == "T244":
            return (-n, m)  # u -> v, v -> -u (multiplication by i)
        return (-n, m + n)  # u -> v, v -> v - u (multiplication by e^{i*pi/3})

    def basis_vectors(self) -> tuple[Vec4, Vec4]:
        if self.kind == "T244":
            return (_vec(2), _vec(0, 0, 0, 2))  # 2l, 2li
        # 2*sqrt(3)l and 2*sqrt(3)l * e^{i*pi/3}; sqrt(3) = 2z - z^3,
        # e^{i*pi/3} = z^2 for z = zeta_12.
        u = _vec(0, 4, 0, -2)
        return (u, _zeta12_mul(u, _vec(0, 0, 1)))

    def coords_of(self, trans: Vec4) -> tuple[int, int] | None:
        """Integer (m, n) with m*u + n*v = trans, or None."""
        u, v = self.basis_vectors()
        # Solve over Q by two well-chosen coordinates, then verify fully.
        if self.kind == "T244":
            m_f, n_f = Fraction(trans[0], 2), Fraction(trans[3], 2)
        else:
            # u = (0,4,0,-2), v = (0,2,0,2): invert the 2x2 minor on
            # coordinates 1 and 3.
            m_f = (trans[1] - trans[3]) / 6
            n_f = (trans[1] + 2 * trans[3]) / 6
        if m_f.denominator != 1 or n_f.denominator != 1:
            return None
        m, n = int(m_f), int(n_f)
        target = _vadd(
            _zeta12_mul(_vec(m), u), _zeta12_mul(_vec(n), v)
        )
        return (m, n) if target == tuple(trans) else None


T244 = EucLattice("T244")
T236 = EucLattice("T236")

_KINDS = {"T244": T244, "244": T244, "T236": T236, "236": T236}


def lattice(kind) -> EucLattice:
    if isinstance(kind, EucLattice):
        return kind
    try:
        return _KINDS[str(kind)]
    except KeyError:
        raise ValueError(f"unknown lattice kind {kind!r}") from None


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
    if lat.kind == "T244":
        # a: pi about 0; b: pi/2 about l; c: pi/2 about li.
        return {
            "a": EucIsometry(12, _ZERO4),
            "b": EucIsometry(6, _vec(1, 0, 0, -1)),
            "c": EucIsometry(6, _vec(1, 0, 0, 1)),
        }
    # a: pi about sqrt(3)l; b: 2pi/3 about 2l*e^{i*pi/6}; c: pi/3 about 0.
    sqrt3_x2 = _vec(0, 4, 0, -2)  # 2*sqrt(3)
    return {
        "a": EucIsometry(12, sqrt3_x2),
        "b": EucIsometry(8, sqrt3_x2),
        "c": EucIsometry(4, _ZERO4),
    }


def evaluate_word(kind, word: str) -> EucIsometry:
    """Evaluate a word over a, b, c (uppercase = inverse, digits repeat)
    into an exact isometry; the empty word is the identity."""
    gens = generators(kind)
    by_index = [gens["a"], gens["b"], gens["c"]]
    result = EUC_ID
    for letter in parse_word(word, 3):
        g = by_index[abs(letter) - 1]
        result = result * (g if letter > 0 else g.inv())
    return result


def as_lattice_vector(kind, iso: EucIsometry) -> LatticeVector | None:
    """The lattice coordinates of a pure lattice translation, else None."""
    lat = lattice(kind)
    if not iso.is_translation:
        return None
    coords = lat.coords_of(iso.trans)
    if coords is None:
        return None
    return LatticeVector(lat.kind, *coords)


def word_for_vector(kind, m: int, n: int) -> str:
    """A word evaluating to the translation by m*u + n*v.

    The basis translations are u = b^2a, v = c^2a (T244) and u = ac^3,
    v = cac^2 (T236); negative coordinates use the inverse words.
    """
    lat = lattice(kind)
    if lat.kind == "T244":
        pos_u, neg_u, pos_v, neg_v = "bba", "ABB", "cca", "ACC"
    else:
        pos_u, neg_u, pos_v, neg_v = "accc", "CCCA", "cacc", "CCAC"
    word = (pos_u if m >= 0 else neg_u) * abs(m)
    word += (pos_v if n >= 0 else neg_v) * abs(n)
    return word


# ---------------------------------------------------------------------------
# Orbits and spectra


def point_group_orbit(vec: LatticeVector) -> tuple[LatticeVector, ...]:
    lat = lattice(vec.kind)
    members = []
    m, n = vec.m, vec.n
    for _ in range(lat.point_group_order):
        members.append(LatticeVector(lat.kind, m, n))
        m, n = lat.rotate(m, n)
    # Nonzero vectors have free point-group orbits for these two groups
    # (no rotation by < 2pi fixes a nonzero vector), so no dedup is needed;
    # keep it anyway for the zero vector.
    out, seen = [], set()
    for v in members:
        if (v.m, v.n) not in seen:
            seen.add((v.m, v.n))
            out.append(v)
    return tuple(out)


def _orbit_representative(members) -> LatticeVector:
    # Every orbit meets the closed first quadrant (rotation steps are at
    # most a quarter turn); take the lexicographically greatest such point
    # so the representatives come out as (1,0), (1,1), (2,0), ...
    quadrant = [v for v in members if v.m >= 0 and v.n >= 0]
    return max(quadrant, key=lambda v: (v.m, v.n))


def _enumeration_radius(lat: EucLattice, coef2_max: int) -> int:
    # T244: 4*max(m^2, n^2) <= form. T236: writing the form as
    # 12*((m + n/2)^2 + 3n^2/4) >= 9*n^2 (and symmetrically >= 9*m^2),
    # any vector with form <= C has |m|, |n| <= sqrt(C/9).
    if lat.kind == "T244":
        return isqrt(coef2_max // 4)
    return isqrt(coef2_max // 9) + 1


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


def attaining_orbits(kind, coef2: int) -> list[PointGroupOrbit]:
    """Point-group orbits of all nonzero vectors of squared length coef2
    (times l^2); empty when the form does not represent coef2."""
    lat = lattice(kind)
    return _orbits(lat, _by_coef2(lat, coef2).get(coef2, []))


def spectrum(kind, count: int) -> list[tuple[int, list[PointGroupOrbit]]]:
    """The first ``count`` distinct values of L_n(Lambda)^2 / l^2 in
    increasing order, each with its point-group orbit decomposition.

    The cap doubles until one enumeration holds ``count`` values; the
    orbits are built from that enumeration's vectors."""
    if count < 1:
        raise ValueError("count must be >= 1")
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
