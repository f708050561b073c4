"""Exact arithmetic in the unit quaternions and in Isom+(S^3).

Everything lives in two element models, each stored as one canonical tuple
of integers, so that products, equality and hashing are integer operations:

* ``DSElem`` -- elements of the subgroup D_S = S^1 u S^1*j of the unit
  quaternions, e^{2pi*i*t} or e^{2pi*i*t}*j with a rational angle t, stored
  as (n, d, jflag) with t = n/d reduced and 0 <= n < d.  Rational angles
  cover every construction except the binary octahedral group.

* ``QuatExt`` -- unit quaternions with coordinates in (1/2)Z[sqrt 2], which
  holds the binary octahedral group (Conway & Smith, *On Quaternions and
  Octonions*, ch. 3-4).  Each coordinate is (A + B*sqrt 2)/2, stored as the
  eight integers (A_w, A_x, A_y, A_z, B_w, B_x, B_y, B_z).  A product is
  formed over the integers and halved exactly; a product that leaves
  (1/2)Z[sqrt 2] raises ArithmeticError instead of being rounded.

Pairs (q1, q2) represent orientation-preserving isometries of S^3 via
phi(q1, q2)(q) = q1 * q * q2^{-1}, whose kernel is <(-1, -1)>; ``Isom3``
stores a ``DSElem`` pair as the key (D, a1, j1, a2, j2) canonical modulo that
kernel (the Q(sqrt 2) computation works with raw pairs instead).  Elements
are immutable and compare and hash as their keys.  ``Fraction`` appears only
at the boundary: the constructors, ``DSElem.t``, ``l_angles``,
``format_isom`` and the ``QSqrt2`` coordinate views.  ``FinGroup`` is a
small closed multiplication universe used for closures, normalizers and
recognition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

HALF = Fraction(1, 2)


def _exact(v) -> Fraction:
    """v as a Fraction; only integers and Fractions are accepted."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"exact value expected (int or Fraction), got {v!r}")
    return Fraction(v)


# ---------------------------------------------------------------------------
# D_S = S^1 u S^1*j with exact rational angles


class DSElem(tuple):
    """e^{2pi*i*t} (jflag False) or e^{2pi*i*t}*j (jflag True), t in [0,1),
    stored as (n, d, jflag) with t = n/d in lowest terms."""

    __slots__ = ()

    def __new__(cls, t, jflag=False):
        t = _exact(t) % 1
        return tuple.__new__(cls, (t.numerator, t.denominator, bool(jflag)))

    @property
    def t(self) -> Fraction:
        return Fraction(self[0], self[1])

    @property
    def jflag(self) -> bool:
        return self[2]

    def __mul__(self, other: "DSElem") -> "DSElem":
        # j*e^{2pi*i*t} = e^{-2pi*i*t}*j and j*j = -1 = e^{pi*i}.
        n, d, j = self
        m, e, k = other
        D = lcm(2, d, e)
        n, m = n * (D // d), m * (D // e)
        return _ds(n - m + (D >> 1) * k if j else n + m, D, j ^ k)

    def __neg__(self) -> "DSElem":
        n, d, j = self
        return _ds(2 * n + d, 2 * d, j)

    def inv(self) -> "DSElem":
        n, d, j = self
        return -self if j else _ds(-n, d, False)

    def __repr__(self):
        base = f"e(2pi*{self.t})"
        return base + "*j" if self.jflag else base


def _ds(n: int, d: int, jflag: bool) -> DSElem:
    """The DSElem with angle n/d (any integer n, d >= 1)."""
    n %= d
    g = gcd(n, d)
    return tuple.__new__(DSElem, (n // g, d // g, jflag))


DS_ONE = DSElem(0)
DS_J = DSElem(0, True)
DS_I = DSElem(Fraction(1, 4))


# ---------------------------------------------------------------------------
# Q(sqrt 2) scalars and quaternions


@dataclass(frozen=True)
class QSqrt2:
    """The number a + b*sqrt(2) with a, b rational: the exact view of one
    ``QuatExt`` coordinate."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        _exact(self.a)
        _exact(self.b)

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"({self.a}+{self.b}*sqrt2)"


QS_HALF_SQRT2 = QSqrt2(0, HALF)  # 1/sqrt(2)


def _hamilton(p, q) -> tuple[int, int, int, int]:
    """The Hamilton product of two integer quaternions (w, x, y, z)."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


class QuatExt(tuple):
    """Unit quaternion w + x*i + y*j + z*k with coordinates in (1/2)Z[sqrt 2],
    stored as (A_w, A_x, A_y, A_z, B_w, B_x, B_y, B_z): each coordinate is
    (A + B*sqrt 2)/2."""

    __slots__ = ()

    def __new__(cls, w: QSqrt2, x: QSqrt2, y: QSqrt2, z: QSqrt2):
        coords = (w, x, y, z)
        twice = [2 * c.a for c in coords] + [2 * c.b for c in coords]
        if any(v.denominator != 1 for v in twice):
            raise ValueError(f"coordinates {coords} are not in (1/2)Z[sqrt2]")
        return tuple.__new__(cls, (int(v) for v in twice))

    def _coord(self, i: int) -> QSqrt2:
        return QSqrt2(Fraction(self[i], 2), Fraction(self[i + 4], 2))

    w = property(lambda self: self._coord(0))
    x = property(lambda self: self._coord(1))
    y = property(lambda self: self._coord(2))
    z = property(lambda self: self._coord(3))

    def __mul__(self, o: "QuatExt") -> "QuatExt":
        # (a1 + b1*sqrt2)(a2 + b2*sqrt2) over integer quaternions a, b of
        # twice the coordinates; the result is four times the product.
        a1, b1, a2, b2 = self[:4], self[4:], o[:4], o[4:]
        rational = [u + 2 * v for u, v in zip(_hamilton(a1, a2), _hamilton(b1, b2))]
        root2 = [u + v for u, v in zip(_hamilton(a1, b2), _hamilton(b1, a2))]
        four = rational + root2
        if any(v & 1 for v in four):
            raise ArithmeticError(f"product of {self} and {o} leaves (1/2)Z[sqrt2]")
        return tuple.__new__(QuatExt, [v >> 1 for v in four])

    def __neg__(self):
        return tuple.__new__(QuatExt, [-v for v in self])

    def conjugate(self):
        aw, ax, ay, az, bw, bx, by, bz = self
        return tuple.__new__(QuatExt, (aw, -ax, -ay, -az, bw, -bx, -by, -bz))

    def _norm4(self) -> tuple[int, int]:
        """Four times the norm, as (rational part, sqrt 2 part)."""
        a, b = self[:4], self[4:]
        return (
            sum(u * u + 2 * v * v for u, v in zip(a, b)),
            sum(2 * u * v for u, v in zip(a, b)),
        )

    def norm(self) -> QSqrt2:
        r, s = self._norm4()
        return QSqrt2(Fraction(r, 4), Fraction(s, 4))

    def inv(self):
        # Unit quaternions only; guarded by the norm invariant.
        if self._norm4() != (4, 0):
            raise ValueError("inverse requires a unit quaternion")
        return self.conjugate()

    def key(self):
        return tuple(self)

    def __repr__(self):
        return f"[{self.w} {self.x}i {self.y}j {self.z}k]"


def _q(w=0, x=0, y=0, z=0) -> QuatExt:
    mk = lambda v: v if isinstance(v, QSqrt2) else QSqrt2(v, 0)
    return QuatExt(mk(w), mk(x), mk(y), mk(z))


Q_ONE = _q(1)
Q_I = _q(0, 1)
Q_J = _q(0, 0, 1)
Q_K = _q(0, 0, 0, 1)
# (1+i)/sqrt(2): an order-8 element of the binary octahedral group.
Q_S = _q(QS_HALF_SQRT2, QS_HALF_SQRT2)
# (1+i+j+k)/2: an order-6 Hurwitz unit.
Q_W = _q(HALF, HALF, HALF, HALF)


# cos and sin of 2pi*k/8, k = 0..7, each as (A, B) for (A + B*sqrt 2)/2.
_COS_SIN_8TH = (
    ((2, 0), (0, 0)),
    ((0, 1), (0, 1)),
    ((0, 0), (2, 0)),
    ((0, -1), (0, 1)),
    ((-2, 0), (0, 0)),
    ((0, -1), (0, -1)),
    ((0, 0), (-2, 0)),
    ((0, 1), (0, -1)),
)


def embed_ds(g: DSElem) -> QuatExt:
    """Embed D_S into the Q(sqrt 2) model.

    Only angles with denominator dividing 8 have cosine and sine in
    Q(sqrt 2); anything else is rejected.
    """
    n, d, j = g
    if 8 % d:
        raise ValueError(f"angle {g.t} has no Q(sqrt2) coordinates")
    (ca, cb), (sa, sb) = _COS_SIN_8TH[n * (8 // d)]
    if j:
        # (cos + i sin) * j = cos*j + sin*k
        return tuple.__new__(QuatExt, (0, 0, ca, sa, 0, 0, cb, sb))
    return tuple.__new__(QuatExt, (ca, sa, 0, 0, cb, sb, 0, 0))


# ---------------------------------------------------------------------------
# Isometries of S^3: pairs modulo +-(1,1)


class Isom3(tuple):
    """phi(g1, g2) in Isom+(S^3) for DSElem g1, g2, canonicalized modulo the
    kernel <(-1,-1)>.

    Stored as (D, a1, j1, a2, j2): g1 = e^{2pi*i*a1/D} * j^j1 and
    g2 = e^{2pi*i*a2/D} * j^j2 over the least common denominator D of the
    two angles (gcd(D, a1, a2) = 1), with the representative that keeps
    g1's angle a1/D in [0, 1/2).
    """

    __slots__ = ()

    def __new__(cls, g1: DSElem, g2: DSElem):
        n1, d1, j1 = g1
        n2, d2, j2 = g2
        D = lcm(2, d1, d2)
        return _isom(D, n1 * (D // d1), j1, n2 * (D // d2), j2)

    @property
    def g1(self) -> DSElem:
        return _ds(self[1], self[0], self[2])

    @property
    def g2(self) -> DSElem:
        return _ds(self[3], self[0], self[4])

    def __mul__(self, other: "Isom3") -> "Isom3":
        # The D_S product in each coordinate, over a common even denominator.
        D, a1, j1, a2, j2 = self
        E, b1, k1, b2, k2 = other
        if D != E or D & 1:
            M = lcm(2, D, E)
            s, t = M // D, M // E
            D, a1, a2, b1, b2 = M, a1 * s, a2 * s, b1 * t, b2 * t
        h = D >> 1
        return _isom(
            D,
            a1 - b1 + h * k1 if j1 else a1 + b1,
            j1 ^ k1,
            a2 - b2 + h * k2 if j2 else a2 + b2,
            j2 ^ k2,
        )

    def inv(self) -> "Isom3":
        D, a1, j1, a2, j2 = self
        if D & 1:
            D, a1, a2 = 2 * D, 2 * a1, 2 * a2
        h = D >> 1
        return _isom(D, a1 + h if j1 else -a1, j1, a2 + h if j2 else -a2, j2)

    def __repr__(self):
        return format_isom(self)


def _isom(D: int, c1: int, j1: bool, c2: int, j2: bool) -> Isom3:
    """The Isom3 of the pair with angles c1/D, c2/D (D even, c1, c2 any
    integers): the kernel is removed by adding D/2 to both angles when
    c1/D mod 1 is at least 1/2, then the key is reduced."""
    h = D >> 1
    c1 %= D
    if c1 >= h:
        c1 -= h
        c2 += h
    c2 %= D
    g = gcd(D, c1, c2)
    if g != 1:
        D, c1, c2 = D // g, c1 // g, c2 // g
    return tuple.__new__(Isom3, (D, c1, j1, c2, j2))


ISOM_ID = Isom3(DS_ONE, DS_ONE)
J = Isom3(DS_J, DS_J)    # (z1, z2) -> (conj z1, conj z2)
J1 = Isom3(DS_ONE, DS_J)  # (z1, z2) -> (z2, -z1)
J2 = Isom3(DS_J, DS_ONE)  # (z1, z2) -> (-conj z2, conj z1)


def L(t1, t2) -> Isom3:
    """The isometry (z1, z2) -> (e^{2pi*i*t1} z1, e^{2pi*i*t2} z2).

    Realized as phi(eta1, eta2) with eta1 = e^{pi*i(t1+t2)} and
    eta2 = e^{pi*i(t2-t1)}, which satisfies (eta1*conj(eta2), eta1*eta2)
    = (e^{2pi*i*t1}, e^{2pi*i*t2}).
    """
    t1, t2 = _exact(t1), _exact(t2)
    return Isom3(DSElem((t1 + t2) / 2), DSElem((t2 - t1) / 2))


def is_L(g: Isom3) -> bool:
    _, _, j1, _, j2 = g
    return not j1 and not j2


def l_angles(g: Isom3) -> tuple[Fraction, Fraction]:
    """Recover (t1, t2) with g = L(t1, t2); requires is_L(g)."""
    if not is_L(g):
        raise ValueError("not an L-type isometry")
    D, a1, _, a2, _ = g
    return (Fraction((a1 - a2) % D, D), Fraction((a1 + a2) % D, D))


_J_TAILS = {
    (False, False): "",
    (True, True): "·J",
    (False, True): "·J1",
    (True, False): "·J2",
}


def format_isom(g: Isom3) -> str:
    """Print as "L(a/b, c/d)" optionally followed by one of ·J, ·J1, ·J2."""
    # Right multiplication by j^-1 clears a coordinate's j and keeps its
    # angle, so the L-part has g's key with both flags cleared.
    D, a1, j1, a2, j2 = g
    tail = _J_TAILS[j1, j2]
    t1, t2 = l_angles(tuple.__new__(Isom3, (D, a1, False, a2, False)))
    return f"L({t1}, {t2})" + tail


def isom_order(g: Isom3, bound: int = 10**6) -> int:
    acc = g
    for n in range(1, bound + 1):
        if acc == ISOM_ID:
            return n
        acc = acc * g
    raise ValueError("order exceeds bound")


def group_to_json(G) -> list[str]:
    """Element list as printable strings, in the group's element order."""
    return [format_isom(g) if isinstance(g, Isom3) else repr(g) for g in G]


# ---------------------------------------------------------------------------
# Finite groups as closed element sets


class GroupOverflow(Exception):
    """Raised when a closure would exceed its element bound."""


class FinGroup:
    """A finite group given by its full element list and a generating set.

    Elements must be hashable; ``mul`` and ``inv`` are callables (defaulting
    to the ``*`` operator and an ``.inv()`` method).  The element list keeps
    deterministic construction order.  ``gens`` defaults to the elements
    themselves.  Elements and generators are tuples: cached groups are
    shared between callers, so a group never changes once built.
    """

    def __init__(self, elements, identity, mul=operator.mul, inv=None, gens=None):
        self.elements = tuple(elements)
        self.gens = self.elements if gens is None else tuple(gens)
        self._set = frozenset(self.elements)
        self.identity = identity
        self.mul = mul
        self._inv = inv
        if identity not in self._set:
            raise ValueError("identity not among the elements")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._set

    def inv(self, g):
        if self._inv is not None:
            return self._inv(g)
        return g.inv()

    def element_order(self, g) -> int:
        acc, n = g, 1
        while acc != self.identity:
            acc = self.mul(acc, g)
            n += 1
            if n > len(self.elements):
                raise ValueError("element order exceeds group order")
        return n

    def center(self):
        return [
            a
            for a in self.elements
            if all(self.mul(a, b) == self.mul(b, a) for b in self.elements)
        ]

    def is_normal(self, H: "FinGroup") -> bool:
        """Whether x*s*x^-1 lies in H for every generator x of this group
        and every generator s of its subgroup H.

        That is the same as H being normal: conjugation by x is an
        automorphism, so x*H*x^-1 = <x*s*x^-1 : s in gens(H)>, which lies in
        H exactly when the conjugated generators do, and then equals H
        since both have |H| elements.  Every element of this group is a
        product of its generators, so it conjugates H onto H as well.
        """
        return all(
            self.mul(self.mul(x, s), self.inv(x)) in H for x in self.gens for s in H.gens
        )

    def are_conjugate(self, g, h) -> bool:
        return any(
            self.mul(self.mul(x, g), self.inv(x)) == h for x in self.elements
        )

    def quotient(self, H: "FinGroup") -> "FinGroup":
        """The quotient by a normal subgroup H, as a group of coset labels.

        Raises ValueError unless H's generators lie in this group and H
        passes ``is_normal``.  Each coset is labeled by its first element in
        this group's element order.  The quotient keeps its |Q| x |Q|
        multiplication table over the labels and their inverses, and no
        reference to this group or its element-to-label map.
        """
        if not all(s in self for s in H.gens):
            raise ValueError("not a subset")
        if len(self) % len(H) != 0 or not self.is_normal(H):
            raise ValueError("not a normal subgroup")
        label = {}
        reps = []
        for g in self.elements:
            if g in label:
                continue
            for s in H:
                label[self.mul(g, s)] = g
            reps.append(g)
        table = {(a, b): label[self.mul(a, b)] for a in reps for b in reps}
        inverse = {a: label[self.inv(a)] for a in reps}
        qmul = lambda a, b: table[a, b]
        return FinGroup(reps, label[self.identity], mul=qmul, inv=inverse.__getitem__)


def close(gens, bound=10**5, *, identity=None, mul=operator.mul, inv=None) -> FinGroup:
    """Breadth-first closure of the generators into a FinGroup that records
    them as its ``gens``.

    Raises GroupOverflow when more than ``bound`` elements appear.  In a
    finite group, closure under products with the generators suffices:
    inverses are positive powers.  When ``identity`` is omitted it is
    computed as g*g^{-1} from the first generator.
    """
    gens = tuple(gens)
    if identity is None:
        if not gens:
            raise ValueError("need generators or an explicit identity")
        g0 = gens[0]
        identity = mul(g0, inv(g0) if inv is not None else g0.inv())
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in seen:
                    if len(seen) >= bound:
                        raise GroupOverflow(f"closure exceeds bound {bound}")
                    seen.add(b)
                    elements.append(b)
                    new.append(b)
        frontier = new
    return FinGroup(elements, identity, mul=mul, inv=inv, gens=gens)


# ---------------------------------------------------------------------------
# Recognition


def dihedral_degree(G: FinGroup):
    """Return n if G is dihedral of order 2n (presentation
    <a, b | a^2, b^2, (ab)^n>), else None.  D_1 = Z_2 and D_2 = (Z_2)^2
    count as dihedral of degree 1 and 2."""
    size = len(G)
    if size % 2 != 0:
        return None
    n = size // 2
    if n == 1:
        return 1 if G.element_order(G.elements[-1]) <= 2 else None
    for x in G:
        if x == G.identity or G.element_order(x) != n:
            continue
        cyc = set()
        acc = G.identity
        for _ in range(n):
            cyc.add(acc)
            acc = G.mul(acc, x)
        xi = G.inv(x)
        for s in G:
            if s in cyc:
                continue
            if G.mul(s, s) == G.identity and G.mul(G.mul(s, x), G.inv(s)) == xi:
                return n
    return None


def recognize(G: FinGroup) -> str:
    """Coarse isomorphism type of a small group.

    Tags: "Z1", "Z2", "(Z2)^k", "Zn", "Dn", "D3xZ2", "other(n)".  Tie-breaks:
    elementary abelian 2-groups win over the dihedral test (so D_2 reports
    as "(Z2)^2"), and an order-12 dihedral group with center of order 2
    reports via its direct-product decomposition as "D3xZ2" (D_6 and
    D_3 x Z_2 are the same group).
    """
    n = len(G)
    if n == 1:
        return "Z1"
    orders = [G.element_order(g) for g in G.elements]
    if all(o <= 2 for o in orders):
        k = n.bit_length() - 1
        if 2**k != n:
            return f"other({n})"
        return "Z2" if k == 1 else f"(Z2)^{k}"
    if n in orders:
        return f"Z{n}"
    dd = dihedral_degree(G)
    if n == 12 and dd == 6 and len(G.center()) == 2:
        return "D3xZ2"
    if dd is not None and dd >= 3:
        return f"D{dd}"
    return f"other({n})"


# ---------------------------------------------------------------------------
# The binary octahedral group


def binary_octahedral() -> FinGroup:
    """The 48-element group O* = psi^{-1}(O) in Q(sqrt 2) coordinates,
    generated by (1+i)/sqrt(2) and (1+i+j+k)/2."""
    return close([Q_S, Q_W], 96, identity=Q_ONE)


def d2_star() -> FinGroup:
    """The quaternion group {+-1, +-i, +-j, +-k} inside O*."""
    return close([Q_I, Q_J], 16, identity=Q_ONE)
