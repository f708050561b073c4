"""Exact arithmetic in the unit quaternions and in Isom+(S^3).

Everything lives in two element models:

* ``DSElem`` -- elements of the subgroup D_S = S^1 u S^1*j of the unit
  quaternions, stored as a rational angle t (the element is e^{2pi*i*t} or
  e^{2pi*i*t}*j).  Rational-angle arithmetic is exact and covers every
  construction except the binary octahedral group.

* ``QuatExt`` -- unit quaternions with coordinates in Q(sqrt(2)), which is
  the smallest field containing the binary octahedral group.

Pairs (q1, q2) represent orientation-preserving isometries of S^3 via
phi(q1, q2)(q) = q1 * q * q2^{-1}, whose kernel is <(-1, -1)>; the ``Isom3``
wrapper canonicalizes ``DSElem`` pairs modulo that kernel (the Q(sqrt 2)
computation works with raw pairs instead).  ``FinGroup`` is a small closed
multiplication universe used for closures, normalizers and recognition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# D_S = S^1 u S^1*j with exact rational angles


@dataclass(frozen=True)
class DSElem:
    """e^{2pi*i*t} (jflag False) or e^{2pi*i*t}*j (jflag True), t in [0,1)."""

    t: Fraction
    jflag: bool = False

    def __post_init__(self):
        t = self.t
        if type(t) is not Fraction:
            t = Fraction(t)
        object.__setattr__(self, "t", t % 1)

    def __mul__(self, other: "DSElem") -> "DSElem":
        # j*e^{2pi*i*t} = e^{-2pi*i*t}*j and j*j = -1 = e^{pi*i}.
        if not self.jflag:
            return DSElem(self.t + other.t, other.jflag)
        if not other.jflag:
            return DSElem(self.t - other.t, True)
        return DSElem(self.t - other.t + HALF, False)

    def __neg__(self) -> "DSElem":
        return DSElem(self.t + HALF, self.jflag)

    def inv(self) -> "DSElem":
        if self.jflag:
            return DSElem(self.t + HALF, True)
        return DSElem(-self.t, False)

    def __repr__(self):
        base = f"e(2pi*{self.t})"
        return base + "*j" if self.jflag else base


DS_ONE = DSElem(Fraction(0))
DS_J = DSElem(Fraction(0), True)
DS_I = DSElem(Fraction(1, 4))


# ---------------------------------------------------------------------------
# Q(sqrt 2) scalars and quaternions


@dataclass(frozen=True)
class QSqrt2:
    """The number a + b*sqrt(2) with a, b rational."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __add__(self, o):
        return QSqrt2(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def key(self):
        return (self.a, self.b)

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"({self.a}+{self.b}*sqrt2)"


QS_ZERO = QSqrt2(0, 0)
QS_ONE = QSqrt2(1, 0)
QS_HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)


@dataclass(frozen=True)
class QuatExt:
    """Unit quaternion w + x*i + y*j + z*k with Q(sqrt 2) coordinates."""

    w: QSqrt2
    x: QSqrt2
    y: QSqrt2
    z: QSqrt2

    def __mul__(self, o: "QuatExt") -> "QuatExt":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = o.w, o.x, o.y, o.z
        return QuatExt(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __neg__(self):
        return QuatExt(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self):
        return QuatExt(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> QSqrt2:
        return (
            self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        )

    def inv(self):
        # Unit quaternions only; guarded by the norm invariant.
        if self.norm() != QS_ONE:
            raise ValueError("inverse requires a unit quaternion")
        return self.conjugate()

    def key(self):
        return (self.w.key(), self.x.key(), self.y.key(), self.z.key())

    def __repr__(self):
        return f"[{self.w} {self.x}i {self.y}j {self.z}k]"


def _q(w=0, x=0, y=0, z=0) -> QuatExt:
    mk = lambda v: v if isinstance(v, QSqrt2) else QSqrt2(Fraction(v), 0)
    return QuatExt(mk(w), mk(x), mk(y), mk(z))


Q_ONE = _q(1)
Q_I = _q(0, 1)
Q_J = _q(0, 0, 1)
Q_K = _q(0, 0, 0, 1)
# (1+i)/sqrt(2): an order-8 element of the binary octahedral group.
Q_S = QuatExt(QS_HALF_SQRT2, QS_HALF_SQRT2, QS_ZERO, QS_ZERO)
# (1+i+j+k)/2: an order-6 Hurwitz unit.
Q_W = _q(HALF, HALF, HALF, HALF)


_COS_SIN_8TH = {
    Fraction(0): (QSqrt2(1, 0), QS_ZERO),
    Fraction(1, 8): (QS_HALF_SQRT2, QS_HALF_SQRT2),
    Fraction(1, 4): (QS_ZERO, QSqrt2(1, 0)),
    Fraction(3, 8): (-QS_HALF_SQRT2, QS_HALF_SQRT2),
    Fraction(1, 2): (QSqrt2(-1, 0), QS_ZERO),
    Fraction(5, 8): (-QS_HALF_SQRT2, -QS_HALF_SQRT2),
    Fraction(3, 4): (QS_ZERO, QSqrt2(-1, 0)),
    Fraction(7, 8): (QS_HALF_SQRT2, -QS_HALF_SQRT2),
}


def embed_ds(g: DSElem) -> QuatExt:
    """Embed D_S into the Q(sqrt 2) model.

    Only angles with denominator dividing 8 have cosine and sine in
    Q(sqrt 2); anything else is rejected.
    """
    try:
        c, s = _COS_SIN_8TH[g.t]
    except KeyError:
        raise ValueError(f"angle {g.t} has no Q(sqrt2) coordinates") from None
    if g.jflag:
        # (cos + i sin) * j = cos*j + sin*k
        return QuatExt(QS_ZERO, QS_ZERO, c, s)
    return QuatExt(c, s, QS_ZERO, QS_ZERO)


# ---------------------------------------------------------------------------
# Isometries of S^3: pairs modulo +-(1,1)


@dataclass(frozen=True)
class Isom3:
    """phi(g1, g2) in Isom+(S^3) for DSElem g1, g2, canonicalized modulo the
    kernel <(-1,-1)>: the representative keeps g1's angle in [0, 1/2).
    """

    g1: DSElem
    g2: DSElem

    def __post_init__(self):
        if self.g1.t >= HALF:
            object.__setattr__(self, "g1", -self.g1)
            object.__setattr__(self, "g2", -self.g2)

    def __mul__(self, other: "Isom3") -> "Isom3":
        return Isom3(self.g1 * other.g1, self.g2 * other.g2)

    def inv(self) -> "Isom3":
        return Isom3(self.g1.inv(), self.g2.inv())

    def __repr__(self):
        return format_isom(self)


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
    t1, t2 = Fraction(t1), Fraction(t2)
    return Isom3(DSElem((t1 + t2) / 2), DSElem((t2 - t1) / 2))


def is_L(g: Isom3) -> bool:
    return not g.g1.jflag and not g.g2.jflag


def l_angles(g: Isom3) -> tuple[Fraction, Fraction]:
    """Recover (t1, t2) with g = L(t1, t2); requires is_L(g)."""
    if not is_L(g):
        raise ValueError("not an L-type isometry")
    s1, s2 = g.g1.t, g.g2.t
    return ((s1 - s2) % 1, (s1 + s2) % 1)


def format_isom(g: Isom3) -> str:
    """Print as "L(a/b, c/d)" optionally followed by one of ·J, ·J1, ·J2."""
    f1, f2 = g.g1.jflag, g.g2.jflag
    if f1 and f2:
        tail, base = "·J", Isom3(g.g1 * DS_J.inv(), g.g2 * DS_J.inv())
    elif not f1 and f2:
        tail, base = "·J1", Isom3(g.g1, g.g2 * DS_J.inv())
    elif f1 and not f2:
        tail, base = "·J2", Isom3(g.g1 * DS_J.inv(), g.g2)
    else:
        tail, base = "", g
    t1, t2 = l_angles(base)
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
        this group's element order; multiplication is via representatives.
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
        qmul = lambda a, b: label[self.mul(a, b)]
        qinv = lambda a: label[self.inv(a)]
        return FinGroup(reps, label[self.identity], mul=qmul, inv=qinv)


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
    return close([Q_S, Q_W], 96, identity=Q_ONE, inv=lambda g: g.inv())


def d2_star() -> FinGroup:
    """The quaternion group {+-1, +-i, +-j, +-k} inside O*."""
    return close([Q_I, Q_J], 16, identity=Q_ONE, inv=lambda g: g.inv())
