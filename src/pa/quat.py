"""Exact arithmetic in Isom+(S^3) and in the unit quaternions.

Everything lives in two element models, each stored as one canonical tuple
of integers, so that products, equality and hashing are integer operations.
Pairs (q1, q2) of unit quaternions represent orientation-preserving
isometries of S^3 via phi(q1, q2)(q) = q1 * q * q2^{-1}, whose kernel is
<(-1, -1)>:

* ``Isom3`` -- phi(q1, q2) for q1, q2 in the subgroup D_S = S^1 u S^1*j,
  each e^{2pi*i*t} or e^{2pi*i*t}*j with a rational angle t.  The isometry
  is the key (D, a1, j1, a2, j2) with angles a1/D and a2/D, canonical
  modulo the kernel; ``Isom3(...)`` is the one constructor that builds it.
  Rational angles cover every construction except the binary octahedral
  group.

* ``QuatExt`` -- unit quaternions with coordinates in (1/2)Z[sqrt 2], which
  holds the binary octahedral group (Conway & Smith, *On Quaternions and
  Octonions*, ch. 3-4).  Each coordinate is (A + B*sqrt 2)/2, and a
  quaternion is built from and stored as its eight integers
  (A_w, A_x, A_y, A_z, B_w, B_x, B_y, B_z).  A product is formed over the
  integers and halved exactly; a product that leaves (1/2)Z[sqrt 2] raises
  ArithmeticError instead of being rounded.  Isometries in this model are
  raw pairs of ``QuatExt``, with no kernel reduction.

Elements are immutable and compare and hash as their keys.  ``Fraction``
appears only where a rational angle is parsed or printed: ``L``,
``format_isom`` and the printed ``QuatExt`` coordinates.  ``L`` reads
``format_isom``'s printed ``L(t1, t2)`` back; no module of ``pa`` calls
it, and ``pa.dihedral`` builds its keys with ``Isom3(...)`` from integers.
The groups these elements generate are closed, compared and recognized by
``pa.groups``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Not used here: the benchmark's tracer patches ``quat.FinGroup.quotient``
# by this name.
from .groups import FinGroup

# ``tuple.__new__``, looked up once: the products and the Isom3 inverse
# build their results with it, past the validating constructors.
_new = tuple.__new__


def _exact(v) -> Fraction:
    """v as a Fraction; only integers and Fractions are accepted."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"exact value expected (int or Fraction), got {v!r}")
    return Fraction(v)


# ---------------------------------------------------------------------------
# Quaternions over (1/2)Z[sqrt 2]


def _coord_str(A: int, B: int) -> str:
    """The coordinate (A + B*sqrt 2)/2 as printed: "a", "b*sqrt2" or
    "(a+b*sqrt2)" with a = A/2 and b = B/2 in lowest terms."""
    a, b = Fraction(A, 2), Fraction(B, 2)
    if not b:
        return str(a)
    if not a:
        return f"{b}*sqrt2"
    return f"({a}+{b}*sqrt2)"


class QuatExt(tuple):
    """Unit quaternion w + x*i + y*j + z*k with coordinates in (1/2)Z[sqrt 2],
    built from and stored as the eight integers
    (A_w, A_x, A_y, A_z, B_w, B_x, B_y, B_z): each coordinate is
    (A + B*sqrt 2)/2."""

    __slots__ = ()

    def __new__(cls, *twice: int):
        if len(twice) != 8 or not all(isinstance(v, int) for v in twice):
            raise TypeError(f"QuatExt takes eight integers, got {twice!r}")
        return tuple.__new__(cls, twice)

    def __mul__(self, o: "QuatExt") -> "QuatExt":
        # (a + b*sqrt2)(c + d*sqrt2) over integer quaternions a, b, c, d of
        # twice the coordinates, with Hamilton products H: the rational part
        # H(a, c) + 2H(b, d) and the sqrt2 part H(a, d) + H(b, c) are four
        # times the product's.
        a0, a1, a2, a3, b0, b1, b2, b3 = self
        c0, c1, c2, c3, d0, d1, d2, d3 = o
        r0 = a0 * c0 - a1 * c1 - a2 * c2 - a3 * c3 + 2 * (b0 * d0 - b1 * d1 - b2 * d2 - b3 * d3)
        r1 = a0 * c1 + a1 * c0 + a2 * c3 - a3 * c2 + 2 * (b0 * d1 + b1 * d0 + b2 * d3 - b3 * d2)
        r2 = a0 * c2 - a1 * c3 + a2 * c0 + a3 * c1 + 2 * (b0 * d2 - b1 * d3 + b2 * d0 + b3 * d1)
        r3 = a0 * c3 + a1 * c2 - a2 * c1 + a3 * c0 + 2 * (b0 * d3 + b1 * d2 - b2 * d1 + b3 * d0)
        r4 = a0 * d0 - a1 * d1 - a2 * d2 - a3 * d3 + b0 * c0 - b1 * c1 - b2 * c2 - b3 * c3
        r5 = a0 * d1 + a1 * d0 + a2 * d3 - a3 * d2 + b0 * c1 + b1 * c0 + b2 * c3 - b3 * c2
        r6 = a0 * d2 - a1 * d3 + a2 * d0 + a3 * d1 + b0 * c2 - b1 * c3 + b2 * c0 + b3 * c1
        r7 = a0 * d3 + a1 * d2 - a2 * d1 + a3 * d0 + b0 * c3 + b1 * c2 - b2 * c1 + b3 * c0
        if (r0 | r1 | r2 | r3 | r4 | r5 | r6 | r7) & 1:
            raise ArithmeticError(f"product of {self} and {o} leaves (1/2)Z[sqrt2]")
        return _new(
            QuatExt, (r0 >> 1, r1 >> 1, r2 >> 1, r3 >> 1, r4 >> 1, r5 >> 1, r6 >> 1, r7 >> 1)
        )

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

    def inv(self):
        # Unit quaternions only; guarded by the norm invariant.
        if self._norm4() != (4, 0):
            raise ValueError("inverse requires a unit quaternion")
        return self.conjugate()

    def __repr__(self):
        w, x, y, z = (_coord_str(self[i], self[i + 4]) for i in range(4))
        return f"[{w} {x}i {y}j {z}k]"


Q_ONE = QuatExt(2, 0, 0, 0, 0, 0, 0, 0)
Q_I = QuatExt(0, 2, 0, 0, 0, 0, 0, 0)
Q_J = QuatExt(0, 0, 2, 0, 0, 0, 0, 0)
# (1+i)/sqrt(2): an order-8 element of the binary octahedral group.
Q_S = QuatExt(0, 0, 0, 0, 1, 1, 0, 0)
# (1+i+j+k)/2: an order-6 Hurwitz unit.
Q_W = QuatExt(1, 1, 1, 1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Isometries of S^3: pairs modulo +-(1,1)


class Isom3(tuple):
    """phi(q1, q2) in Isom+(S^3) for q1, q2 in D_S, as its key modulo the
    kernel <(-1,-1)>.

    ``Isom3(D, c1, j1, c2, j2)`` is the pair q1 = e^{2pi*i*c1/D} * j^j1 and
    q2 = e^{2pi*i*c2/D} * j^j2 for any integers c1, c2 and D >= 1.  It is
    stored as the canonical key (D, a1, j1, a2, j2): an odd D is doubled,
    the kernel is removed by adding D/2 to both angles when c1/D mod 1 is
    at least 1/2, so that a1/D lies in [0, 1/2), the key is reduced to
    gcd(D, a1, a2) = 1, and the j-flags are stored as bools.  Keys built
    this way are equal exactly when the isometries are.
    """

    __slots__ = ()

    def __new__(cls, D: int, c1: int, j1: bool, c2: int, j2: bool):
        if not (isinstance(D, int) and isinstance(c1, int) and isinstance(c2, int)):
            raise TypeError(f"Isom3 takes integer angles, got {(D, c1, c2)!r}")
        if D < 1:
            raise ValueError(f"Isom3 denominator must be at least 1, got {D}")
        if D & 1:
            D, c1, c2 = 2 * D, 2 * c1, 2 * c2
        h = D >> 1
        c1 %= D
        if c1 >= h:
            c1 -= h
            c2 += h
        c2 %= D
        g = gcd(D, c1, c2)
        if g != 1:
            D, c1, c2 = D // g, c1 // g, c2 // g
        return tuple.__new__(cls, (D, c1, bool(j1), c2, bool(j2)))

    def __mul__(self, other: "Isom3") -> "Isom3":
        # The D_S product in each coordinate, over a common even denominator:
        # the larger of D and E when it is even and a multiple of the other
        # (most products in a closure), else lcm(2, D, E).
        D, a1, j1, a2, j2 = self
        E, b1, k1, b2, k2 = other
        if E == 1 and not (j1 and k1 or j2 and k2):
            # other is 1, J, J1 or J2 (b1 = b2 = 0), and no j meets a j: the
            # steps below would leave the canonical a1 and a2 as they are (an
            # odd D is doubled and halved back), so only the flags change.
            return _new(Isom3, (D, a1, j1 ^ k1, a2, j2 ^ k2))
        if D != E or D & 1:
            if not D % E and not D & 1:
                t = D // E
                b1, b2 = b1 * t, b2 * t
            elif not E % D and not E & 1:
                s = E // D
                D, a1, a2 = E, a1 * s, a2 * s
            else:
                M = lcm(2, D, E)
                s, t = M // D, M // E
                D, a1, a2, b1, b2 = M, a1 * s, a2 * s, b1 * t, b2 * t
        # The constructor's reduction, inline: this is the innermost loop of
        # every closure.
        h = D >> 1
        c1 = (a1 - b1 + h * k1 if j1 else a1 + b1) % D
        c2 = a2 - b2 + h * k2 if j2 else a2 + b2
        if c1 >= h:
            c1 -= h
            c2 += h
        c2 %= D
        g = gcd(D, c1, c2)
        if g != 1:
            D, c1, c2 = D // g, c1 // g, c2 // g
        return _new(Isom3, (D, c1, j1 ^ k1, c2, j2 ^ k2))

    def inv(self) -> "Isom3":
        # e^{2pi*i*t}^-1 = e^{-2pi*i*t} and (e^{2pi*i*t}*j)^-1 = e^{2pi*i(t+1/2)}*j.
        # Over an even D the angles are -a or a + D/2, reduced as the
        # constructor reduces them; an odd D goes through the constructor
        # over 2D.
        D, a1, j1, a2, j2 = self
        if D & 1:
            return Isom3(
                2 * D, 2 * a1 + D if j1 else -2 * a1, j1, 2 * a2 + D if j2 else -2 * a2, j2
            )
        h = D >> 1
        c1 = (a1 + h if j1 else -a1) % D
        c2 = a2 + h if j2 else -a2
        if c1 >= h:
            c1 -= h
            c2 += h
        c2 %= D
        g = gcd(D, c1, c2)
        if g != 1:
            D, c1, c2 = D // g, c1 // g, c2 // g
        return _new(Isom3, (D, c1, j1, c2, j2))

    def __repr__(self):
        return format_isom(self)


ISOM_ID = Isom3(1, 0, False, 0, False)
J = Isom3(1, 0, True, 0, True)    # (z1, z2) -> (conj z1, conj z2)
J1 = Isom3(1, 0, False, 0, True)  # (z1, z2) -> (z2, -z1)
J2 = Isom3(1, 0, True, 0, False)  # (z1, z2) -> (-conj z2, conj z1)


def L(t1, t2) -> Isom3:
    """The isometry (z1, z2) -> (e^{2pi*i*t1} z1, e^{2pi*i*t2} z2).

    Realized as phi(eta1, eta2) with eta1 = e^{pi*i(t1+t2)} and
    eta2 = e^{pi*i(t2-t1)}, which satisfies (eta1*conj(eta2), eta1*eta2)
    = (e^{2pi*i*t1}, e^{2pi*i*t2}).  Over a common denominator D,
    t1 = x/D and t2 = y/D, the two angles are (x + y)/2D and (y - x)/2D.
    """
    t1, t2 = _exact(t1), _exact(t2)
    D = lcm(t1.denominator, t2.denominator)
    x = t1.numerator * (D // t1.denominator)
    y = t2.numerator * (D // t2.denominator)
    return Isom3(2 * D, x + y, False, y - x, False)


_J_TAILS = {
    (False, False): "",
    (True, True): "·J",
    (False, True): "·J1",
    (True, False): "·J2",
}


def format_isom(g: Isom3) -> str:
    """Print as "L(t1, t2)" optionally followed by one of ·J, ·J1, ·J2."""
    # Right multiplication by j^-1 clears a coordinate's j and keeps its
    # angle, so the L-part L(t1, t2) has the angles (a1 - a2)/D and
    # (a1 + a2)/D of g's key.
    D, a1, j1, a2, j2 = g
    t1, t2 = Fraction((a1 - a2) % D, D), Fraction((a1 + a2) % D, D)
    return f"L({t1}, {t2})" + _J_TAILS[j1, j2]


def group_to_json(G) -> list[str]:
    """Element list as printable strings, in the group's element order."""
    return [format_isom(g) if isinstance(g, Isom3) else repr(g) for g in G]
