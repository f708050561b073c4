"""Slope arithmetic for 2-bridge links.

A 2-bridge link K(q/p) is encoded by a reduced slope q/p in Q u {inf}
(p >= 1, gcd(p, q) = 1; infinity is 1/0).  This module computes component
counts, hyperbolicity, continued-fraction expansions, the unoriented
equivalence between slopes, the slope substitution q/p -> q^/p used
when passing from an index to its double, and the canonical key of a
dihedral orbifold O(q/p; d+, d-), which is slope arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class Slope:
    """A reduced fraction q/p with p >= 0; p = 0 means infinity (q = 1)."""

    q: int
    p: int

    def __post_init__(self):
        q, p = self.q, self.p
        if p < 0:
            q, p = -q, -p
        if p == 0:
            if q == 0:
                raise ValueError("0/0 is not a slope")
            q = 1
        else:
            g = gcd(q, p)
            q, p = q // g, p // g
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def is_infinite(self) -> bool:
        return self.p == 0

    def __str__(self):
        return "inf" if self.is_infinite else f"{self.q}/{self.p}"


INF_SLOPE = Slope(1, 0)


def slope(q, p=None) -> Slope:
    if p is None:
        if isinstance(q, Slope):
            return q
        if isinstance(q, Fraction):
            return Slope(q.numerator, q.denominator)
        if isinstance(q, int):
            return Slope(q, 1)
        return parse_slope(q)
    return Slope(q, p)


def parse_slope(text: str) -> Slope:
    """Parse "q/p" (integers, p != 0 after reduction is allowed via "1/0")
    or "inf"."""
    s = text.strip()
    if s == "inf":
        return INF_SLOPE
    if "/" in s:
        a, _, b = s.partition("/")
        try:
            return Slope(int(a), int(b))
        except ValueError as e:
            raise ValueError(f"bad slope {text!r}: {e}") from None
    try:
        return Slope(int(s), 1)
    except ValueError:
        raise ValueError(f"bad slope {text!r}") from None


def components(r: Slope) -> int:
    """Number of link components: 1 if p is odd, else 2 (including inf)."""
    if r.is_infinite:
        return 2
    return 1 if r.p % 2 == 1 else 2


def is_hyperbolic(r: Slope) -> bool:
    """K(q/p) is hyperbolic iff q is not congruent to +-1 mod p.

    Torus links (q = +-1 mod p) and the trivial knot (p = 1) are the
    non-hyperbolic finite-slope links; the infinite slope is rejected.
    """
    if r.is_infinite:
        raise ValueError("is_hyperbolic requires a finite slope")
    return (r.q - 1) % r.p != 0 and (r.q + 1) % r.p != 0


def continued_fraction(r: Slope) -> list[int]:
    """All-positive continued fraction [a1, ..., an] of r in (0, 1], meaning
    r = 1/(a1 + 1/(a2 + ... + 1/an)); r = 0 gives []."""
    if r.is_infinite:
        raise ValueError("no continued fraction for inf")
    if r.q == 0:
        return []
    if not (0 < Fraction(r.q, r.p) <= 1):
        raise ValueError("continued_fraction needs 0 < q/p <= 1")
    terms = []
    a, b = r.p, r.q
    while b:
        terms.append(a // b)
        a, b = b, a % b
    return terms


@dataclass(frozen=True)
class EquivalenceVerdict:
    """How K(q/p) and K(q'/p') compare as unoriented links.

    ``preserving``/``reversing`` report the existence of an orientation
    preserving/reversing homeomorphism of (S^3, K).  ``bridge_swap`` is set
    when the preserving equivalence goes through the q*q' = 1 mod p clause,
    which maps (K, tau+, tau-) to (K', tau-, tau+).  ``involution_class``
    refines the q' = q clause by working mod 2p: "vertical-preserved" when
    q' = q mod 2p, "planar-swapped" when q' = q + p mod 2p, else "n/a".
    """

    preserving: bool
    reversing: bool
    bridge_swap: bool
    involution_class: str


def equivalence(r1: Slope, r2: Slope) -> EquivalenceVerdict:
    if r1.is_infinite or r2.is_infinite:
        same = r1.is_infinite and r2.is_infinite
        return EquivalenceVerdict(same, same, False, "n/a")
    p, q, q2 = r1.p, r1.q, r2.q
    if r1.p != r2.p:
        return EquivalenceVerdict(False, False, False, "n/a")
    direct = (q - q2) % p == 0
    swap = (q * q2 - 1) % p == 0
    preserving = direct or swap
    reversing = (q + q2) % p == 0 or (q * q2 + 1) % p == 0
    invclass = "n/a"
    if direct:
        if (q - q2) % (2 * p) == 0:
            invclass = "vertical-preserved"
        elif (q - q2 - p) % (2 * p) == 0:
            invclass = "planar-swapped"
    return EquivalenceVerdict(preserving, reversing, swap and not direct, invclass)


def hat(r: Slope) -> Slope:
    """The slope q^/p^ of the doubled-index substitution.

    With q first normalized into [0, 2p): for p odd the value is (q/2)/p
    when q is even and ((p+q)/2)/p when q is odd; for p even it is
    q/(p/2).
    """
    if r.is_infinite:
        raise ValueError("hat needs a finite slope")
    p = r.p
    q = r.q % (2 * p)
    if p % 2 == 1:
        half = q // 2 if q % 2 == 0 else (p + q) // 2
        return Slope(half, p)
    return Slope(q, p // 2)


def canonical(r: Slope) -> Slope:
    """Least representative of the preserving-equivalence class of q/p:
    the smaller of q mod p and q^{-1} mod p over p."""
    if r.is_infinite:
        return INF_SLOPE
    p = r.p
    q = r.q % p if p > 1 else 0
    if p <= 1:
        return Slope(q, p)
    qinv = pow(q, -1, p)
    return Slope(min(q, qinv), p)


def dihedral_key(r, d_plus: int, d_minus: int) -> str:
    """The canonical key O[q/p;d+,d-] of the dihedral orbifold O(r; d+, d-),
    from the slope and the tunnel weights alone.

    O(q/p;d+,d-) = O(q'/p;d-,d+) for qq' = 1 mod p, and the key picks the
    lexicographically least (q mod p, d+, d-) of the two triples.  The
    weights are not checked: ``dihedral.orbifold`` and ``make_dihedral``
    refuse a d <= 0 or a common factor before a key is asked for.
    """
    r = slope(r)
    if r.is_infinite:
        raise ValueError("O(r;d+,d-) needs a finite slope")
    p = r.p
    q = r.q % p
    qc, c1, c2 = min((q, d_plus, d_minus), (pow(q, -1, p), d_minus, d_plus))
    return f"O[{qc}/{p};{c1},{c2}]"
