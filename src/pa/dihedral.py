"""Spherical dihedral orbifold groups Gamma(q/p; d1, d2), their
normalizers in Isom+(S^3), and the isometry groups of the orbifolds
O(q/p; d1, d2).

Gamma = <f, J> with f = L(k1/(p*d2), k2/(p*d1)) and J the coordinatewise
conjugation, a dihedral group of order 2*p*d1*d2, where (k1, k2) satisfies
gcd(p*d2, k1) = 1, gcd(p*d1, k2) = 1 and k2 = q*k1 mod p.  For
(d1, d2) != (1, 1) and away from the trivial theta-orbifold O(0/1;1,2),
the normalizer is N(Gamma) = <L(k1/(2p*d2), k2/(2p*d1)), L(1/2,0),
L(0,1/2), J> and N(Gamma)/Gamma is the isometry group of the orbifold,
(Z_2)^2 generically and D_3 x Z_2 in the trivial-theta exception (computed
over the binary octahedral group in Q(sqrt 2) coordinates).  For
(d1, d2) = (1, 1) the isometry type is decided by pure congruence tests;
the continuous types are returned as symbolic tags only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .orbigraph import canonical_key, make_dihedral
from .quat import (
    FinGroup,
    GroupOverflow,
    J,
    L,
    Q_I,
    Q_J,
    Q_ONE,
    Q_S,
    Q_W,
    close,
    isom_order,
    recognize,
)
from .slopes import Slope, slope

# Isometry-type tags; ":" denotes a semidirect product.
TAG_Z2SQ = "(Z2)^2"
TAG_Z2CUBE = "(Z2)^3"
TAG_D4 = "D4"
TAG_D3xZ2 = "D3xZ2"
TAG_S1_Z2 = "S1:Z2"
TAG_S1_Z2SQ = "S1:(Z2)^2"
TAG_TORUS_Z2 = "(S1xS1):Z2"
TAG_TORUS_Z2SQ = "(S1xS1):(Z2)^2"


@dataclass(frozen=True)
class DihedralParams:
    """Slope and tunnel indices plus a congruence witness (k1, k2)."""

    r: Slope
    d1: int
    d2: int
    k1: int
    k2: int

    def __post_init__(self):
        r = slope(self.r)
        object.__setattr__(self, "r", r)
        if r.is_infinite:
            raise ValueError("dihedral parameters need a finite slope")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("d1, d2 must be positive")
        if gcd(self.d1, self.d2) != 1:
            raise ValueError(f"d1, d2 must be coprime, got ({self.d1},{self.d2})")
        p, q = r.p, r.q
        if gcd(p * self.d2, self.k1) != 1:
            raise ValueError(f"gcd(p*d2, k1) != 1 for k1={self.k1}")
        if gcd(p * self.d1, self.k2) != 1:
            raise ValueError(f"gcd(p*d1, k2) != 1 for k2={self.k2}")
        if (self.k2 - q * self.k1) % p != 0:
            raise ValueError("k2 = q*k1 mod p fails")

    @property
    def n(self) -> int:
        return self.r.p * self.d1 * self.d2


def is_trivial_theta(r: Slope, d1: int, d2: int) -> bool:
    """O(0/1;1,2) up to the order of the tunnel indices."""
    return r.p == 1 and {d1, d2} == {1, 2}


def solve_k(r, d1: int, d2: int) -> tuple[int, int]:
    """Least (k1, k2) in lexicographic order with gcd(p*d2, k1) = 1,
    gcd(p*d1, k2) = 1 and k2 = q*k1 mod p.

    k1 is the least positive integer prime to p*d2.  k2 then climbs the
    residue class of q*k1 mod p from its least positive member.  That class
    is prime to p (q and k1 both are), so by the CRT it meets an integer
    prime to p*d1 within its first d1 members; the first one met is the
    least k2 for this k1, and hence for any k1.
    """
    r = slope(r)
    if r.is_infinite:
        raise ValueError("solve_k needs a finite slope")
    if d1 < 1 or d2 < 1:
        raise ValueError("d1, d2 must be positive")
    if gcd(d1, d2) != 1:
        raise ValueError("d1, d2 must be coprime")
    p, q = r.p, r.q
    k1 = 1
    while gcd(p * d2, k1) != 1:
        k1 += 1
    k2 = (q * k1 - 1) % p + 1
    while gcd(p * d1, k2) != 1:
        k2 += p
    return (k1, k2)


def params_for(r, d1: int, d2: int) -> DihedralParams:
    return DihedralParams(r, d1, d2, *solve_k(r, d1, d2))


def gamma(params: DihedralParams) -> tuple[FinGroup, dict]:
    """The orbifold group Gamma = <f, J> with its verification certificate.

    The certificate records |Gamma| = 2n, order(f) = n, order(J) = 2 and
    the dihedral relation J f J^-1 = f^-1, all checked element-exactly.
    """
    p, d1, d2 = params.r.p, params.d1, params.d2
    n = params.n
    f = L(Fraction(params.k1, p * d2), Fraction(params.k2, p * d1))
    group = close([f, J], 4 * n)
    cert = {
        "order": len(group),
        "expected_order": 2 * n,
        "order_f": isom_order(f),
        "order_J": isom_order(J),
        "dihedral_relation": J * f * J.inv() == f.inv(),
    }
    if len(group) != 2 * n:
        raise GroupOverflow(
            f"|Gamma| = {len(group)} != 2n = {2 * n}; arithmetic bug"
        )
    return group, cert


def normalizer(params: DihedralParams, group: FinGroup) -> FinGroup:
    """N(Gamma) = <L(k1/2pd2, k2/2pd1), L(1/2,0), L(0,1/2), J>, verified by
    ``FinGroup.is_normal`` to normalize ``group``, the Gamma of ``params``
    (ArithmeticError otherwise).

    Defined away from (d1, d2) = (1, 1) and the trivial theta-orbifold.
    """
    r, d1, d2 = params.r, params.d1, params.d2
    if (d1, d2) == (1, 1):
        raise ValueError("normalizer formula needs (d1,d2) != (1,1)")
    if is_trivial_theta(r, d1, d2):
        raise ValueError(
            "the trivial theta-orbifold is exceptional; use exceptional_isom()"
        )
    p = r.p
    gens = [
        L(Fraction(params.k1, 2 * p * d2), Fraction(params.k2, 2 * p * d1)),
        L(Fraction(1, 2), 0),
        L(0, Fraction(1, 2)),
        J,
    ]
    norm = close(gens, 16 * params.n)
    if not norm.is_normal(group):
        raise ArithmeticError(
            f"claimed N(Gamma) of ({r};{d1},{d2}) fails to normalize Gamma"
        )
    return norm


# ---------------------------------------------------------------------------
# The exceptional trivial-theta computation, over Q(sqrt 2) pairs


def _pair_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def _pair_inv(a):
    return (a[0].inv(), a[1].inv())


def exceptional_isom() -> tuple[FinGroup, dict]:
    """Isometry group of the trivial theta-orbifold O(0/1;1,2).

    Works with raw pairs (q1, q2) in S^3 x S^3 (no +-(1,1) quotient):
    Gamma~ = <(i,i), (j,j)> has 8 elements, its normalizer is
    {(u, +-u) : u in O*} with 96 elements (image of order 48 in
    Isom+(S^3)), and the quotient N(Gamma~)/Gamma~ of order 12 is the
    isometry group, recognized as D3 x Z2.
    """
    one = (Q_ONE, Q_ONE)
    gamma_raw = close(
        [(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=_pair_mul, inv=_pair_inv
    )
    n_raw = close(
        [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)],
        192,
        identity=one,
        mul=_pair_mul,
        inv=_pair_inv,
    )
    quotient = n_raw.quotient(gamma_raw)
    isometry_classes = {
        min((g[0].key(), g[1].key()), ((-g[0]).key(), (-g[1]).key())) for g in n_raw
    }
    details = {
        "gamma_pairs": len(gamma_raw),
        "gamma_isometries": len(gamma_raw) // 2,
        "normalizer_pairs": len(n_raw),
        "normalizer_isometries": len(isometry_classes),
        "quotient_order": len(quotient),
        "type": recognize(quotient),
    }
    if details != {
        "gamma_pairs": 8,
        "gamma_isometries": 4,
        "normalizer_pairs": 96,
        "normalizer_isometries": 48,
        "quotient_order": 12,
        "type": TAG_D3xZ2,
    }:
        raise ArithmeticError(f"exceptional computation inconsistent: {details}")
    return quotient, details


# ---------------------------------------------------------------------------
# Isometry group classification


def _isom_tag_d1(r: Slope) -> str:
    """Isom+(O(q/p;1,1)) by pure congruence evaluation."""
    p, q = r.p, r.q
    if p == 1:
        return TAG_TORUS_Z2
    if p == 2:
        return TAG_TORUS_Z2SQ
    if (q - 1) % p == 0 or (q + 1) % p == 0:
        return TAG_S1_Z2 if p % 2 == 1 else TAG_S1_Z2SQ
    if p % 2 == 1:
        return TAG_D4 if (q * q - 1) % p == 0 else TAG_Z2SQ
    if (q * q - 1) % (2 * p) == 0:
        return TAG_Z2CUBE
    if (q * q - 1 - p) % (2 * p) == 0:
        return TAG_D4
    return TAG_Z2SQ


class Orbifold(NamedTuple):
    """One dihedral query O(q/p; d1, d2), answered in full."""

    params: DihedralParams
    gamma: FinGroup
    cert: dict
    isom: str
    quotient: FinGroup | None


@lru_cache(maxsize=64)
def orbifold(r, d1: int, d2: int) -> Orbifold:
    """The witness (k1, k2), Gamma (built once) with its certificate, the
    isometry type of O(q/p; d1, d2) and the quotient N(Gamma)/Gamma.

    (d1, d2) != (1, 1): the type is (Z2)^2, except D3 x Z2 for the trivial
    theta-orbifold; the quotient group cross-checks the tag.  For
    (d1, d2) = (1, 1) the tag comes from congruence conditions only and the
    quotient is None (some of these types are continuous).  The cache holds
    whole queries; a cached quotient holds its table, not N(Gamma).
    """
    params = params_for(r, d1, d2)
    r = params.r
    group, cert = gamma(params)
    if (d1, d2) == (1, 1):
        return Orbifold(params, group, cert, _isom_tag_d1(r), None)
    if is_trivial_theta(r, d1, d2):
        quotient, _ = exceptional_isom()
        return Orbifold(params, group, cert, TAG_D3xZ2, quotient)
    quotient = normalizer(params, group).quotient(group)
    tag = recognize(quotient)
    if tag != TAG_Z2SQ:
        raise ArithmeticError(
            f"N(Gamma)/Gamma for ({r};{d1},{d2}) is {tag}, expected {TAG_Z2SQ}"
        )
    return Orbifold(params, group, cert, TAG_Z2SQ, quotient)


def isom_plus(r, d1: int, d2: int) -> tuple[str, FinGroup | None]:
    """Isometry type of O(q/p; d1, d2) and N(Gamma)/Gamma (None for
    (d1, d2) = (1, 1)): the (isom, quotient) view of ``orbifold``."""
    record = orbifold(r, d1, d2)
    return (record.isom, record.quotient)


# ---------------------------------------------------------------------------
# Oriented-orbifold uniqueness


def same_oriented(a, b) -> bool:
    """Whether parameter triples (r, d1, d2) define the same oriented
    orbifold O(q/p;d1,d2): p = p' and either (q = q' mod p with
    (d1,d2) = (d1',d2')) or (qq' = 1 mod p with (d1,d2) = (d2',d1')).

    ``orbigraph.canonical_key`` picks the least (q mod p, d1, d2) of the two
    forms, so two triples have the same key exactly when this rule holds.
    For group order 2*p*d1*d2 = 4 (n = 2) the exceptional identifications,
    p = p' = 1 with {d1,d2} = {d1',d2'} = {1,2} and p = p' = 2 with all
    tunnel indices 1, are instances of the same rule.
    """
    return canonical_key(make_dihedral(*a)) == canonical_key(make_dihedral(*b))
