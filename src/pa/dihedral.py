"""Spherical dihedral orbifold groups Gamma(q/p; d1, d2), their
normalizers in Isom+(S^3), and the isometry groups of the orbifolds
O(q/p; d1, d2).

Gamma = <f, J> with f = L(k1/(p*d2), k2/(p*d1)) and J the coordinatewise
conjugation, a dihedral group of order 2n, n = p*d1*d2, where (k1, k2)
satisfies gcd(p*d2, k1) = 1, gcd(p*d1, k2) = 1 and k2 = q*k1 mod p.  For
(d1, d2) != (1, 1) and away from the trivial theta-orbifold O(0/1;1,2),
the normalizer is N(Gamma) = <L(k1/(2p*d2), k2/(2p*d1)), L(1/2,0),
L(0,1/2), J> and N(Gamma)/Gamma is the isometry group of the orbifold,
(Z_2)^2 generically and D_3 x Z_2 in the trivial-theta exception (computed
over the binary octahedral group in Q(sqrt 2) coordinates).  For
(d1, d2) = (1, 1) the isometry type is decided by pure congruence tests;
the continuous types are returned as symbolic tags only.

Every element of Gamma and N(Gamma) is L(s) or L(s)*J, and J*L(s)*J = L(-s),
so each is A x| <J> for a finite subgroup A of the torus (Q/Z)^2.
``orbifold`` answers a query from these torus lattices: orders, membership
and the quotient N/Gamma = A_N/A_Gamma come from 2x2 Hermite forms and a
coset search over torus vectors, and only the certificate's order(f) and
dihedral relation are formed as isometries.  order(f) is read from its
known multiple n in O(log n) products, from the primes of p, d1 and d2;
order(J) is read once, at import.
``gamma_lattice`` is the first half of ``orbifold``: the witness, Gamma's
certificate and A_Gamma, without the isometry group, for a caller that
reads only |Gamma|.  The rotations of Gamma and N(Gamma) start as integer
torus vectors, (k1*d1, k2*d2), (n, 0) and (0, n) over 2n: the lattices are
spanned from them, and f and N(Gamma)'s generators are ``Isom3`` keys built
from them; this module forms no ``Fraction``.  ``gamma`` closes Gamma coset
by coset (``groups.extend``), and ``normalizer`` finds N(Gamma)/Gamma from Gamma's
cosets (``FinGroup.quotient``) without listing N(Gamma); the verification
checks use them as the independent evidence.
The labels agree by one code path, ``groups.coset_search``, which both
``torus_quotient`` (over torus vectors) and ``normalizer`` (over
isometries) run; each places every product itself, by a lattice key or by
membership in Gamma.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import gcd
from types import MappingProxyType
from typing import NamedTuple

from .groups import (
    FinGroup, GroupOverflow, close, coset_search, extend, order_from_multiple, quotient_group,
    recognize,
)
from .quat import ISOM_ID, Isom3, J, Q_I, Q_J, Q_ONE, Q_S, Q_W
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

# The largest p, d1 or d2 that ``orbifold`` factors: trial division then
# takes at most about 10**6 steps per entry.
FACTOR_BOUND = 10**12


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
        raise ValueError("O(r;d+,d-) needs a finite slope")
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


def _torus_isom(x: int, y: int, D: int) -> Isom3:
    """L(x/D, y/D), built from integers: by ``quat.L``'s rule its key is
    over 2D with the angles x + y and y - x."""
    return Isom3(2 * D, x + y, False, y - x, False)


# order(J) and J^-1, the same in every certificate.
_ORDER_J = order_from_multiple(J, 2, (2,), ISOM_ID)
_J_INV = J.inv()


def _normalizer_vectors(params: DihedralParams) -> list[tuple[int, int]]:
    """The generators of N(Gamma) other than J, in ``normalizer``'s order, as
    integer vectors over 2n: (k1*d1, k2*d2) for L(k1/(2p*d2), k2/(2p*d1)),
    then (n, 0) and (0, n) for the half turns L(1/2, 0) and L(0, 1/2)."""
    n = params.n
    return [(params.k1 * params.d1, params.k2 * params.d2), (n, 0), (0, n)]


def _rotation(params: DihedralParams) -> Isom3:
    """The generator f = L(k1/(p*d2), k2/(p*d1)) of Gamma, whose angles are
    k1*d1/n and k2*d2/n: the first normalizer vector, over n."""
    return _torus_isom(params.k1 * params.d1, params.k2 * params.d2, params.n)


def _normalizer_rotations(params: DihedralParams) -> list[Isom3]:
    """``_normalizer_vectors`` as the isometries L(v/2n)."""
    M = 2 * params.n
    return [_torus_isom(x, y, M) for x, y in _normalizer_vectors(params)]


def _prime_factors(m: int) -> list[int]:
    """The distinct primes of m >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def _certificate(f: Isom3, order: int, order_f, n: int) -> Mapping:
    """|Gamma| = ``order`` against 2n, with ``order_f``, order(J) and the
    dihedral relation J f J^-1 = f^-1 checked element-exactly; read-only.
    order(J) and J^-1 are computed once, at import."""
    return MappingProxyType({
        "order": order,
        "expected_order": 2 * n,
        "order_f": order_f,
        "order_J": _ORDER_J,
        "dihedral_relation": J * f * _J_INV == f.inv(),
    })


def gamma(params: DihedralParams) -> tuple[FinGroup, Mapping]:
    """The orbifold group Gamma = <f, J>, closed coset by coset: <f> first,
    then extended by J (``groups.extend``), with its verification
    certificate.

    The certificate records |Gamma| = 2n, order(f) = |<f>| = n, order(J) = 2
    and the dihedral relation J f J^-1 = f^-1, all checked element-exactly.
    """
    n = params.n
    f = _rotation(params)
    cyclic = close([f], 2 * n, identity=ISOM_ID)
    group = extend(cyclic, [J], 4 * n)
    cert = _certificate(f, len(group), len(cyclic), n)
    if len(group) != 2 * n:
        raise GroupOverflow(
            f"|Gamma| = {len(group)} != 2n = {2 * n}; arithmetic bug"
        )
    return group, cert


def normalizer(params: DihedralParams, group: FinGroup) -> FinGroup:
    """N(Gamma)/Gamma for N(Gamma) = <L(k1/2pd2, k2/2pd1), L(1/2,0),
    L(0,1/2), J>, verified to normalize ``group``, the Gamma of ``params``
    (ArithmeticError otherwise).

    The quotient is ``group.quotient`` of the four generators: coset
    representatives found from Gamma's cosets, N(Gamma) never listed, and
    |N(Gamma)| = |Gamma| * |quotient| (GroupOverflow past 16n).  The
    generators contain f, their first squared, so N(Gamma) is theirs alone.
    Defined away from (d1, d2) = (1, 1) and the trivial theta-orbifold.
    """
    r, d1, d2 = params.r, params.d1, params.d2
    if (d1, d2) == (1, 1):
        raise ValueError("normalizer formula needs (d1,d2) != (1,1)")
    if is_trivial_theta(r, d1, d2):
        raise ValueError(
            "the trivial theta-orbifold is exceptional; use exceptional_isom()"
        )
    declared = (*_normalizer_rotations(params), J)
    try:
        return group.quotient(declared, 16 * params.n)
    except ValueError as err:
        raise ArithmeticError(
            f"claimed N(Gamma) of ({r};{d1},{d2}) fails to normalize Gamma"
        ) from err


# ---------------------------------------------------------------------------
# Gamma and N(Gamma) as torus lattices: Hermite forms in place of closures
# (Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.4)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u*a + v*b, for a > 0 and b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        quo, rem = divmod(a, b)
        a, b = b, rem
        u0, u1 = u1, u0 - quo * u1
        v0, v1 = v1, v0 - quo * v1
    return a, u0, v0


class TorusLattice(NamedTuple):
    """A subgroup A of ((1/M)Z/Z)^2, kept as the Hermite form of the lattice
    M*A + M*Z^2 in Z^2: the rows (a, b) and (0, c) with 0 <= b < c span it,
    and a, c divide M, so |A| = M^2/(a*c)."""

    M: int
    a: int
    b: int
    c: int

    @classmethod
    def spanned(cls, vectors, M: int) -> "TorusLattice":
        """The subgroup spanned by the integer vectors v, read as v/M.

        Each vector (x, y) enters by the unimodular step that replaces the
        row (a, b) by u*(a, b) + w*(x, y), u*a + w*x = g = gcd(a, x), and
        folds the second coordinate of (x/g)*(a, b) - (a/g)*(x, y), whose
        first coordinate is 0, into c.
        """
        a, b, c = M, 0, M
        for x, y in vectors:
            x, y = x % M, y % M
            g, u, w = _xgcd(a, x)
            a, b, c = g, u * b + w * y, gcd(c, x // g * b - a // g * y)
            b %= c
        return cls(M, a, b, c)

    @property
    def order(self) -> int:
        """|A|, which may exceed what ``len`` can return."""
        return self.M * self.M // (self.a * self.c)

    def key(self, x: int, y: int) -> tuple[int, int]:
        """The canonical representative of (x, y)/M modulo A: two vectors
        have the same key exactly when their difference lies in A."""
        k = x // self.a
        return (x - k * self.a, (y - k * self.b) % self.c)

    def contains(self, x: int, y: int) -> bool:
        return self.key(x, y) == (0, 0)

    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (0, self.c))


def torus_quotient(a_gamma: TorusLattice, vectors, n: int) -> FinGroup:
    """N/Gamma for Gamma = A_Gamma x| <J> and N = <L(v/M) for v in vectors,
    J>, from the lattice model; the vectors are integer vectors over
    a_gamma's M.

    Raises ArithmeticError unless |A_N| = 4n, A_Gamma lies in A_N and
    2*A_N lies in A_Gamma.  The last is the normality of Gamma in N:
    J*L(s)*J = L(-s) and L(s)*J*L(-s) = L(2s)*J.  N/Gamma = A_N/A_Gamma, as
    J lies in Gamma, so two elements lie in one coset of Gamma exactly when
    their torus vectors have the same key mod A_Gamma.

    The cosets come from ``groups.coset_search``, the search of
    ``normalizer``, run over torus vectors: from (0, 0), over ``vectors``,
    by vector addition, each sum placed by its key.  The search
    forms no isometry product.  Each representative v is labelled
    L(v/M), the label ``normalizer`` gives it: every representative is a
    product of L-type generators, L(s)*L(t) = L(s+t), and ``Isom3`` keys
    are canonical, so the key built from the summed vector is the key of
    the product; J lies in Gamma, so its column adds nothing
    (``FinGroup.quotient`` drops it).
    """
    M = a_gamma.M
    a_norm = TorusLattice.spanned(vectors, M)
    if not (
        a_norm.order == 4 * n
        and all(a_norm.contains(x, y) for x, y in a_gamma.basis())
        and all(a_gamma.contains(2 * x, 2 * y) for x, y in a_norm.basis())
    ):
        raise ArithmeticError(
            f"the claimed N(Gamma) fails to normalize Gamma: {a_norm}, 4n = {4 * n}"
        )
    index = {(0, 0): 0}  # the key of each coset, in the order found
    def find(v):
        key = a_gamma.key(*v)
        if key in index:
            return index[key]
        index[key] = len(index)
        return None

    reps, cosets = coset_search((0, 0), vectors, _vector_sum, find)
    return quotient_group([_torus_isom(x, y, M) for x, y in reps], cosets)


def _vector_sum(v, w):
    return (v[0] + w[0], v[1] + w[1])


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
    isometry group, recognized as D3 x Z2.  The quotient comes from
    Gamma~'s cosets (``FinGroup.quotient``), and N(Gamma~) is never listed:
    it has |Gamma~| * |quotient| pairs, and g and g * (-1,-1) are one
    isometry, so when (-1,-1) lies in Gamma~, a subgroup of N(Gamma~), the
    pairs fall into isometries two by two.
    """
    one = (Q_ONE, Q_ONE)
    gamma_raw = close(
        [(Q_I, Q_I), (Q_J, Q_J)], 16, identity=one, mul=_pair_mul, inv=_pair_inv
    )
    generators = [(Q_S, Q_S), (Q_W, Q_W), (Q_ONE, -Q_ONE)]
    quotient = gamma_raw.quotient(generators, 192)
    normalizer_pairs = len(gamma_raw) * len(quotient)
    pairs_per_isometry = 2 if (-Q_ONE, -Q_ONE) in gamma_raw else 1
    details = {
        "gamma_pairs": len(gamma_raw),
        "gamma_isometries": len(gamma_raw) // 2,
        "normalizer_pairs": normalizer_pairs,
        "normalizer_isometries": normalizer_pairs // pairs_per_isometry,
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


class GammaLattice(NamedTuple):
    """Gamma of one dihedral query O(q/p; d1, d2), from its torus lattice."""

    params: DihedralParams
    cert: Mapping
    a_gamma: TorusLattice


def gamma_lattice(r, d1: int, d2: int) -> GammaLattice:
    """The witness (k1, k2), Gamma's certificate and the torus lattice
    A_Gamma of O(q/p; d1, d2), with no isometry group.

    |Gamma| = 2*|A_Gamma| must equal 2n, and the certificate must show
    Gamma = <f, J> dihedral of degree n (ArithmeticError otherwise).
    order(f) comes from its multiple n and the primes of p, d1 and d2, each
    factored by trial division; a query with p, d1 or d2 past FACTOR_BOUND
    is refused (ValueError) before any product.
    """
    params = params_for(r, d1, d2)
    r, n = params.r, params.n
    for name, m in (("p", r.p), ("d1", d1), ("d2", d2)):
        if m > FACTOR_BOUND:
            raise ValueError(
                f"O({r};{d1},{d2}) has {name} = {m}, past the factoring bound {FACTOR_BOUND}"
            )
    primes = sorted({ell for m in (r.p, d1, d2) for ell in _prime_factors(m)})
    f = _rotation(params)
    x, y = _normalizer_vectors(params)[0]  # f = L(2x/2n, 2y/2n)
    a_gamma = TorusLattice.spanned([(2 * x, 2 * y)], 2 * n)
    order_f = order_from_multiple(f, n, primes, ISOM_ID)
    cert = _certificate(f, 2 * a_gamma.order, order_f, n)
    if (cert["order"], cert["order_f"], cert["order_J"], cert["dihedral_relation"]) != (
        2 * n, n, 2, True
    ):
        raise ArithmeticError(f"Gamma of ({r};{d1},{d2}) is not D{n}: {dict(cert)}")
    return GammaLattice(params, cert, a_gamma)


class Orbifold(NamedTuple):
    """One dihedral query O(q/p; d1, d2), answered in full."""

    params: DihedralParams
    cert: Mapping
    isom: str
    quotient: FinGroup | None


def orbifold(r, d1: int, d2: int) -> Orbifold:
    """The witness (k1, k2), Gamma's certificate, the isometry type of
    O(q/p; d1, d2) and the quotient N(Gamma)/Gamma, from the torus lattices.

    The first three come from ``gamma_lattice``, with its refusals.
    (d1, d2) != (1, 1): the type is (Z2)^2, except D3 x Z2 for the trivial
    theta-orbifold; the quotient group cross-checks the tag.  For
    (d1, d2) = (1, 1) the tag comes from congruence conditions only and the
    quotient is None (some of these types are continuous).
    """
    params, cert, a_gamma = gamma_lattice(r, d1, d2)
    r = params.r
    if (d1, d2) == (1, 1):
        return Orbifold(params, cert, _isom_tag_d1(r), None)
    if is_trivial_theta(r, d1, d2):
        quotient, _ = exceptional_isom()
        return Orbifold(params, cert, TAG_D3xZ2, quotient)
    quotient = torus_quotient(a_gamma, _normalizer_vectors(params), params.n)
    tag = recognize(quotient)
    if tag != TAG_Z2SQ:
        raise ArithmeticError(
            f"N(Gamma)/Gamma for ({r};{d1},{d2}) is {tag}, expected {TAG_Z2SQ}"
        )
    return Orbifold(params, cert, TAG_Z2SQ, quotient)
