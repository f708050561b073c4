"""Independent reference implementations used to cross-check the library.

Everything here is deliberately coded with different algorithms and data
structures than the package (Fraction towers instead of integer pair
recursion, product-set growth instead of BFS closure, union-find Betti
numbers and dense right-to-left elimination instead of bitmask RREF), so
agreement between the two is meaningful evidence.
"""

from fractions import Fraction
from math import gcd


def eval_cf_tower(terms):
    """Value of 1/(a1 + 1/(a2 + ... + 1/an)) as a Fraction (empty -> 0)."""
    acc = Fraction(0)
    for a in reversed(terms):
        acc = Fraction(1, a + acc)
    return acc


def closure_count(gens, mul, identity, cap=10**5):
    """Order of <gens> by repeated product-set growth (not BFS)."""
    current = {identity} | set(gens)
    while True:
        grown = current | {mul(a, b) for a in current for b in gens}
        if len(grown) > cap:
            raise OverflowError("closure exceeded cap")
        if grown == current:
            return len(current)
        current = grown


def even_subgraph_betti(vertex_ids, edge_triples):
    """dim H_1 of an S^3 graph orbifold over Z_2 = first Betti number
    (E - V + C) of the subgraph of even-weight edges, via union-find.

    ``edge_triples`` are (end1, end2, weight) with weight None meaning
    infinity; infinite counts as even.
    """
    verts = list(vertex_ids)
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_even = 0
    for a, b, w in edge_triples:
        if w is not None and w % 2 == 1:
            continue
        n_even += 1
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in verts})
    return n_even - len(verts) + components


def gf2_rank_dense(rows, ncols):
    """GF(2) rank by dense elimination choosing pivots right-to-left
    (the opposite column order to the package's bitmask RREF)."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols - 1, -1, -1):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [x ^ y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def spherical_order(p, q, r):
    """2/(1/p + 1/q + 1/r - 1) when positive and integral, else None."""
    excess = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
    if excess <= 0:
        return None
    value = 2 / excess
    return int(value) if value.denominator == 1 else None


def lattice_form(kind, m, n):
    if kind == "T244":
        return 4 * (m * m + n * n)
    if kind == "T236":
        return 12 * (m * m + m * n + n * n)
    raise ValueError(kind)


def brute_vector_count(kind, coef2, window=40):
    """Number of nonzero lattice vectors of squared length coef2, counted
    over a fixed large window (independent of the library's radius bound)."""
    return sum(
        1
        for m in range(-window, window + 1)
        for n in range(-window, window + 1)
        if (m, n) != (0, 0) and lattice_form(kind, m, n) == coef2
    )


def perm_order_brute(perm):
    """Order of a permutation by repeated composition."""
    identity = tuple(range(len(perm)))
    acc = tuple(perm)
    k = 1
    while acc != identity:
        acc = tuple(perm[i] for i in acc)
        k += 1
    return k


def normal_by_all_elements(elements, subgroup, mul, inv):
    """Whether x*S*x^-1 = S for every x among ``elements``: the normality
    test over all elements and all of S, not over generators."""
    S = set(subgroup)
    return all({mul(mul(x, s), inv(x)) for s in S} == S for x in elements)


# D_S = S^1 u S^1*j and Isom+(S^3) by the Fraction rule: an element of D_S is
# (t, jflag) for e^{2pi*i*t} * j^jflag, an isometry a pair of them.

HALF = Fraction(1, 2)


def ds_mul(a, b):
    """The D_S product: j*e^{2pi*i*t} = e^{-2pi*i*t}*j and j*j = e^{pi*i}."""
    (s, j), (t, k) = a, b
    if not j:
        return ((s + t) % 1, k)
    if not k:
        return ((s - t) % 1, True)
    return ((s - t + HALF) % 1, False)


def ds_inv(a):
    t, j = a
    return ((t + HALF) % 1, True) if j else (-t % 1, False)


def isom_canonical(g1, g2):
    """The pair modulo the kernel <(-1,-1)>: negate both (add 1/2 to both
    angles) when g1's angle is at least 1/2."""
    if g1[0] >= HALF:
        g1, g2 = ((g1[0] + HALF) % 1, g1[1]), ((g2[0] + HALF) % 1, g2[1])
    return (g1, g2)


def isom_mul(x, y):
    return isom_canonical(ds_mul(x[0], y[0]), ds_mul(x[1], y[1]))


def isom_inv(x):
    return isom_canonical(ds_inv(x[0]), ds_inv(x[1]))


def isom_l(t1, t2):
    """L(t1, t2) = phi(e^{pi*i(t1+t2)}, e^{pi*i(t2-t1)})."""
    t1, t2 = Fraction(t1), Fraction(t2)
    return isom_canonical((((t1 + t2) / 2) % 1, False), (((t2 - t1) / 2) % 1, False))


ISOM_J = ((Fraction(0), True), (Fraction(0), True))


def isom_format(x):
    """"L(t1, t2)" for the L-part, then ·J, ·J1 or ·J2 by the j-flags."""
    tails = {(True, True): "·J", (False, True): "·J1", (True, False): "·J2"}
    j_inv = ds_inv((Fraction(0), True))
    (g1, g2), flags = x, (x[0][1], x[1][1])
    base = isom_canonical(
        ds_mul(g1, j_inv) if flags[0] else g1, ds_mul(g2, j_inv) if flags[1] else g2
    )
    s1, s2 = base[0][0], base[1][0]
    return f"L({(s1 - s2) % 1}, {(s1 + s2) % 1})" + tails.get(flags, "")


# Quaternions over Q(sqrt 2) by the Fraction rule: a coordinate is (a, b)
# for a + b*sqrt(2), a quaternion the four coordinates (w, x, y, z).


def _qs_mul(u, v):
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _qs_sum(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _qs_neg(u):
    return (-u[0], -u[1])


def quat_mul(p, q):
    """The Hamilton product with Q(sqrt 2) coordinates."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = p, q
    m, n = _qs_mul, _qs_neg
    return (
        _qs_sum(m(w1, w2), n(m(x1, x2)), n(m(y1, y2)), n(m(z1, z2))),
        _qs_sum(m(w1, x2), m(x1, w2), m(y1, z2), n(m(z1, y2))),
        _qs_sum(m(w1, y2), n(m(x1, z2)), m(y1, w2), m(z1, x2)),
        _qs_sum(m(w1, z2), m(x1, y2), n(m(y1, x2)), m(z1, w2)),
    )


# The dihedral congruence witness and the oriented-orbifold rule, in their
# first forms.


def solve_k_search(r, d1, d2):
    """Least (k1, k2) in lexicographic order with gcd(p*d2, k1) = 1,
    gcd(p*d1, k2) = 1 and k2 = q*k1 mod p, by the bounded double search
    k1 <= p*d2, k2 <= p*d1*p."""
    p, q = r.p, r.q
    for k1 in range(1, p * d2 + 1):
        if gcd(p * d2, k1) != 1:
            continue
        for k2 in range(1, p * d1 * p + 1):
            if (k2 - q * k1) % p == 0 and gcd(p * d1, k2) == 1:
                return (k1, k2)
    return None


def same_oriented_rule(a, b):
    """O(q/p;d1,d2) = O(q'/p';d1',d2') as oriented orbifolds: p = p' and
    either q = q' mod p with (d1,d2) = (d1',d2'), or qq' = 1 mod p with
    (d1,d2) = (d2',d1'); group order 2*p*d1*d2 = 4 takes the explicit
    exceptional identifications.  Triples hold reduced finite slopes."""
    (r1, d1, d2), (r2, e1, e2) = a, b
    p = r1.p
    n1 = p * d1 * d2
    if n1 != r2.p * e1 * e2:
        return False
    if n1 == 2:
        if p != r2.p:
            return False
        if p == 1:
            return {d1, d2} == {e1, e2} == {1, 2}
        return p == 2 and d1 == d2 == e1 == e2 == 1
    if p != r2.p:
        return False
    q1, q2 = r1.q, r2.q
    if (q1 - q2) % p == 0 and (d1, d2) == (e1, e2):
        return True
    return (q1 * q2 - 1) % p == 0 and (d1, d2) == (e2, e1)
