"""Independent reference implementations used to cross-check the library.

Everything here is deliberately coded with different algorithms and data
structures than the package (Fraction towers instead of integer pair
recursion, product-set growth instead of BFS closure, union-find Betti
numbers and dense right-to-left elimination instead of bitmask RREF), so
agreement between the two is meaningful evidence.
"""

from fractions import Fraction


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
