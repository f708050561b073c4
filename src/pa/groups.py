"""Finite groups as closed element sets: extension of a closed subgroup
coset by coset (closure is extension of the trivial group), normality,
quotients <H, gens>/H by one coset search without listing <H, gens>,
recognition, powers by square-and-multiply, and element orders from a
known multiple.

The layer is generic over the element model: elements are hashable values,
products come from a ``mul`` callable (the ``*`` operator by default) and
inverses from an ``inv`` callable (an ``.inv()`` method by default).  The
quaternion and isometry models of ``pa.quat``, the coset permutations of
``pa.cosetenum`` and the torus quotients of ``pa.dihedral`` all close and
recognize their groups here.  ``coset_search`` is the one quotient search,
for ``FinGroup.quotient`` over group elements and ``dihedral.torus_quotient``
over torus vectors, and ``quotient_group`` builds the group from its table;
``extend`` keeps its own loop, as it lists every element of each new coset.
A quotient search needs only the generators outside the subgroup H: for a
generator x in H and a representative y, y*x = (y*x*y^-1)*y lies in H*y when
H is normal, so x starts no coset and adds nothing to the table.
"""

from __future__ import annotations

import operator


class GroupOverflow(ArithmeticError):
    """Raised when a closure would exceed its element bound."""


class FinGroup:
    """A finite group given by its full element list and a generating set.

    Elements must be hashable; ``mul`` and ``inv`` are callables (defaulting
    to the ``*`` operator and an ``.inv()`` method).  The element list keeps
    deterministic construction order and begins with the identity
    (ValueError otherwise).  ``gens`` defaults to the elements themselves.
    Elements and generators are tuples, so a group never changes once
    built.  Membership is read from an index, a dict whose keys are the
    elements in order: a dict passed as ``elements`` is taken as that index
    and is not copied (``extend`` and ``quotient_group`` hand over the one
    they built, and change it no more), and any other iterable is indexed
    here, ValueError if it repeats an element.
    """

    def __init__(self, elements, identity, mul=operator.mul, inv=None, gens=None):
        self.elements = tuple(elements)
        self.gens = self.elements if gens is None else tuple(gens)
        if type(elements) is dict:
            self._index = elements
        else:
            self._index = dict.fromkeys(self.elements)
            if len(self._index) < len(self.elements):
                raise ValueError("the elements must be distinct")
        self.identity = identity
        self.mul = mul
        self._inv = inv
        if not self.elements or self.elements[0] != identity:
            raise ValueError("the identity must be the first element")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._index

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

    def normalized_by(self, gens) -> bool:
        """Whether x*s*x^-1 lies in this group H for every x in ``gens``
        and every generator s of H: whether H is normal in <H, gens>.

        Conjugation by x is an automorphism, so x*H*x^-1 = <x*s*x^-1 : s in
        gens(H)>, which lies in H exactly when the conjugated generators do,
        and then equals H since both have |H| elements.  Every element of
        <H, gens> is a product of H's elements and ``gens``, so it
        conjugates H onto H as well.  Each x is inverted once.
        """
        mul = self.mul
        for x in gens:
            x_inv = self.inv(x)
            if not all(mul(mul(x, s), x_inv) in self for s in self.gens):
                return False
        return True

    def are_conjugate(self, g, h) -> bool:
        return any(
            self.mul(self.mul(x, g), self.inv(x)) == h for x in self.elements
        )

    def quotient(self, gens, bound=10**5) -> "FinGroup":
        """<H, gens>/H for this group H, normal in <H, gens>, by
        ``coset_search``; |<H, gens>| = |H| * |quotient|, and <H, gens> is
        never listed.

        A declared generator x that lies in H is dropped first, with no
        product: H is normal in <H, gens>, so for any representative y,
        y*x = (y*x*y^-1)*y lies in H*y.  Such an x never starts a coset
        and its column of the action repeats the row, so the
        representatives, their order and the table are those of the search
        over every declared generator.  Raises ValueError unless
        ``normalized_by`` holds for the generators left, tested before the
        search, and GroupOverflow when |H| times the number of cosets would
        pass ``bound``.  A product z lies in the coset H*r of the first
        representative r with z*r^-1 in H (for r = 1 the test is z in H,
        with no product), or else starts the coset H*z.
        """
        gens = tuple(x for x in gens if x not in self)
        if not self.normalized_by(gens):
            raise ValueError("not a normal subgroup")
        mul, size = self.mul, len(self.elements)
        inverses = [self.identity]  # of the representatives, in the order found
        def find(z):
            if z in self:
                return 0
            for c in range(1, len(inverses)):
                if mul(z, inverses[c]) in self:
                    return c
            if size * (len(inverses) + 1) > bound:
                raise GroupOverflow(f"closure exceeds bound {bound}")
            inverses.append(self.inv(z))
            return None

        reps, cosets = coset_search(self.identity, gens, mul, find)
        return quotient_group(reps, cosets)


def coset_search(identity, gens, mul, find) -> tuple[list, list[list[int]]]:
    """The right-coset representatives of <H, gens>/H for a normal H, found
    breadth-first (Butler, LNCS 559, 1991; Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, 4.1), and the coset
    table: cosets[a][b] is the index of the coset of reps[a] * reps[b].

    Each representative y in turn, from ``identity``, is multiplied by
    ``gens``.  ``find(z)`` returns the index of the product z's coset, or
    None when z starts a new one; it may raise to refuse a coset.  The
    table needs no product: a representative b = y*s found from y lies in
    the coset of r*s for the representative r of a*y's coset, so the coset
    of a*b is read from the kept action of each (representative, generator)
    pair, y coming before b.
    """
    reps = [identity]
    found_from = [None]  # (y, s): the indices with reps[b] = reps[y] * gens[s]
    action = []  # action[y][s]: the coset of reps[y] * gens[s]
    for y, rep in enumerate(reps):  # grows while it is read: breadth-first
        row = []
        for s, x in enumerate(gens):
            z = mul(rep, x)
            c = find(z)
            if c is None:
                c = len(reps)
                reps.append(z)
                found_from.append((y, s))
            row.append(c)
        action.append(row)
    cosets = []
    for a in range(len(reps)):
        row = [a]
        for y, s in found_from[1:]:
            row.append(action[row[y]][s])
        cosets.append(row)
    return reps, cosets


def quotient_group(labels, cosets) -> FinGroup:
    """The group of ``coset_search``'s table, each coset named by its entry
    of ``labels`` (the identity's first), with products and inverses read
    from the table by each label's position.  ``labels`` and ``cosets`` are
    kept, not copied: the caller hands them over.  The label -> position
    dict is also the group's index."""
    position = {label: a for a, label in enumerate(labels)}

    def mul(a, b):
        return labels[cosets[position[a]][position[b]]]

    def inv(a):
        return labels[cosets[position[a]].index(0)]

    return FinGroup(position, labels[0], mul=mul, inv=inv)


def close(gens, bound=10**5, *, identity=None, mul=operator.mul, inv=None) -> FinGroup:
    """The closure of the generators into a FinGroup that records them as
    its ``gens``: ``extend`` from the trivial group, so its elements come
    in breadth-first order from the identity, each element found times
    each generator in turn.

    Raises GroupOverflow when more than ``bound`` elements appear.  When
    ``identity`` is omitted it is computed as g*g^{-1} from the first
    generator.
    """
    gens = tuple(gens)
    if identity is None:
        if not gens:
            raise ValueError("need generators or an explicit identity")
        g0 = gens[0]
        identity = mul(g0, inv(g0) if inv is not None else g0.inv())
    trivial = FinGroup([identity], identity, mul=mul, inv=inv, gens=())
    return extend(trivial, gens, bound)


def extend(H: FinGroup, gens, bound=10**5) -> FinGroup:
    """<H, gens> from the closed group H, coset by coset (Dimino's
    algorithm; Butler, *Fundamental Algorithms for Permutation Groups*,
    LNCS 559, 1991).

    The right cosets H*y are found breadth-first: each representative y in
    turn, in the order found, times H's generators and then ``gens``.  A
    product z outside every coset so far starts the coset H*z, listed as z
    followed by h*z over H's other elements in order (H lists its identity
    first).  A new coset costs |H| - 1 products, and each (representative,
    generator) pair one product and one membership test; in a finite group
    closure under the generators suffices, as inverses are positive
    powers.  The result lists H's elements first and records H's
    generators followed by ``gens`` as its ``gens``.  From the trivial
    group the cosets are single elements and the search is the
    breadth-first closure of ``close``.

    The elements are listed once, as the keys of one index that becomes
    the result's (``FinGroup``), so each is hashed once.  With the default
    ``*`` the product is the identity's type's ``__mul__``, looked up once
    per call; the elements of a group share one type.

    Raises GroupOverflow when more than ``bound`` elements appear.
    """
    search = H.gens + tuple(gens)
    mul = type(H.identity).__mul__ if H.mul is operator.mul else H.mul
    others = H.elements[1:]
    size = len(H.elements)
    index = H._index.copy()
    reps = [H.identity]
    for y in reps:  # grows while it is read: breadth-first over the cosets
        for s in search:
            z = mul(y, s)
            if z in index:
                continue
            if len(index) + size > bound:
                raise GroupOverflow(f"closure exceeds bound {bound}")
            index[z] = None
            for h in others:
                index[mul(h, z)] = None
            reps.append(z)
    return FinGroup(index, H.identity, mul=H.mul, inv=H._inv, gens=search)


def power(g, e: int, mul=operator.mul):
    """g^e for e >= 1 by square-and-multiply: floor(log2 e) squarings and
    popcount(e) - 1 further products, whatever the element model."""
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    result = None
    while True:
        if e & 1:
            result = g if result is None else mul(result, g)
        e >>= 1
        if not e:
            return result
        g = mul(g, g)


def order_from_multiple(g, n: int, primes, identity, mul=operator.mul):
    """The order of g, given a multiple n of it and the primes of n, or
    None when g^n != identity (the order does not divide n).

    Tests g^n = identity, then for each prime l divides the order by l while
    g^(order/l) = identity (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, Alg. 1.4.3): O(log n * omega(n)) products by
    ``power``.  ``primes`` must hold every prime factor of n: ValueError if
    one is missing, or if an entry is below 2.
    """
    rest = n
    for ell in primes:
        if ell < 2:
            raise ValueError(f"{ell} is not a prime")
        while rest % ell == 0:
            rest //= ell
    if rest != 1:
        raise ValueError(f"the primes {list(primes)} do not factor {n}")
    if power(g, n, mul) != identity:
        return None
    order = n
    for ell in primes:
        while order % ell == 0 and power(g, order // ell, mul) == identity:
            order //= ell
    return order


# ---------------------------------------------------------------------------
# Recognition


def dihedral_degree(G: FinGroup):
    """Return n if G is dihedral of order 2n (presentation
    <a, b | a^2, b^2, (ab)^n>), else None.  D_1 = Z_2 and D_2 = (Z_2)^2
    count as dihedral of degree 1 and 2.

    G of order 2n is D_n exactly when some x of order n has every element
    outside <x> an involution: such an s and s*x both lie outside <x>, so
    (s*x)^2 = 1 gives s*x*s^-1 = x^-1, and <x, s> = G has the dihedral
    presentation; in D_n, conversely, every element off the rotations is a
    reflection.  The orders are read once (``element_order``, ValueError
    past |G|), and each x of order n walks <x> once."""
    size = len(G)
    if size % 2 != 0:
        return None
    n = size // 2
    orders = {g: G.element_order(g) for g in G}
    for x, order in orders.items():
        if order != n:
            continue
        rotations = {G.identity}
        acc = x
        while acc != G.identity:
            rotations.add(acc)
            acc = G.mul(acc, x)
        if all(o == 2 for g, o in orders.items() if g not in rotations):
            return n
    return None


def recognize(G: FinGroup) -> str:
    """Coarse isomorphism type of a small group.

    Tags: "Z1", "Z2", "(Z2)^k", "Zn", "Dn", "D3xZ2", "other(n)".  Tie-breaks:
    elementary abelian 2-groups win over the dihedral test (so D_2 reports
    as "(Z2)^2"), and D_6 reports via its direct-product decomposition as
    "D3xZ2": its centre {1, x^3}, for x a rotation of order 6, is the Z_2
    factor (D_6 and D_3 x Z_2 are the same group).
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
    if dd == 6:
        return "D3xZ2"
    if dd is not None and dd >= 3:
        return f"D{dd}"
    return f"other({n})"
