"""Todd-Coxeter coset enumeration and triangle-group utilities.

The enumerator is the HLT strategy (scan-and-fill over the relators) over
the trivial subgroup, with one lookahead-and-compaction pass when the coset
limit is hit; a second hit reports overflow instead of answering.  Scanning
order is fixed, so repeated runs build identical tables.

Relators are tuples of nonzero integers: g > 0 is generator g, -g its
inverse (1-based).  Words for group-element queries use letters a, b, c
(uppercase = inverse) with optional digit repeat counts, e.g. "b2ac2a".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .quat import close

DEFAULT_MAX_COSETS = 10_000


def max_cosets_default() -> int:
    """Coset limit: PA_MAX_COSETS from the environment, else 10000."""
    raw = os.environ.get("PA_MAX_COSETS")
    if raw is None:
        return DEFAULT_MAX_COSETS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"PA_MAX_COSETS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("PA_MAX_COSETS must be positive")
    return value


@dataclass(frozen=True)
class Presentation:
    """<x_1..x_n | relators>, relators freely reduced, letters in range."""

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ngens < 1:
            raise ValueError("need at least one generator")
        rels = tuple(tuple(r) for r in self.relators)
        for rel in rels:
            for x in rel:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError(f"letter {x} out of range in relator {rel}")
            for u, v in zip(rel, rel[1:]):
                if u == -v:
                    raise ValueError(f"relator {rel} is not freely reduced")
        object.__setattr__(self, "relators", rels)


def parse_word(text: str, ngens: int = 3) -> tuple[int, ...]:
    """Parse a word like "b2ac2a" or "ac3" over a..c / A..C into letters.

    Lowercase letters are generators, uppercase their inverses, a digit run
    repeats the preceding letter, "^" before a digit run is allowed.
    """
    out: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if not ch.isalpha():
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        idx = ord(ch.lower()) - ord("a") + 1
        if idx > ngens:
            raise ValueError(f"letter {ch!r} out of range in word {text!r}")
        letter = idx if ch.islower() else -idx
        i += 1
        if i < n and text[i] == "^":
            i += 1
            if i >= n or not text[i].isdigit():
                raise ValueError(f"'^' needs a repeat count in word {text!r}")
        j = i
        while j < n and text[j].isdigit():
            j += 1
        count = int(text[i:j]) if j > i else 1
        if count < 1:
            raise ValueError(f"repeat count must be >= 1 in word {text!r}")
        out.extend([letter] * count)
        i = j
    return tuple(out)


class CosetTable:
    """Result of an enumeration: status "complete" or "overflow".

    For complete tables, row i column x gives the coset reached from coset
    i by generator letter x (signed as in relators); cosets are renumbered
    0..n-1 in discovery order.
    """

    def __init__(self, ngens: int, rows, status: str):
        self.ngens = ngens
        self.rows = rows
        self.status = status

    @property
    def n_cosets(self) -> int:
        return len(self.rows)

    def act(self, coset: int, letter: int) -> int:
        col = 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)
        dest = self.rows[coset][col]
        if dest is None:
            raise ValueError("incomplete table")
        return dest

    def act_word(self, coset: int, word) -> int:
        for letter in word:
            coset = self.act(coset, letter)
        return coset

    def generator_permutation(self, gen: int) -> tuple[int, ...]:
        return tuple(self.act(i, gen) for i in range(self.n_cosets))


class _TableFull(Exception):
    pass


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.pres = pres
        self.ncols = 2 * pres.ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]

    # -- columns ----------------------------------------------------------
    @staticmethod
    def _col(letter: int) -> int:
        return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)

    @staticmethod
    def _inv_col(col: int) -> int:
        return col ^ 1

    # -- union-find over coincident cosets ---------------------------------
    def _rep(self, k: int) -> int:
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def _merge(self, a: int, b: int, queue: list) -> None:
        a, b = self._rep(a), self._rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def _coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        while queue:
            dead = queue.pop(0)
            row = self.table[dead]
            for col in range(self.ncols):
                dest = row[col]
                if dest is None:
                    continue
                self.table[dest][self._inv_col(col)] = None
                mu, nu = self._rep(dead), self._rep(dest)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][self._inv_col(col)] is not None:
                    self._merge(mu, self.table[nu][self._inv_col(col)], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][self._inv_col(col)] = mu

    # -- defining and scanning ---------------------------------------------
    def _define(self, coset: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise _TableFull
        new = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(new)
        self.table[coset][col] = new
        self.table[new][self._inv_col(col)] = coset
        return new

    def _scan(self, coset: int, word, fill: bool) -> None:
        cols = [self._col(x) for x in word]
        f, b = coset, coset
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and self.table[b][self._inv_col(cols[j])] is not None:
                b = self.table[b][self._inv_col(cols[j])]
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if not fill:
                return
            if i == j:
                self.table[f][cols[i]] = b
                self.table[b][self._inv_col(cols[i])] = f
                return
            f = self._define(f, cols[i])
            i += 1

    # -- main loop ----------------------------------------------------------
    def _hlt_pass(self) -> None:
        alpha = 0
        while alpha < len(self.table):
            if self._rep(alpha) != alpha:
                alpha += 1
                continue
            for rel in self.pres.relators:
                self._scan(alpha, rel, fill=True)
                if self._rep(alpha) != alpha:
                    break
            if self._rep(alpha) == alpha:
                for col in range(self.ncols):
                    if self.table[alpha][col] is None:
                        self._define(alpha, col)
            alpha += 1

    def _lookahead(self) -> None:
        for alpha in range(len(self.table)):
            if self._rep(alpha) != alpha:
                continue
            for rel in self.pres.relators:
                self._scan(alpha, rel, fill=False)
                if self._rep(alpha) != alpha:
                    break

    def _compact(self) -> None:
        live = [i for i in range(len(self.table)) if self._rep(i) == i]
        remap = {old: new for new, old in enumerate(live)}
        self.table = [
            [None if d is None else remap[self._rep(d)] for d in self.table[i]]
            for i in live
        ]
        self.p = list(range(len(self.table)))

    def run(self) -> CosetTable:
        used_lookahead = False
        while True:
            try:
                self._hlt_pass()
                break
            except _TableFull:
                if used_lookahead:
                    return CosetTable(self.pres.ngens, [], "overflow")
                used_lookahead = True
                self._lookahead()
                self._compact()
                if len(self.table) >= self.max_cosets:
                    return CosetTable(self.pres.ngens, [], "overflow")
        self._compact()
        return CosetTable(self.pres.ngens, self.table, "complete")


def enumerate_cosets(pres: Presentation, max_cosets: int | None = None) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup (the regular action)."""
    if max_cosets is None:
        max_cosets = max_cosets_default()
    return _Enumerator(pres, max_cosets).run()


# ---------------------------------------------------------------------------
# Triangle groups


def triangle_presentation(p: int, q: int, r: int) -> Presentation:
    """<a, b, c | a^p, b^q, c^r, abc>."""
    if min(p, q, r) < 1:
        raise ValueError("triangle parameters must be positive")
    return Presentation(
        3,
        (
            tuple([1] * p),
            tuple([2] * q),
            tuple([3] * r),
            (1, 2, 3),
        ),
    )


def is_spherical_triple(p: int, q: int, r: int) -> bool:
    return Fraction(1, p) + Fraction(1, q) + Fraction(1, r) > 1


def spherical_triangle_order(p: int, q: int, r: int):
    """Closed-form order 2/(1/p + 1/q + 1/r - 1) of the spherical triangle
    group; None when the triple is not spherical with all entries >= 2."""
    if min(p, q, r) < 2:
        return None
    excess = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
    if excess <= 0:
        return None
    order = 2 / excess
    if order.denominator != 1:
        raise ValueError(f"non-integral spherical order for {(p, q, r)}")
    return int(order)


def triangle_table(p: int, q: int, r: int, max_cosets: int | None = None) -> CosetTable:
    if not is_spherical_triple(p, q, r):
        raise ValueError(f"triangle type {(p, q, r)} is not spherical")
    if max_cosets is None:
        max_cosets = max_cosets_default()
    # A complete table has one row per element and at most max_cosets rows.
    order = spherical_triangle_order(p, q, r)
    if order is not None and order > max_cosets:
        raise ValueError(f"triangle group {(p, q, r)} overflowed the coset bound")
    table = enumerate_cosets(triangle_presentation(p, q, r), max_cosets)
    if table.status != "complete":
        raise ValueError(f"triangle group {(p, q, r)} overflowed the coset bound")
    return table


def coset_group(table: CosetTable):
    """The finite group defined by a complete table, as permutations of the
    cosets (the regular action, so |group| = number of cosets)."""
    if table.status != "complete":
        raise ValueError("coset table did not complete")
    n = table.n_cosets
    identity = tuple(range(n))
    gens = [table.generator_permutation(g + 1) for g in range(table.ngens)]
    mul = lambda s, t: tuple(t[s[i]] for i in range(n))
    inverse = lambda s: tuple(sorted(range(n), key=lambda i: s[i]))
    return close(gens, n, identity=identity, mul=mul, inv=inverse)


def triangle_group(p: int, q: int, r: int, max_cosets: int | None = None):
    """The spherical (p, q, r) triangle group as a permutation FinGroup."""
    return coset_group(triangle_table(p, q, r, max_cosets))


def word_permutation(table: CosetTable, word) -> tuple[int, ...]:
    if isinstance(word, str):
        word = parse_word(word, table.ngens)
    n = table.n_cosets
    return tuple(table.act_word(i, word) for i in range(n))


def permutation_order(perm: tuple[int, ...]) -> int:
    n = len(perm)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        order = lcm(order, length)
    return order


def natural_epimorphism_valid(src: tuple[int, int, int], dst: tuple[int, int, int]) -> bool:
    """a->a, b->b, c->c defines (p,q,r) -> (p',q',r') iff p'|p, q'|q, r'|r."""
    return all(s % d == 0 for s, d in zip(src, dst))


def image_order(
    word,
    source: tuple[int, int, int],
    target: tuple[int, int, int] | None = None,
    max_cosets: int | None = None,
) -> int:
    """Order of the image of a source-triangle-group word under the natural
    epimorphism a->a, b->b, c->c onto the (spherical) target group.

    With no target the order is taken in the source group itself (which
    must then be spherical).
    """
    if target is None:
        target = source
    if not natural_epimorphism_valid(source, target):
        raise ValueError(f"no natural epimorphism {source} -> {target}")
    table = triangle_table(*target, max_cosets=max_cosets)
    return permutation_order(word_permutation(table, word))


def triangle_word_images(
    ptype: tuple[int, int, int], words, max_cosets: int | None = None
):
    """The (p,q,r) permutation group together with the images of the given
    words, for conjugacy questions."""
    table = triangle_table(*ptype, max_cosets=max_cosets)
    G = coset_group(table)
    return G, [word_permutation(table, w) for w in words]
