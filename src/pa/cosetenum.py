"""Todd-Coxeter coset enumeration and triangle-group utilities.

The enumerator is the Felsch strategy over the trivial subgroup: it
defines the first empty entry of the lowest coset and draws every
consequence of each new entry before the next definition.  Power relators
x^r are handled by O(1) updates of the x-chains instead of scans, so
T(2,2,r) takes time linear in r.  No entry is ever withdrawn: the
enumerator answers the presentations Felsch closes without a coincidence,
every spherical triangle presentation within the coset limit among them,
and refuses the others with ValueError.  The table never holds more rows
than the coset limit: when it is full, the enumeration raises ValueError
instead of answering.
Definition and scanning order are fixed, so repeated runs build identical
tables.

Letters are nonzero integers: g > 0 is generator g, -g its inverse
(1-based).  Relators and words are runs (letter, count), so a power x^r is
one run whatever r is.  Words for group-element queries use letters a, b, c
(uppercase = inverse) with optional digit repeat counts, e.g. "b2ac2a"; a
run costs O(log count) compositions of permutations, never one per repeated
letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter

from .groups import close, power

# The most rows a coset table may hold, read at call time.
MAX_COSETS = 10_000

# The most runs a word may have and the most digits of a repeat count.  A
# run costs at most floor(log2 count) + popcount(count) compositions of
# permutations over the cosets, so with the coset limit these bound the
# cost of any word.
MAX_WORD_RUNS = 100
MAX_COUNT_DIGITS = 18


@dataclass(frozen=True)
class Presentation:
    """<x_1..x_n | relators>, each relator a word of runs (letter, count)
    as ``parse_word`` reads them: x^r is ((x, r),) and abc is
    ((1, 1), (2, 1), (3, 1)).  Adjacent runs of one letter are merged;
    letters must be in range, counts positive and the word freely reduced.
    """

    ngens: int
    relators: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.ngens < 1:
            raise ValueError("need at least one generator")
        rels = []
        for word in self.relators:
            rel: list[tuple[int, int]] = []
            for x, count in word:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError(f"letter {x} out of range in relator {word}")
                if count < 1:
                    raise ValueError(f"run count {count} below 1 in relator {word}")
                if rel and rel[-1][0] == -x:
                    raise ValueError(f"relator {word} is not freely reduced")
                if rel and rel[-1][0] == x:
                    count += rel.pop()[1]
                rel.append((x, count))
            rels.append(tuple(rel))
        object.__setattr__(self, "relators", tuple(rels))


def parse_word(text: str, ngens: int = 3) -> tuple[tuple[int, int], ...]:
    """Parse a word like "b2ac2a" or "ac3" over a..c / A..C into runs
    (letter, count): "b2ac2a" is ((2, 2), (1, 1), (3, 2), (1, 1)).

    Lowercase ASCII letters are generators, uppercase their inverses, a run
    of ASCII digits after a letter is its repeat count, "^" before a digit
    run is allowed; any other character raises ValueError.
    Each letter starts a run.  A word of more than MAX_WORD_RUNS runs, or a
    count of more than MAX_COUNT_DIGITS digits, raises ValueError.
    """
    runs: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if not (ch.isascii() and ch.isalpha()):
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        idx = ord(ch.lower()) - ord("a") + 1
        if idx > ngens:
            raise ValueError(f"letter {ch!r} out of range in word {text!r}")
        if len(runs) == MAX_WORD_RUNS:
            raise ValueError(f"word has more than {MAX_WORD_RUNS} runs")
        letter = idx if ch.islower() else -idx
        i += 1
        if i < n and text[i] == "^":
            i += 1
            if i >= n or not "0" <= text[i] <= "9":
                raise ValueError(f"'^' needs a repeat count in word {text!r}")
        j = i
        while j < n and "0" <= text[j] <= "9":
            j += 1
        if j - i > MAX_COUNT_DIGITS:
            raise ValueError(f"repeat count has more than {MAX_COUNT_DIGITS} digits")
        count = int(text[i:j]) if j > i else 1
        if count < 1:
            raise ValueError(f"repeat count must be >= 1 in word {text!r}")
        runs.append((letter, count))
        i = j
    return tuple(runs)


def _column(letter: int) -> int:
    """Table column of a letter: 2(g-1) for generator g, 2(g-1)+1 for g^-1."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


class CosetTable:
    """Result of an enumeration, always complete: a full table raises.

    Row i column x gives the coset reached from coset i by generator letter
    x (signed as in relators); cosets are numbered 0..n-1 in discovery
    order.
    """

    status = "complete"  # read by bench/spans.py's coset count

    def __init__(self, ngens: int, rows):
        self.ngens = ngens
        self.rows = rows

    @property
    def n_cosets(self) -> int:
        return len(self.rows)


_COINCIDENCE = (
    "coset enumeration met a coincidence: only presentations that the "
    "Felsch strategy closes without one are enumerated"
)


class _Felsch:
    """The Felsch strategy over the trivial subgroup (Holt-Eick-O'Brien,
    Handbook of Computational Group Theory, 2005, 5.1-5.3), for
    presentations it closes without a coincidence.

    Each new table entry is a deduction; a deduction (k, x) with k.x = m is
    processed by scanning, at k, every cyclic conjugate of a relator or its
    inverse that starts with x, and at m every one that starts with x^-1.
    A scan that leaves one gap fills it, which is a further deduction.

    A relator of one run is a power relator x^r.  A generator x with a
    relator x^1 (or powers of gcd 1) fixes every coset: each row is made
    with k.x = k, and those entries are deductions like any other.  Power
    relators x^r (r >= 2) are never scanned.  The x-edges of the table form
    chains and cycles; each power column keeps its chains as
    head -> (tail, length) and tail -> head, and a new x-edge updates them
    in O(1).  A chain of r cosets closes into a cycle.

    No entry is ever withdrawn.  A scan that finds two names for one coset,
    a chain longer than r or a cycle whose length does not divide r is a
    coincidence, and it raises ValueError.  Every triangle presentation
    that ``triangle_table`` enumerates closes without one, as
    tests/coset_domain_sweep.py checks type by type.
    """

    def __init__(self, pres: Presentation, max_cosets: int):
        self.ncols = 2 * pres.ngens
        self.max_cosets = max_cosets
        self.table: list[list] = []
        self.deductions: list[tuple[int, int]] = []
        exponents: dict[int, int] = {}
        scanned = []
        for rel in pres.relators:
            if len(rel) == 1:
                ((x, r),) = rel
                col = _column(abs(x))
                exponents[col] = gcd(exponents.get(col, 0), r)
            else:
                scanned.append(tuple(x for x, count in rel for _ in range(count)))
        # x^r and x^s together say x^gcd(r, s) = 1; x^1 fixes every coset.
        self.trivial = [col for col, r in exponents.items() if r == 1]
        for col in self.trivial:
            del exponents[col]
        self.power = exponents
        # per power column (the generator's column): heads, tails
        self.chains = {col: ({}, {}) for col in exponents}
        self.conjugates: list[list[tuple[int, ...]]] = [[] for _ in range(self.ncols)]
        seen = set()
        for rel in scanned:
            for word in (rel, tuple(-x for x in reversed(rel))):
                cols = tuple(_column(x) for x in word)
                for i in range(len(cols)):
                    w = cols[i:] + cols[:i]
                    if w not in seen:
                        seen.add(w)
                        self.conjugates[w[0]].append(w)
        self._new_row()

    # -- setting entries -----------------------------------------------------
    def _put(self, a: int, col: int, b: int) -> None:
        """a.x = b for the letter x of ``col``: a deduction."""
        self.table[a][col] = b
        self.table[b][col ^ 1] = a
        self.deductions.append((a, col))

    def _set(self, a: int, col: int, b: int) -> None:
        """``_put``, and the new edge joins the chains of a power column."""
        self._put(a, col, b)
        x = col & ~1
        if x in self.chains:
            if col == x:
                self._link(x, a, b)
            else:
                self._link(x, b, a)

    def _new_row(self) -> int:
        """Append a coset k, with k.x = k for each generator x = 1."""
        k = len(self.table)
        self.table.append([None] * self.ncols)
        for col in self.trivial:
            self._put(k, col, k)
        return k

    def _link(self, x: int, a: int, b: int) -> None:
        """Record the new x-edge a -> b: a was the tail of its chain (or
        alone), b the head of its chain (or alone)."""
        heads, tails = self.chains[x]
        r = self.power[x]
        h = tails.pop(a, a)
        if h == b:  # the chain from b to a closes into a cycle
            length = heads.pop(b)[1] if a != b else 1
            if r % length:
                raise ValueError(_COINCIDENCE)
            return
        la = heads.pop(h)[1] if h != a else 1
        t, lb = heads.pop(b, (b, 1))
        tails.pop(t, None)
        length = la + lb
        if length < r:
            heads[h] = (t, length)
            tails[t] = h
        elif length == r:
            self._put(t, x, h)
        else:
            raise ValueError(_COINCIDENCE)

    # -- scanning and deductions ---------------------------------------------
    def _scan(self, k: int, w: tuple[int, ...]) -> None:
        table = self.table
        f, i, j = k, 0, len(w) - 1
        while i <= j and table[f][w[i]] is not None:
            f = table[f][w[i]]
            i += 1
        if i > j:
            if f != k:
                raise ValueError(_COINCIDENCE)
            return
        b = k
        while j >= i and table[b][w[j] ^ 1] is not None:
            b = table[b][w[j] ^ 1]
            j -= 1
        if j < i:  # f.w[i] is empty where b.w[i] is not, so f != b
            raise ValueError(_COINCIDENCE)
        if i == j:
            self._set(f, w[i], b)

    def _process_deductions(self) -> None:
        table, stack, conjugates = self.table, self.deductions, self.conjugates
        while stack:
            k, col = stack.pop()
            for w in conjugates[col]:
                self._scan(k, w)
            m = table[k][col]
            for w in conjugates[col ^ 1]:
                self._scan(m, w)

    def run(self) -> CosetTable:
        self._process_deductions()
        table = self.table
        alpha = 0
        while alpha < len(table):
            row = table[alpha]
            if None not in row:
                alpha += 1
                continue
            if len(table) >= self.max_cosets:
                raise ValueError("coset enumeration overflowed the coset bound")
            self._set(alpha, row.index(None), self._new_row())
            self._process_deductions()
        return CosetTable(self.ncols // 2, table)


def enumerate_cosets(pres: Presentation) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup (the regular action),
    in a table of at most MAX_COSETS rows; ValueError if the enumeration
    meets a coincidence or needs more rows."""
    return _Felsch(pres, MAX_COSETS).run()


# ---------------------------------------------------------------------------
# Triangle groups


def spherical_triangle_order(p: int, q: int, r: int):
    """The order of the triangle group T(p, q, r), or None when the triple
    is not spherical (ValueError for an entry below 1).

    With every entry >= 2 it is the closed form 2/(1/p + 1/q + 1/r - 1),
    read in integers: with s = qr + pr + pq - pqr, so that the excess
    1/p + 1/q + 1/r - 1 is s/pqr, the type is spherical when s > 0 and its
    order is 2pqr/s.  With an entry 1, a = 1 say, c = b^-1 and the group is
    <b | b^q, b^r>, cyclic of order gcd(q, r): the gcd of the two other
    entries.
    """
    if min(p, q, r) < 1:
        raise ValueError("triangle parameters must be positive")
    if min(p, q, r) == 1:
        return gcd(*sorted((p, q, r))[1:])
    pqr = p * q * r
    s = q * r + p * r + p * q - pqr
    if s <= 0:
        return None
    order, rest = divmod(2 * pqr, s)
    if rest:
        raise ValueError(f"non-integral spherical order for {(p, q, r)}")
    return order


def triangle_presentation(p: int, q: int, r: int) -> Presentation:
    """<a, b, c | a^p, b^q, c^r, abc>, each power relator one run.

    With an entry 1 the group is cyclic of order g, and x^g is added for
    each generator whose power relator is neither x^g nor x^1: a Tietze
    move that spares the enumeration the cosets of the longer powers.
    """
    g = spherical_triangle_order(p, q, r)
    relators = [((1, p),), ((2, q),), ((3, r),), ((1, 1), (2, 1), (3, 1))]
    if min(p, q, r) == 1:
        relators += [((x, g),) for x, e in enumerate((p, q, r), 1) if e not in (1, g)]
    return Presentation(3, tuple(relators))


def triangle_table(p: int, q: int, r: int) -> CosetTable:
    order = spherical_triangle_order(p, q, r)
    if order is None:
        raise ValueError(f"triangle type {(p, q, r)} is not spherical")
    # A complete table has one row per element and at most MAX_COSETS rows.
    if order > MAX_COSETS:
        raise ValueError(f"triangle group {(p, q, r)} overflowed the coset bound")
    return enumerate_cosets(triangle_presentation(p, q, r))


def coset_group(table: CosetTable):
    """The finite group defined by a table, as permutations of the cosets
    (the regular action, so |group| = number of cosets)."""
    n = table.n_cosets
    gens = [word_permutation(table, ((g + 1, 1),)) for g in range(table.ngens)]
    return close(gens, n, identity=tuple(range(n)), mul=_then, inv=_inverse_permutation)


def _inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def triangle_group(p: int, q: int, r: int):
    """The spherical (p, q, r) triangle group as a permutation FinGroup."""
    return coset_group(triangle_table(p, q, r))


def _then(s, t) -> tuple[int, ...]:
    """The permutation s followed by t, i -> t[s[i]], for lists or tuples.

    ``itemgetter(*s)(t)`` builds the tuple in one call, about half the time
    of ``tuple([t[i] for i in s])`` at 60 and at 1 200 points.  On fewer
    than two points it returns a bare item, not a tuple, so the
    comprehension stays there (T(3, 1, 1) has one coset)."""
    if len(s) > 1:
        return itemgetter(*s)(t)
    return tuple([t[i] for i in s])


def word_permutation(table: CosetTable, word) -> tuple[int, ...]:
    """i -> i.word on the cosets, for a word given as text or as runs
    (letter, count): each run raises its column to the count by
    square-and-multiply and composes it onto the whole coset vector."""
    if isinstance(word, str):
        word = parse_word(word, table.ngens)
    columns: dict[int, list[int]] = {}
    perm = tuple(range(table.n_cosets))
    for letter, count in word:
        col = _column(letter)
        if col not in columns:
            columns[col] = [row[col] for row in table.rows]
            if None in columns[col]:
                raise ValueError("incomplete table")
        perm = _then(perm, power(columns[col], count, _then))
    return perm


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
    word: str,
    source: tuple[int, int, int],
    target: tuple[int, int, int] | None = None,
) -> int:
    """Order of the image of a source-triangle-group word under the natural
    epimorphism a->a, b->b, c->c onto the (spherical) target group.

    With no target the order is taken in the source group itself (which
    must then be spherical).  The word is parsed before any enumeration.
    """
    runs = parse_word(word)
    if target is None:
        target = source
    if not natural_epimorphism_valid(source, target):
        raise ValueError(f"no natural epimorphism {source} -> {target}")
    table = triangle_table(*target)
    return permutation_order(word_permutation(table, runs))


def triangle_word_images(ptype: tuple[int, int, int], words):
    """The (p,q,r) permutation group together with the images of the given
    words, for conjugacy questions."""
    table = triangle_table(*ptype)
    G = coset_group(table)
    return G, [word_permutation(table, w) for w in words]
