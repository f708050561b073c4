"""Seeded operation streams for the three workloads.

A stream is one round of a workload: a list of ``Op`` records, each one
``pa`` command line plus what the checks need to know about it.  The same
seed always gives the same stream.  Nothing here imports ``pa``; the
streams are built from the definitions alone.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from math import gcd


@dataclass
class Op:
    kind: str  # e.g. "dihedral.fresh", "link.cf", "triangle.order"
    argv: list
    info: dict = field(default_factory=dict)
    attempted: int = 1  # operations this command stands for


WORKLOADS = ("paper-replay", "dihedral-session", "combinatorics-mix")


def coprime_q(rng: random.Random, p: int, lo: int = 0) -> int:
    """A q in [lo, p) coprime to p (q = 0 when p = 1)."""
    if p == 1:
        return 0
    while True:
        q = rng.randrange(max(lo, 1), p)
        if gcd(q, p) == 1:
            return q


def log_grid(count: int, lo: float, hi: float) -> list[int]:
    """The midpoints of ``count`` log-spaced strata of [lo, hi].  Costs
    follow these sizes, so they are the same for every seed; the seed
    decides everything else about a point."""
    ratio = math.log(hi / lo)
    return [int(round(lo * math.exp(ratio * (i + 0.5) / count))) for i in range(count)]


def uniform_grid(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of ``count`` equal-width strata of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + 0.5)) for i in range(count)]


# ---------------------------------------------------------------------------
# paper-replay


def paper_replay(seed: int) -> list[Op]:
    """`pa verify --all` once; its 12 checks are the operations.  The
    replay has no free inputs, so the seed does not change it."""
    return [Op("verify.all", ["verify", "--all", "--json"], {}, attempted=12)]


# ---------------------------------------------------------------------------
# dihedral-session

DIHEDRAL_N_MAX = 200
# Make-up of one 160-query round.  A theta query costs about as much as
# forty fresh ones, so a round holds one in each order of the indices;
# that keeps a round short enough for a run to repeat it.
DIHEDRAL_SHARES = {
    "theta": 2,  # trivial theta-orbifold, one in each order of the indices
    "d11": 20,  # (d1, d2) = (1, 1): answered by congruences, p on a log grid
    "fresh": 80,  # first visits, n on a log grid over [4, 200]
    "partner": 8,  # (q'/p; d2, d1) of a fresh point, q*q' = 1 mod p
    "near": 42,  # repeats of a fresh point 1-8 queries later: within reach
    "far": 8,  # repeats after at least 64 other normalizer points: beyond
}
NEAR_REACH = 32
FAR_REACH = 64


def _split_coprime(m: int, rng: random.Random) -> tuple[int, int]:
    """Split m into a coprime ordered pair (d1, d2) with d1*d2 = m."""
    powers, x, f = [], m, 2
    while f * f <= x:
        if x % f == 0:
            pk = 1
            while x % f == 0:
                x //= f
                pk *= f
            powers.append(pk)
        f += 1
    if x > 1:
        powers.append(x)
    d1 = 1
    for pk in powers:
        if rng.random() < 0.5:
            d1 *= pk
    return d1, m // d1


def _fresh_point(n: int, rng: random.Random, seen: set) -> tuple[int, int, int, int]:
    """An unvisited (q, p, d1, d2) with p*d1*d2 = n, (d1, d2) != (1, 1) and
    not the trivial theta-orbifold; moves to n + 1 if n is used up."""
    while True:
        divisors = [p for p in range(1, n) if n % p == 0]  # p < n keeps d1*d2 > 1
        for _ in range(40):
            p = rng.choice(divisors)
            d1, d2 = _split_coprime(n // p, rng)
            q = coprime_q(rng, p)
            if p == 1 and {d1, d2} == {1, 2}:
                continue
            if (q, p, d1, d2) not in seen:
                return (q, p, d1, d2)
        n += 1


def _mate(pt: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """(q'/p; d2, d1) with q*q' = 1 mod p: the same orbifold, other order."""
    q, p, d1, d2 = pt
    return (pow(q, -1, p) if p > 1 else 0, p, d2, d1)


def dihedral_session(seed: int) -> list[Op]:
    """First visits on fixed n and p grids, with the roles of the fresh
    points fixed by their place on the grid: which get a near repeat, a far
    repeat or a partner.  The seed decides the points themselves (q and how
    n splits) and the order.  So the cost of a round hardly depends on it."""
    rng = random.Random(f"dihedral-session/{seed}")
    shares = DIHEDRAL_SHARES
    n_fresh = shares["fresh"]
    far = set(range(5, n_fresh, n_fresh // shares["far"]))
    partner = set(range(0, n_fresh, n_fresh // shares["partner"]))
    rest = [i for i in range(n_fresh) if i not in far | partner]
    near = {rest[k * len(rest) // shares["near"]] for k in range(shares["near"])}

    seen: set = set()
    points = []
    for i, n in enumerate(log_grid(n_fresh, 4, DIHEDRAL_N_MAX)):
        pt = _fresh_point(n, rng, seen)
        while i in partner and _mate(pt) in seen:
            seen.add(pt)
            pt = _fresh_point(n, rng, seen)
        seen.add(pt)
        if i in partner:
            seen.add(_mate(pt))
        points.append(pt)

    # far subjects come among the first 16 first visits, so at least 64
    # other points are visited before their repeat
    order = list(range(n_fresh))
    rng.shuffle(order)
    early = [i for i in order if i in far] + [i for i in order if i not in far][:8]
    rng.shuffle(early)
    fresh_order = iter(early + [i for i in order if i not in early])
    d11_p = log_grid(shares["d11"], 1, DIHEDRAL_N_MAX)
    rng.shuffle(d11_p)
    theta_orders = [(1, 2), (2, 1)] * (shares["theta"] // 2)
    rng.shuffle(theta_orders)
    base = ["theta"] * shares["theta"] + ["d11"] * shares["d11"] + ["fresh"] * n_fresh
    rng.shuffle(base)

    ops: list[Op] = []
    generic: list = []  # points visited so far that build a normalizer
    pending: list = []  # [due position or None, kind, subject index, visit]

    def ready(item) -> bool:
        due, kind, i, visit = item
        if kind == "far":
            return len(set(generic[visit + 1:])) >= FAR_REACH
        return len(ops) >= due

    def emit(kind, pt, **info):
        q, p, d1, d2 = pt
        info.update(q=q, p=p, d1=d1, d2=d2)
        ops.append(Op(f"dihedral.{kind}", ["dihedral", f"{q}/{p}", str(d1), str(d2), "--json"], info))

    while base or pending:
        item = next((it for it in pending if ready(it)), None)
        if item is not None or not base:
            item = item or pending[0]
            pending.remove(item)
            _, kind, i, _ = item
            pt = _mate(points[i]) if kind == "partner" else points[i]
            generic.append(pt)
            emit(kind, pt, **({"partner_of": points[i]} if kind == "partner" else {}))
            continue
        kind = base.pop()
        if kind == "theta":
            d1, d2 = theta_orders.pop()
            emit(kind, (rng.randrange(4), 1, d1, d2))
        elif kind == "d11":
            p = d11_p.pop()
            while (pt := (coprime_q(rng, p), p, 1, 1)) in seen:
                p += 1
            seen.add(pt)
            emit(kind, pt)
        else:
            i = next(fresh_order)
            generic.append(points[i])
            emit(kind, points[i])
            if i in near:
                pending.append([len(ops) + rng.randint(1, 8), "near", i, None])
            if i in partner:
                pending.append([len(ops) + rng.randint(1, 30), "partner", i, None])
            if i in far:
                pending.append([None, "far", i, len(generic) - 1])
    return ops


# ---------------------------------------------------------------------------
# combinatorics-mix

# Make-up of one 1000-command round.
MIX_SHARES = {
    "link.classify": 100,
    "link.equiv": 100,
    "link.cf": 100,
    "link.hat": 100,
    "heckoid": 100,
    "homology": 150,
    "cusp.spectrum": 100,
    "cusp.brenner": 50,
    "triangle.order": 120,
    "triangle.image": 80,
}
MIX_P_MAX = 200
CUSP_COUNT_MAX = 24
GRAPH_FILES = 24
GRAPH_VERTICES_MAX = 80
# Triangle queries: 100 type slots, each asked about twice with new words.
# An eighth of the slots are large dihedral types: 6 on a grid over
# LARGE_R and 6 at its top, so that the 11th slowest command of a round,
# its tail, is one of a cluster of twelve like queries and not a single
# one.  A quarter are small dihedral types on a grid over SMALL_R, and the
# rest cycle through the polyhedral types.
LARGE_R = (100, 600)
LARGE_TOP = 6
LARGE_SHARE = 8  # one slot in LARGE_SHARE is a large dihedral type
SMALL_R = (3, 30)
POLYHEDRAL = ((2, 3, 3), (2, 3, 4), (2, 3, 5))


def random_word(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 6)):
        letter = rng.choice("abcABC")
        count = rng.randint(1, 9)
        if count == 1:
            parts.append(letter)
        else:
            parts.append(letter + rng.choice(("", "^")) + str(count))
    return "".join(parts)


def _equiv_partner(rng: random.Random, q: int, p: int) -> tuple[int, int]:
    """A second slope that is, in turn, the same, inverse, mirror, mirror
    inverse, planar shift, unrelated, or of another denominator."""
    qinv = pow(q, -1, p) if p > 1 else 0
    choice = rng.randrange(7)
    if choice == 0:
        return q, p
    if choice == 1:
        return qinv, p
    if choice == 2:
        return (-q) % p, p
    if choice == 3:
        return (-qinv) % p, p
    if choice == 4:
        return q + p, p
    if choice == 5:
        return coprime_q(rng, p), p
    p2 = rng.randint(1, MIX_P_MAX)
    return coprime_q(rng, p2), p2


def _triangle_types(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """One spherical type per slot, in a seeded order."""
    n_large, n_small = count // LARGE_SHARE, count // 4
    large = uniform_grid(n_large - LARGE_TOP, *LARGE_R) + [LARGE_R[1]] * LARGE_TOP
    small = uniform_grid(n_small, *SMALL_R)
    types = [(2, 2, r) for r in large + small]
    types += [POLYHEDRAL[i % 3] for i in range(count - n_large - n_small)]
    rng.shuffle(types)
    return types


def cubic_graph(rng: random.Random, vertices: int, name: str) -> dict:
    """A random trivalent multigraph (loops and multiple edges allowed) as
    an OrbiGraph JSON object, weights drawn from 2..6 and inf."""
    stubs = [v for v in range(vertices) for _ in range(3)]
    rng.shuffle(stubs)
    edges = []
    for k in range(0, len(stubs), 2):
        a, b = stubs[k], stubs[k + 1]
        weight = rng.choice(("2", "3", "4", "5", "6", "inf"))
        edges.append({"id": f"e{k // 2}", "ends": [f"v{a}", f"v{b}"], "weight": weight})
    return {
        "ambient": "S3",
        "name": name,
        "vertices": [{"id": f"v{v}", "boundary": False} for v in range(vertices)],
        "edges": edges,
    }


def graph_sizes() -> list[int]:
    """Even vertex counts on a grid over [2, 80]."""
    return [2 * k for k in uniform_grid(GRAPH_FILES, 1, GRAPH_VERTICES_MAX // 2)]


def write_graphs(seed: int, workdir: str) -> list[str]:
    """Write the workload's graph files; returns their paths."""
    rng = random.Random(f"combinatorics-mix/graphs/{seed}")
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for i, size in enumerate(graph_sizes()):
        path = os.path.join(workdir, f"graph{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cubic_graph(rng, size, f"g{i}"), fh)
        paths.append(path)
    return paths


def combinatorics_mix(seed: int, graph_paths: list[str]) -> list[Op]:
    rng = random.Random(f"combinatorics-mix/{seed}")
    kinds = [k for k, c in MIX_SHARES.items() for _ in range(c)]
    rng.shuffle(kinds)
    n_tri = MIX_SHARES["triangle.order"] + MIX_SHARES["triangle.image"]
    # every slot is asked about twice, each time with a new word; a query
    # reuses a type when an earlier query of the round had the same one
    fresh_types = _triangle_types(rng, n_tri // 2)
    pairs = [(t, tuple(x * rng.randint(1, 3) for x in t)) for t in fresh_types]
    visits = [i for i in range(len(pairs)) for _ in range(2)]
    rng.shuffle(visits)
    asked: set = set()
    # every graph file equally often, cusp counts stratified over 1..max
    n_hom = MIX_SHARES["homology"]
    graph_visits = (graph_paths * (n_hom // len(graph_paths) + 1))[:n_hom]
    rng.shuffle(graph_visits)
    counts = uniform_grid(MIX_SHARES["cusp.spectrum"], 1, CUSP_COUNT_MAX)
    rng.shuffle(counts)
    ops: list[Op] = []
    for kind in kinds:
        if kind.startswith("link.") or kind == "heckoid":
            p = rng.randint(1, MIX_P_MAX)
            q = coprime_q(rng, p)
            if kind == "link.cf":
                q = p if p == 1 else coprime_q(rng, p, lo=1)  # 0 < q/p <= 1
            if kind == "link.equiv":
                q2, p2 = _equiv_partner(rng, q, p)
                argv = ["link", "equiv", f"{q}/{p}", f"{q2}/{p2}", "--json"]
                info = {"q": q, "p": p, "q2": q2, "p2": p2}
            elif kind == "heckoid":
                twice = rng.randint(3, 15)
                index = str(twice // 2) if twice % 2 == 0 else f"{twice}/2"
                argv = ["heckoid", f"{q}/{p}", index, "--json"]
                info = {"q": q, "p": p, "twice": twice}
            else:
                argv = ["link", kind.split(".")[1], f"{q}/{p}", "--json"]
                info = {"q": q, "p": p}
        elif kind == "homology":
            path = graph_visits.pop()
            argv = ["homology", path, "--json"]
            info = {"path": path}
        elif kind == "cusp.spectrum":
            label = rng.choice(("244", "236", "T244", "T236"))
            count = counts.pop()
            argv = ["cusp", label, "--count", str(count), "--json"]
            info = {"kind": "T" + label.lstrip("T"), "count": count}
        elif kind == "cusp.brenner":
            label = rng.choice(("244", "236", "T244", "T236"))
            argv = ["cusp", label, "--brenner", "--json"]
            info = {"kind": "T" + label.lstrip("T")}
        else:
            index = visits.pop()
            target, source = pairs[index]
            reuse = target in asked
            asked.add(target)
            word = random_word(rng)
            if kind == "triangle.order":
                argv = ["triangle", "order", " ".join(map(str, target)), word, "--json"]
            else:
                arrow = f"{','.join(map(str, source))} -> {','.join(map(str, target))}"
                argv = ["triangle", "image", arrow, word, "--json"]
            info = {"target": target, "word": word, "reuse": reuse}
        ops.append(Op(kind, argv, info))
    return ops
