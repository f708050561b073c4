"""Compare the one-step element kernels of ``pa`` with the forms they
replaced, kept in ``tests/oracles.py``, and stop at the first difference.

It needs only the standard library and the package.  From the repository
root:

    PYTHONPATH=src python3 tests/element_kernel_sweep.py --max-denominator 60

The sweeps:

- ``Isom3`` products: every canonical key with denominator D at most the
  bound, times 1, J, J1 and J2 (the flags-only step) and times a seeded
  sample of keys from the same range, in both orders, against the
  common-denominator form.  Each product must also be a canonical key.
- ``Isom3`` inverses: every such key, against the constructor over 2D.
- ``QuatExt`` products: all pairs from the 48 elements of the binary
  octahedral group and 200 seeded quaternions with small coordinates, most
  of them not units.  Both forms must give the same product or raise the
  same ``ArithmeticError`` text.
- ``cosetenum._then``: seeded permutations of 0, 1, 2 and 60 points, as
  tuples and as lists, against the comprehension; the result must be a
  tuple.
- ``groups.quotient_group``: every table that ``pa verify``'s dihedral pass
  builds, two at each of its 218 points, against the table keyed by label
  pairs: elements, identity, every product, inverse and membership.

Exits 0 when every sweep agrees, printing the counts; 1 at the first
mismatch, printing it.
"""

import argparse
import random
import sys
import time

import oracles
from pa import cosetenum, dihedral, groups, verify
from pa.quat import ISOM_ID, J, J1, J2, Q_ONE, Q_S, Q_W, Isom3, QuatExt


class Mismatch(AssertionError):
    """The new kernel and the replaced form disagree."""


def _agree(what, args, new, old):
    if new != old or type(new) is not type(old):
        raise Mismatch(f"{what}{args!r}: {new!r} against {old!r}")


def isom3_keys(max_denominator):
    """Every canonical Isom3 key with denominator at most the bound, once."""
    keys = dict.fromkeys(
        Isom3(D, a1, j1, a2, j2)
        for D in range(1, max_denominator + 1)
        for a1 in range(D)
        for a2 in range(D)
        for j1 in (False, True)
        for j2 in (False, True)
    )
    return [key for key in keys if key[0] <= max_denominator]


def isom3_products(max_denominator, seed=1, sample=4):
    keys = isom3_keys(max_denominator)
    rng = random.Random(seed)
    count = 0
    for x in keys:
        for y in (ISOM_ID, J, J1, J2, *rng.sample(keys, min(sample, len(keys)))):
            for a, b in ((x, y), (y, x)):
                new = a * b
                _agree("Isom3 product", (a, b), new, oracles.isom3_mul_by_lcm(a, b))
                _agree("canonical key", (new,), Isom3(*new), new)
                count += 1
    return count


def isom3_inverses(max_denominator):
    count = 0
    for x in isom3_keys(max_denominator):
        _agree("Isom3 inverse", (x,), x.inv(), oracles.isom3_inv_by_doubling(x))
        count += 1
    return count


def _product_or_error(mul, p, q):
    try:
        return mul(p, q)
    except ArithmeticError as err:
        return f"ArithmeticError: {err}"


def quatext_products(seed=1, extra=200):
    octahedral = groups.close(
        [Q_S, Q_W], 96, identity=Q_ONE, mul=oracles.quatext_mul_by_hamilton
    ).elements
    rng = random.Random(seed)
    others = [QuatExt(*(rng.randint(-3, 3) for _ in range(8))) for _ in range(extra)]
    elements = [*octahedral, *others]
    count = 0
    for p in elements:
        for q in elements:
            _agree(
                "QuatExt product",
                (p, q),
                _product_or_error(QuatExt.__mul__, p, q),
                _product_or_error(oracles.quatext_mul_by_hamilton, p, q),
            )
            count += 1
    return count


def then_compositions(seed=1, rounds=20):
    rng = random.Random(seed)
    count = 0
    for n in (0, 1, 2, 60):
        for _ in range(rounds):
            s, t = list(range(n)), list(range(n))
            rng.shuffle(s)
            rng.shuffle(t)
            for a, b in ((s, t), (tuple(s), tuple(t)), (tuple(s), t)):
                _agree("_then", (a, b), cosetenum._then(a, b), oracles.then_by_comprehension(a, b))
                count += 1
    return count


def quotient_tables():
    """Record the (labels, cosets) of every quotient that the dihedral pass
    of checks 1-3 builds, then build each in both forms and compare."""
    recorded = []
    build = groups.quotient_group

    def record(labels, cosets):
        recorded.append((labels, cosets))
        return build(labels, cosets)

    groups.quotient_group = dihedral.quotient_group = record
    try:
        results = verify.run_checks(["dihedral-order", "isometry-groups", "normalizer-soundness"])
    finally:
        groups.quotient_group = dihedral.quotient_group = build
    if not all(result.ok for result in results):
        raise Mismatch(f"the dihedral pass failed: {[r.check_id for r in results if not r.ok]}")
    for labels, cosets in recorded:
        new, old = build(labels, cosets), oracles.quotient_group_by_pairs(labels, cosets)
        _agree("quotient elements", (labels,), new.elements, old.elements)
        _agree("quotient identity", (labels,), new.identity, old.identity)
        for a in labels:
            _agree("quotient inverse", (a,), new.inv(a), old.inv(a))
            _agree("quotient membership", (a,), a in new, a in old)
            for b in labels:
                _agree("quotient product", (a, b), new.mul(a, b), old.mul(a, b))
    return len(recorded)


def sweep(max_denominator, seed=1) -> int:
    start = time.perf_counter()
    try:
        counts = {
            "Isom3 products": isom3_products(max_denominator, seed),
            "Isom3 inverses": isom3_inverses(max_denominator),
            "QuatExt products": quatext_products(seed),
            "_then compositions": then_compositions(seed),
            "quotient tables": quotient_tables(),
        }
    except Mismatch as err:
        print(err)
        return 1
    seconds = time.perf_counter() - start
    done = ", ".join(f"{n} {what}" for what, n in counts.items())
    print(f"D <= {max_denominator}: {done} agree, in {seconds:.1f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-denominator", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    return sweep(args.max_denominator, args.seed)


if __name__ == "__main__":
    sys.exit(main())
