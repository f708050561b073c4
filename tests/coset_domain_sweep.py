"""Enumerate every triangle type ``pa`` can be asked to enumerate, and stop
at the first one that raises or whose table does not have one row per
element.

It needs only the standard library and the package.  From the repository
root:

    PYTHONPATH=src python3 tests/coset_domain_sweep.py

The enumerator processes no coincidences, so this sweep is what shows it
answers every triangle query.  The domain below is every input, at the
default coset limit:

- ``cosetenum.enumerate_cosets`` is called only by ``triangle_table``, which
  refuses a non-spherical type, and a type whose order is past
  ``MAX_COSETS``, before it enumerates.
- A spherical type with every entry >= 2 is (2, 2, r), (2, 3, 3), (2, 3, 4)
  or (2, 3, 5) in some order.  T(2, 2, r) has order 2r, so r <= 5000.
- A type with an entry 1 is cyclic of order g, the gcd of the other two
  entries, so g <= 10000.  Its presentation adds x^g for each generator
  whose power is neither x^1 nor x^g, and the enumerator folds each
  column's power relators to their gcd.  Every entry 1 thus becomes a
  trivial column and every other entry the power g, so the type runs
  exactly like the pattern with its 1s in place and g everywhere else:
  (1, g, g), (g, 1, g), (g, g, 1), or one with two 1s and g = 1.
- A lower coset limit only stops the same run earlier, at overflow.

So the sweep covers every spherical type with entries <= 60, (2, 2, r) in
its three orders for 61 <= r <= 5000, and (1, g, g), (g, 1, g), (g, g, 1)
for 61 <= g <= 10000.  Exits 0 when every type completes at its order, 1 at
the first that does not (printing the type and the error or row count).
"""

import sys
import time

from pa import cosetenum


def domain():
    box = range(1, 61)
    for p in box:
        for q in box:
            for r in box:
                if cosetenum.spherical_triangle_order(p, q, r) is not None:
                    yield p, q, r
    for r in range(61, cosetenum.MAX_COSETS // 2 + 1):
        yield from ((2, 2, r), (2, r, 2), (r, 2, 2))
    for g in range(61, cosetenum.MAX_COSETS + 1):
        yield from ((1, g, g), (g, 1, g), (g, g, 1))


def sweep() -> int:
    checked = 0
    start = time.perf_counter()
    for ptype in domain():
        order = cosetenum.spherical_triangle_order(*ptype)
        try:
            rows = cosetenum.triangle_table(*ptype).n_cosets
        except ValueError as err:
            print(f"{ptype}: {err}")
            return 1
        if rows != order:
            print(f"{ptype}: {rows} rows, order {order}")
            return 1
        checked += 1
    seconds = time.perf_counter() - start
    print(f"{checked} triangle types complete at their order, in {seconds:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(sweep())
