"""Build the Heckoid and dihedral weighted-graph orbifolds, inspect their
structure, and apply orbifold surgery to move between families."""

import json
from fractions import Fraction

from pa.orbigraph import (
    canonical_key,
    graph_to_json,
    make_dihedral,
    make_exterior,
    make_heckoid,
    surger,
)
from pa.slopes import slope


def show(desc):
    weights = {e.id: str(e.weight) for e in desc.graph.edges()}
    print(f"  key={canonical_key(desc)}  family={desc.family}")
    print(f"  edges: {weights}")
    print(f"  parabolic locus: {sorted(desc.parabolic_edges) or '(empty)'}")


def main():
    print("== the three Heckoid families ==")
    for r_text, n in [("2/5", Fraction(3)), ("3/5", Fraction(5, 2)), ("3/8", Fraction(5, 2))]:
        desc = make_heckoid(slope(r_text), n)
        print(f"make_heckoid({r_text}, {n}):")
        show(desc)

    print("\n== dihedral family and the link exterior ==")
    show(make_dihedral(slope("2/5"), 2, 3))
    show(make_exterior(slope("3/8")))

    print("\n== surgery: filling the parabolic arcs of M0(2/5;3) ==")
    m0 = make_heckoid(slope("2/5"), Fraction(3))
    filled = surger(m0.graph, {"K1": 2, "K2": 2})
    target = make_dihedral(slope("2/5"), 1, 3).graph
    print(f"  surgered graph == O(2/5;1,3) graph?  {filled == target}")

    smoothed = surger(m0.graph, {"tminus": 1})
    print(f"  weight-1 surgery on the tunnel leaves: "
          f"{len(smoothed.vertex_ids())} vertex, {len(smoothed.edges())} edge")

    print("\n== graphs serialize to JSON ==")
    blob = json.dumps(graph_to_json(make_exterior(slope("2/5")).graph))
    print(f"  {blob}")


if __name__ == "__main__":
    main()
