"""Exact quaternionic isometries: the dihedral orbifold groups Gamma, their
normalizers, and the finite isometry groups of the quotient orbifolds."""

from pa.dihedral import (
    exceptional_isom,
    gamma,
    normalizer,
    orbifold,
    params_for,
)
from pa.groups import dihedral_degree, recognize
from pa.slopes import slope


def main():
    print("== Gamma(2/5; 2, 3): the order law |Gamma| = 2*p*d+*d- ==")
    params = params_for(slope("2/5"), 2, 3)
    G, cert = gamma(params)
    print(f"  k1={params.k1} k2={params.k2}")
    print(f"  |Gamma| = {len(G)} = 2*5*2*3, recognized as D{dihedral_degree(G)}")
    print(f"  certificate: {cert}")

    Q = normalizer(params, G)  # N(Gamma)/Gamma, found from Gamma's cosets
    print(f"  |N(Gamma)| = {len(G) * len(Q)}, index {len(Q)}")

    print("\n== isometry groups across the case table ==")
    for r_text, d1, d2 in [("2/7", 1, 3), ("4/15", 1, 1), ("5/12", 1, 1), ("3/10", 1, 1)]:
        _, _, tag, quotient = orbifold(slope(r_text), d1, d2)
        size = f", realized with {len(quotient)} elements" if quotient else ""
        print(f"  Isom+ O({r_text};{d1},{d2}) = {tag}{size}")

    print("\n== the exceptional trivial theta-orbifold ==")
    Q, details = exceptional_isom()
    print(f"  quotient order {len(Q)}, type {recognize(Q)}")
    print(f"  details: {details}")


if __name__ == "__main__":
    main()
