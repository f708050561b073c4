"""Exact arithmetic for 2-bridge link slopes, Heckoid and dihedral
orbifolds as weighted graphs, quaternionic isometry groups of the
3-sphere, rigid-cusp translation lattices and triangle-group coset
enumeration.

Everything is integer / Fraction exact; no floating point enters any
computation.

The public names below are loaded on first use (PEP 562): ``import pa``
loads no submodule, and ``pa.gamma`` or ``from pa import gamma`` imports
``pa.dihedral`` then.  So a command that needs one layer, such as
``pa link``, loads only that layer.
"""

import importlib

__version__ = "1.0.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "cosetenum": (
        "CosetTable", "Presentation", "enumerate_cosets", "image_order", "parse_word",
        "spherical_triangle_order", "triangle_group", "triangle_presentation",
    ),
    "cusplattice": (
        "EucIsometry", "EucLattice", "LatticeVector", "PointGroupOrbit", "T236", "T244",
        "brenner_candidates", "evaluate_word", "spectrum",
    ),
    "dihedral": (
        "DihedralParams", "exceptional_isom", "gamma", "normalizer", "orbifold",
        "params_for", "solve_k",
    ),
    "groups": ("FinGroup", "GroupOverflow", "close", "dihedral_degree", "recognize"),
    "orbigraph": (
        "Edge", "H1Z2Report", "INF", "ParedOrbifoldDescriptor", "WeightedGraphOrbifold",
        "canonical_key", "check_sc", "h1_z2", "make_dihedral", "make_exterior",
        "make_heckoid", "surger",
    ),
    "quat": ("Isom3", "J", "J1", "J2", "L", "QuatExt"),
    "slopes": (
        "EquivalenceVerdict", "INF_SLOPE", "Slope", "canonical", "components",
        "continued_fraction", "equivalence", "hat", "is_hyperbolic", "parse_slope", "slope",
    ),
    "verify": ("CheckResult", "run_checks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
