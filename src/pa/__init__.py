"""Exact arithmetic for 2-bridge link slopes, Heckoid and dihedral
orbifolds as weighted graphs, quaternionic isometry groups of the
3-sphere, rigid-cusp translation lattices and triangle-group coset
enumeration.

Everything is integer / Fraction exact; no floating point enters any
computation.

``import pa`` loads no submodule and binds no name but ``__version__``:
each function is imported from its module (``from pa.dihedral import
orbifold``), so a command that needs one layer, such as ``pa link``, loads
only that layer.
"""

__version__ = "1.0.0"
