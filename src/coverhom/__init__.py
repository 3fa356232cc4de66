"""Exact homological invariants of cyclic branched covers of symplectic 4-manifolds.

The package computes, in exact arithmetic, the homology-level output of
branched-cover constructions over products of surfaces and the
Kodaira-Thurston manifold: lifted symplectic and Chern class pairings on
spherical classes, lower bounds for the spherical subspace of second
homology, Euler characteristics and first Betti numbers, together with
verification verdicts for every claimed value.
"""

__version__ = "0.1.0"
