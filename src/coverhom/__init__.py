"""Exact homological invariants of cyclic branched covers of symplectic 4-manifolds.

The package computes, in exact arithmetic, the homology-level output of
branched-cover constructions over products of surfaces and the
Kodaira-Thurston manifold: lifted symplectic and Chern class pairings on
spherical classes, lower bounds for the spherical subspace of second
homology, Euler characteristics and first Betti numbers, together with
verification verdicts for every claimed value.
"""

from .cover import (
    BranchComponent,
    CoverReport,
    CoverSpec,
    Verdict,
    build_cyclic_cover,
    build_tower7,
    complement_euler,
    kodaira_thurston_cover_b1,
    kodaira_thurston_family_report,
    lift_chern_pairing,
    lift_omega_pairing,
    pi_dimension_bound,
    product_family_report,
    riemann_hurwitz_euler,
)
from .errors import DimensionError, DomainError, IncompleteModelError, NoSuchCoverError, VerificationError
from .homology import (
    ChainBlock,
    ImmersedComponent,
    ImmersedConfig,
    ManifoldModel,
    SmoothedSurface,
    SphericalGenerator,
    SurfaceConfig,
    branch_class,
    grid_immersion,
    kodaira_thurston_model,
    product_base_model,
    smooth_double_points,
)
from .intlinalg import (
    IntMatrix,
    RationalVector,
    SnfResult,
    abelianized_b1,
    det,
    rank,
    snf,
)
from .plumbing import (
    PlumbingGraph,
    PlumbingVertex,
    intersection_matrix,
    linear_chain,
    milnor_fiber_2_2_d,
)

__version__ = "0.1.0"
