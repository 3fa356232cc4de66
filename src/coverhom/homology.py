"""Homological models of the base manifolds and their branch surfaces.

A `SurfaceConfig` is the one description of a grid of surfaces: its
double-point count, the smoothed branch surface (`smoothed_grid`) and both
base models are read from it. Second homology is never tracked in full:
each base carries two named classes (horizontal/vertical for products,
section/fiber for the torus-bundle quotient) and the cohomology classes of
interest are stored as their pairing values against those classes.
Coordinate order is fixed as (horizontal-like, vertical-like) throughout,
so the class of the grid configuration below is (m2*d, m1*d). In every base
the two named classes have square 0 and meet once, so classes pair by
`hyperbolic_pairing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, DomainError, echoed_value
from .intlinalg import IntMatrix, RationalVector, abelianized_b1, _as_fraction, _as_int
from .plumbing import LinearChain

__all__ = [
    "SurfaceConfig",
    "SmoothedSurface",
    "SphericalGenerator",
    "ChainBlock",
    "ManifoldModel",
    "smoothed_grid",
    "product_base_model",
    "kodaira_thurston_model",
    "hyperbolic_pairing",
]


def hyperbolic_pairing(a: Sequence[int], b: Sequence[int]) -> int:
    """Intersection number of two classes in the named basis of every base built here.

    Both named classes have square 0 (trivial normal bundles) and they meet once.
    """
    return a[0] * b[1] + a[1] * b[0]


@dataclass(frozen=True)
class SurfaceConfig:
    """Parameters of a grid branch configuration in a surface bundle or product.

    g1, g2 are the genera of the two factors, m1/m2 the multiplicities of
    the two surface families, d the cover degree, and omega_areas the
    symplectic areas of the two named classes (horizontal-like first).
    """

    g1: int
    g2: int
    m1: int
    m2: int
    d: int
    omega_areas: tuple[Fraction, Fraction] = (Fraction(1), Fraction(1))

    def __post_init__(self):
        for name in ("g1", "g2", "m1", "m2", "d"):
            _as_int(getattr(self, name))
        if self.g1 < 0 or self.g2 < 0:
            raise DomainError("genus must be nonnegative")
        if self.m1 < 1 or self.m2 < 1:
            raise DomainError("multiplicities m1, m2 must be at least 1")
        if self.d < 2:
            raise DomainError(f"cover degree must be at least 2, got {echoed_value(self.d)}")
        areas = tuple(_as_fraction(a) for a in self.omega_areas)
        if len(areas) != 2 or any(a <= 0 for a in areas):
            raise DomainError("omega_areas must be two positive rationals")
        object.__setattr__(self, "omega_areas", areas)

    @property
    def double_points(self) -> int:
        """Every one of the m1*d vertical-like surfaces meets each of the m2*d horizontal-like ones once."""
        return self.m1 * self.m2 * self.d * self.d


@dataclass(frozen=True)
class SmoothedSurface:
    """Result of smoothing the double points of an immersed surface."""

    euler_characteristic: int
    class_vector: tuple[int, ...] | None
    connected: bool

    def __post_init__(self):
        chi = _as_int(self.euler_characteristic)
        if self.connected and (chi % 2 != 0 or chi > 2):
            raise DomainError(f"a connected surface has even euler characteristic at most 2, got {echoed_value(chi)}")
        if self.class_vector is not None:
            object.__setattr__(self, "class_vector", tuple(_as_int(x) for x in self.class_vector))


@dataclass(frozen=True)
class SphericalGenerator:
    """A sphere class in a cover, stored as its lifted omega and c1 pairings.

    The lift formulas in `cover` evaluate both from its pushforward and branch intersections, which are not kept.
    """

    label: str
    omega_pairing: Fraction
    c1_pairing: int

    def __post_init__(self):
        object.__setattr__(self, "omega_pairing", _as_fraction(self.omega_pairing))
        _as_int(self.c1_pairing)


@dataclass(frozen=True)
class ChainBlock:
    """`copies` disjoint copies of one sphere chain, all described by one generator.

    Every sphere of every copy has the same pushforward and branch
    intersections, so the same pairings: the template stands for all of them and
    carries the label of the first ("double point 1, sphere 1"). No sphere
    has a label or lattice index of its own: reports write the chain once,
    with its copy count.
    """

    chain: LinearChain
    copies: int
    template: SphericalGenerator

    def __post_init__(self):
        if _as_int(self.copies) < 0:
            raise DomainError("chain copy count must be nonnegative")

    @property
    def spheres(self) -> int:
        return self.copies * self.chain.length


@dataclass(frozen=True)
class ManifoldModel:
    """Homological shadow of a closed oriented 4-manifold.

    h1_generators may be None when the construction does not determine the
    first homology; b1 is then unknown. symplectically_aspherical records
    whether the symplectic class is known to kill every spherical class
    (always true when pi_2 is trivial). The spherical classes are the
    chain_block's spheres followed by spherical_generators. omega_class and
    c1_class pair with the named classes: two for a base, none for a cover.
    """

    euler_characteristic: int
    h1_generators: int | None
    h1_relators: tuple[tuple[int, ...], ...]
    omega_class: RationalVector
    c1_class: RationalVector
    spherical_generators: tuple[SphericalGenerator, ...]
    pi2_trivial: bool
    symplectically_aspherical: bool
    kaehler: bool
    chain_block: ChainBlock | None = None

    def __post_init__(self):
        if len(self.omega_class) != len(self.c1_class):
            raise DimensionError("omega and c1 class vectors must pair with the same named classes")
        rel = tuple(tuple(_as_int(x) for x in r) for r in self.h1_relators)
        object.__setattr__(self, "h1_relators", rel)
        if self.h1_generators is None:
            if rel:
                raise DomainError("relators stored without a generator count")
        else:
            for r in rel:
                if len(r) != self.h1_generators:
                    raise DimensionError("relator length does not match generator count")
        if self.pi2_trivial and not self.symplectically_aspherical:
            raise DomainError("trivial pi_2 forces the symplectic class to kill spherical classes")
        object.__setattr__(self, "spherical_generators", tuple(self.spherical_generators))

    @cached_property
    def b1(self) -> int | None:
        if self.h1_generators is None:
            return None
        return abelianized_b1(self.h1_generators, self.h1_relators)


def smoothed_grid(cfg: SurfaceConfig) -> SmoothedSurface:
    """The grid of m1*d vertical-like and m2*d horizontal-like surfaces, with its double points smoothed.

    The verticals have genus g2 and class (0, 1), the horizontals genus g1
    and class (1, 0). Smoothing drops chi by 2 per double point and keeps
    the class of the union; every vertical meets every horizontal, so the
    result is connected.
    """
    verticals, horizontals = cfg.m1 * cfg.d, cfg.m2 * cfg.d
    chi = verticals * (2 - 2 * cfg.g2) + horizontals * (2 - 2 * cfg.g1) - 2 * cfg.double_points
    return SmoothedSurface(euler_characteristic=chi, class_vector=(horizontals, verticals), connected=True)


def product_base_model(cfg: SurfaceConfig) -> ManifoldModel:
    """Product of two positive-genus surfaces with a product symplectic form."""
    if cfg.g1 < 1 or cfg.g2 < 1:
        raise DomainError("product base needs both genera at least 1")
    chi = (2 - 2 * cfg.g1) * (2 - 2 * cfg.g2)
    b1 = 2 * cfg.g1 + 2 * cfg.g2
    return ManifoldModel(
        euler_characteristic=chi,
        h1_generators=b1,
        h1_relators=(),
        omega_class=RationalVector(cfg.omega_areas),
        c1_class=RationalVector((2 - 2 * cfg.g1, 2 - 2 * cfg.g2)),
        spherical_generators=(),
        pi2_trivial=True,
        symplectically_aspherical=True,
        # A product of area forms is Kaehler; a report's Kaehler variant is its cover's flag.
        kaehler=True,
    )


# Abelianized monodromy relation of the torus-bundle quotient, in generator
# order (fiber x, fiber y, base a, base b): the first fiber generator dies,
# leaving b1 = 3.
MONODROMY_RELATORS: tuple[tuple[int, ...], ...] = ((1, 0, 0, 0),)

# Monodromy of the torus-bundle quotient around the first base loop (the
# second loop has trivial monodromy), acting on the fiber's first homology.
MONODROMY_MATRIX = IntMatrix(2, 2, (1, 1, 0, 1))


def kodaira_thurston_model(cfg: SurfaceConfig) -> ManifoldModel:
    """Symplectic torus-bundle quotient of R^4 with b1 = 3 (so never Kaehler).

    The named classes are the section (horizontal-like, trivial normal
    bundle) and the fiber, with cfg's areas; both have vanishing c1 pairing.
    Sections and fibers are tori, so cfg needs g1 = g2 = 1.
    """
    if cfg.g1 != 1 or cfg.g2 != 1:
        raise DomainError("torus-bundle base needs g1 = g2 = 1")
    return ManifoldModel(
        euler_characteristic=0,
        h1_generators=4,
        h1_relators=MONODROMY_RELATORS,
        omega_class=RationalVector(cfg.omega_areas),
        c1_class=RationalVector((0, 0)),
        spherical_generators=(),
        pi2_trivial=True,
        symplectically_aspherical=True,
        kaehler=False,
    )
