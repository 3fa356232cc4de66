"""Plumbing graphs and their intersection lattices.

A vertex is a disk bundle over a surface (euler number, genus); an edge is
a plumbing between two distinct vertices. The second homology of the
plumbed 4-manifold carries the graph's intersection matrix: euler numbers
on the diagonal, edge multiplicities off it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, DomainError
from .intlinalg import IntMatrix, _as_int

__all__ = [
    "PlumbingVertex",
    "PlumbingGraph",
    "linear_chain",
    "milnor_fiber_2_2_d",
    "intersection_matrix",
]


@dataclass(frozen=True)
class PlumbingVertex:
    euler_number: int
    genus: int
    label: str = ""

    def __post_init__(self):
        _as_int(self.euler_number)
        if _as_int(self.genus) < 0:
            raise DomainError("vertex genus must be nonnegative")


@dataclass(frozen=True)
class PlumbingGraph:
    """Vertices with an unordered edge list; parallel edges allowed, loops not."""

    vertices: tuple[PlumbingVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        normalized = []
        for e in self.edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionError(f"edge {e} refers outside {n} vertices")
            if i == j:
                raise DomainError(f"self-loop at vertex {i}")
            normalized.append((min(i, j), max(i, j)))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(normalized))

    def __len__(self) -> int:
        return len(self.vertices)


def linear_chain(n: int, euler_number: int) -> PlumbingGraph:
    """Path of n genus-0 vertices labelled "sphere 1", ..., all with the given euler number."""
    if n < 0:
        raise DomainError("chain length must be nonnegative")
    verts = tuple(PlumbingVertex(euler_number, 0, f"sphere {i + 1}") for i in range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return PlumbingGraph(verts, edges)


def milnor_fiber_2_2_d(d: int) -> PlumbingGraph:
    """Sphere chain of the d-fold cover of the ball branched over {z1*z2 = eps}.

    A chain of d - 1 spheres of square -2; d = 1 gives the empty graph
    (a multiplicity-1 sheet contributes no spheres).
    """
    if d < 1:
        raise DomainError(f"cover multiplicity must be at least 1, got {d}")
    return linear_chain(d - 1, -2)


def intersection_matrix(g: PlumbingGraph) -> IntMatrix:
    """Symmetric pairing matrix: euler numbers on the diagonal, edge counts off it."""
    n = len(g)
    grid = [[0] * n for _ in range(n)]
    for i, vert in enumerate(g.vertices):
        grid[i][i] = vert.euler_number
    for i, j in g.edges:
        grid[i][j] += 1
        grid[j][i] += 1
    return IntMatrix(n, n, tuple(e for row in grid for e in row))

