"""Linear sphere chains and their intersection lattices.

A vertex is a disk bundle over a surface (euler number, genus). Every chain
built here is linear: `length` copies of one vertex, each plumbed once to
the next. Its second homology carries the tridiagonal intersection matrix
with the euler number on the diagonal and 1 beside it. The chain is held as
one vertex and a length, and ranked through its continuant, so neither
grows with the number of spheres.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .intlinalg import _as_int

__all__ = [
    "PlumbingVertex",
    "LinearChain",
    "milnor_fiber_2_2_d",
    "chain_rank",
]


@dataclass(frozen=True)
class PlumbingVertex:
    euler_number: int
    genus: int

    def __post_init__(self):
        _as_int(self.euler_number)
        if _as_int(self.genus) < 0:
            raise DomainError("vertex genus must be nonnegative")


@dataclass(frozen=True)
class LinearChain:
    """`length` copies of `vertex`, each plumbed once to the next.

    No __len__: len() refuses a length past 2**63 - 1, which d - 1 spheres can pass.
    """

    length: int
    vertex: PlumbingVertex

    def __post_init__(self):
        if _as_int(self.length) < 0:
            raise DomainError("chain length must be nonnegative")


def milnor_fiber_2_2_d(d: int) -> LinearChain:
    """Sphere chain of the d-fold cover of the ball branched over {z1*z2 = eps}.

    A chain of d - 1 spheres of square -2; d = 1 gives the empty chain
    (a multiplicity-1 sheet contributes no spheres).
    """
    if d < 1:
        raise DomainError(f"cover multiplicity must be at least 1, got {d}")
    return LinearChain(d - 1, PlumbingVertex(-2, 0))


def _mul2(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two 2x2 matrices, each a row-major 4-tuple."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3], a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def chain_rank(chain: LinearChain) -> int:
    """Rank of the chain's intersection matrix, from its continuant.

    The determinant D_n of the n x n matrix obeys D_n = e*D_(n-1) - D_(n-2)
    with D_0 = 1, so it is the top-left entry of [[e, -1], [1, 0]]^n, taken
    here by repeated squaring (W. Neumann, "A calculus for plumbing", 1981).
    The rank is n when D_n != 0, and n - 1 otherwise: deleting the first
    row and the last column leaves a triangular minor with 1 on its
    diagonal. For e = -2 every entry stays within n + 1 in absolute value.
    """
    n = chain.length
    power = (chain.vertex.euler_number, -1, 1, 0)
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = _mul2(result, power)
        n >>= 1
        if n:
            power = _mul2(power, power)
    return chain.length if result[0] else chain.length - 1
