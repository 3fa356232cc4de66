"""Exception types shared across the package, and the bounds of its error lines."""

import sys

# A refused value is echoed in an error line only while it is this short.
ECHOED = 100


def digit_limit() -> int:
    """The interpreter's limit on integer string digits, or its default when the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class DimensionError(ValueError):
    """Shapes of matrix or vector arguments do not line up."""


class DomainError(ValueError):
    """A parameter lies outside its documented range."""


class NoSuchCoverError(DomainError):
    """The requested branched cover does not exist (divisibility obstruction)."""


class IncompleteModelError(ValueError):
    """A pairing was requested from a generator that lacks the stored data."""


class VerificationError(ArithmeticError):
    """A computed value contradicts the independent computation that justifies it."""
