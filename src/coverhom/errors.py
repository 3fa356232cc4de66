"""Exception types shared across the package."""


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
