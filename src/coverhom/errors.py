"""Exception types shared across the package, and the bounds of its error lines."""

import sys

# A refused value is echoed in an error line only while it is this short.
ECHOED = 100


def digits(n: int) -> int:
    """The number of decimal digits of n, counted from its bit length and powers of ten.

    str() of a long n may pass the interpreter's digit limit, so it is not used.
    """
    size = abs(n)
    count = max(size.bit_length() - 1, 0) * 30102999 // 10**8 + 1  # a lower bound: 0.30102999 < log10(2)
    while size >= 10**count:
        count += 1
    return count


def echoed_int(n: int) -> str:
    """n for an error line: in full while it is at most ECHOED characters, else its number of digits."""
    if -(10 ** (ECHOED - 1)) < n < 10**ECHOED:
        return str(n)
    return f"{'a negative' if n < 0 else 'an'} integer of {digits(n)} digits"


def digit_limit() -> int:
    """The interpreter's limit on integer string digits, or its default when the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class DimensionError(ValueError):
    """Shapes of matrix or vector arguments do not line up."""


class DomainError(ValueError):
    """A parameter lies outside its documented range."""


class VerificationError(ArithmeticError):
    """A computed value contradicts the independent computation that justifies it."""
