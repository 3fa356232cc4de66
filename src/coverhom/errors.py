"""Exception types shared across the package, and the one rule for what an error line echoes.

A value is echoed in full while short, and past that by its size: text or a
library argument by `echoed`, a JSON value by `echoed_value`.
"""

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


def echoed(value) -> str:
    """A value for an error line: its repr while that fits in ECHOED characters (a text's quotes aside), else its size.

    The size reads `<N characters>` for text, `<int of N digits>` or `<Fraction of N/M digits>`, counted by
    `digits` before any repr(), which may pass the interpreter's digit limit, and `<type>` for anything else,
    or for a value whose repr() fails.
    """
    if isinstance(value, str):
        quoted = repr(value)  # an escaped character, such as \x01, takes more than one
        return quoted if len(quoted) <= ECHOED + 2 else f"<{len(value)} characters>"
    kind = type(value).__name__
    if isinstance(getattr(value, "denominator", None), int):  # an int or a Fraction
        sizes = [digits(value.numerator)] + ([] if isinstance(value, int) else [digits(value.denominator)])
        kind += f" of {'/'.join(map(str, sizes))} digits"
        if sum(sizes) > ECHOED:
            return f"<{kind}>"
    try:
        shown = repr(value)
    except (ValueError, RecursionError):  # a container holding an int past the digit limit, or nested too deeply
        return f"<{kind}>"
    return shown if len(shown) <= ECHOED else f"<{kind}>"


def echoed_value(value) -> str:
    """A JSON value or a Python int for an error line: its JSON text while short, else its kind and size.

    `a string of N characters`, `an array of length N`, `an object of length N`,
    or `(a negative|an) integer of N digits`, counted by `digits`, as str() of a
    long int may pass the interpreter's digit limit.
    """
    if type(value) is int:
        if -(10 ** (ECHOED - 1)) < value < 10**ECHOED:
            return str(value)
        return f"{'a negative' if value < 0 else 'an'} integer of {digits(value)} digits"
    import json

    # json.dumps meets no more nesting than json.load read to give the value.
    text = json.dumps(value)
    if len(text) <= ECHOED:
        return text
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    return f"{'an array' if isinstance(value, list) else 'an object'} of length {len(value)}"


def digit_limit() -> int:
    """The interpreter's limit on integer string digits, or its default when the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class DimensionError(ValueError):
    """Shapes of matrix or vector arguments do not line up."""


class DomainError(ValueError):
    """A parameter lies outside its documented range."""


class VerificationError(ArithmeticError):
    """A computed value contradicts the independent computation that justifies it."""
