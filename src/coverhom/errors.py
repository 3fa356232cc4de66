"""Exception types shared across the package, the one rule for what an error line echoes, and every input-size limit.

A value is echoed in full while short, and past that by its size: text or a
library argument by `echoed`, a JSON value by `echoed_value`.

An input is admitted or refused by its size here: each reader computes the
size it bounds and calls `admit` with its limit (`digit_limit()`,
`MAX_MATRIX_SIDE` or `SNF_BUDGET`), which words every refusal alike.
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
    """The interpreter's limit on integer string digits, or its default when the limit is off.

    It bounds the digits of every integer a report prints, of every integer
    read from JSON, and of the integers a rational string gives.
    """
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


# The most rows, and the most columns, of a matrix file. Smith decomposition
# builds transforms of rows^2 and cols^2 entries, so the shape is refused
# before any of them is allocated.
MAX_MATRIX_SIDE = 64

# The most n^2 * bits(H) a matrix file may give, where n = max(rows, cols) and
# H is the product of the norms of its nonzero rows, or of its nonzero columns
# when it has fewer columns than rows. H bounds every minor of the matrix, and
# so every divisor (Hadamard's inequality). snf's time grows with the bound:
# in-process, a random 64x64 with entries in [-99, 99] (2.3 million) takes
# 1.8 s and an 8x8 with 1,450-digit entries (2.5 million) 2.5 s. Large
# entries at small n take longest for their bound (README, "Command line").
SNF_BUDGET = 2_500_000


def admit(subject: str, size: int, limit: int, unit: str) -> None:
    """Refuse a size past its limit: DomainError `<subject> <size> <unit>, above the limit of <limit> <unit>`.

    The size is shown by `echoed_value`, so a huge one still gives one short line.
    """
    if size > limit:
        raise DomainError(f"{subject} {echoed_value(size)} {unit}, above the limit of {limit} {unit}")


# Fraction's string grammar on Python 3.11-3.13 once its underscores are
# taken out, or wider: a sign, then digits, "/" and digits, or digits, a
# point, digits and an exponent. Before 3.13 it also takes a run of the letter
# d, in either case, after the point, and Fraction() computes 10**len(run)
# before int() refuses the run. re compiles it on the first rational read.
_RATIONAL = r"\s*[-+]?(?=\.?\d)(\d*)(?:\s*/\s*(\d+)|(?:\.(\d*|[dD]*))?(?:[eE]([-+]?\d+))?)\s*"


def admit_rational(text: str) -> None:
    """Refuse a rational string that needs an integer past `digit_limit()`, before Fraction() builds one.

    The integers are sized from the text as Fraction() reads it: its exponent
    first, then the numerator and the denominator it gives before cancelling.
    Text outside the grammar is left to Fraction() to refuse.
    """
    import re

    match = re.fullmatch(_RATIONAL, text.replace("_", ""))
    if match is None:
        return
    num, denom, point, exponent = match.groups(default="")
    subject, limit = f"rational {echoed(text)} needs an integer of", digit_limit()
    admit(subject, len(exponent.lstrip("+-")), limit, "digits")
    shift = int(exponent or 0)
    admit(subject, max(len(num) + len(point) + shift, len(denom) or 1 + len(point) - shift), limit, "digits")


class DimensionError(ValueError):
    """Shapes of matrix or vector arguments do not line up."""


class DomainError(ValueError):
    """A parameter lies outside its documented range."""


class VerificationError(ArithmeticError):
    """A computed value contradicts the independent computation that justifies it."""
