"""Exact integer and rational linear algebra on small dense matrices.

Matrix entries are arbitrary-precision Python ints and vector coordinates
are fractions.Fraction, so equality with zero is always decidable.
Floating point is rejected at every constructor. `Verdict`, the pass/fail
check that every command's result carries, is defined here: every command
loads this module, and `--help` does not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import DimensionError, DomainError, VerificationError, admit_rational, echoed

__all__ = [
    "IntMatrix",
    "SnfResult",
    "RationalVector",
    "Verdict",
    "snf",
    "det",
    "rank",
    "abelianized_b1",
    "hermite",
    "same_row_lattice",
]


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"integer required, got {echoed(value)}")
    return value


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value  # immutable, so Fraction(value) would only copy it
    if isinstance(value, bool):
        raise DomainError(f"rational required, got {echoed(value)}")
    if isinstance(value, float):
        raise DomainError(f"floating point rejected, got {echoed(value)}; use int, str or Fraction")
    if isinstance(value, str):
        admit_rational(value)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):  # Fraction's own messages repeat a refused string in full
        raise DomainError(f"rational required, got {echoed(value)}") from None


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major integer matrix. Zero rows or columns are legal."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        ent = tuple(self.entries)
        if not set(map(type, ent)) <= {int}:
            # bool, float, str and int subclasses take the per-entry check
            ent = tuple(_as_int(e) for e in ent)
        if len(ent) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(ent)}"
            )
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [tuple(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionError("explicit column count disagrees with row width")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(data), cols, tuple(chain.from_iterable(data)))

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise DimensionError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise DimensionError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return self.entries[j :: self.cols]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product self @ other. No command calls it: the tests use it, and the benchmark's tracer wraps it."""
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        k, n = self.cols, other.cols
        # Each entry is one dot product of a row of self and a column of other, summed in C.
        rows = [self.entries[i * k : (i + 1) * k] for i in range(self.rows)]
        cols = [other.entries[j::n] for j in range(n)]
        return IntMatrix(self.rows, n, tuple([sum(map(operator.mul, r, c)) for r in rows for c in cols]))

    __matmul__ = mul

    def diagonal(self) -> tuple[int, ...]:
        step = self.cols + 1
        return self.entries[: min(self.rows, self.cols) * step : step]


@dataclass(frozen=True)
class RationalVector:
    """Vector of exact rationals; Fraction keeps them normalized."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_as_fraction(c) for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def dot(self, other: Sequence[int]) -> Fraction:
        if len(other) != len(self.coords):
            raise DimensionError(f"dot of length {len(self.coords)} with length {len(other)}")
        xs = [x if type(x) is int else _as_fraction(x) for x in other]  # checked before 0 is skipped
        return sum((c * x for c, x in zip(self.coords, xs) if x), Fraction(0))


@dataclass(frozen=True)
class Verdict:
    """One pass/fail check of a result, with the evidence it rests on."""

    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class SnfResult:
    """What `snf` found and checked: u @ a @ v = d, u and v unimodular (det_u, det_v), d the divisor diagonal."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    det_u: int
    det_v: int

    @property
    def divisors(self) -> tuple[int, ...]:
        return self.d.diagonal()


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    r0, r1 = a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form by elementary row and column steps.

    Returns SnfResult(u, d, v, det u, det v) with u @ a @ v == d, |det u| =
    |det v| = 1 and the diagonal of d the divisor sequence of a. Each is
    checked once, here; a failure raises VerificationError.

    Its one step subtracts the rounded multiple of the pivot from a row or
    column, which leaves a remainder of at most half the pivot, and the least
    remainder left becomes the next pivot (size-reducing elimination, as in
    Havas, Majewski and Matthews 1998). No row or column is multiplied by a
    Bezout cofactor, which would grow the working entries and the
    transforms at every pivot.

    A round is one pass over the rows below the pivot, which steps each row
    and tracks the least remainder left, then, once that column is clear,
    one pass along the pivot row. A step changes only the entries where its
    pivot line is nonzero, so it walks the (index, value) list of those,
    taken once per round: the pivot row of d and u for a row step, the
    pivot column of v for a column step. On the snf-dense benchmark's
    matrices (8x8 to 12x12, mostly dense in [-9, 9]) a row step touches
    about 60% of its row and a column step 38% of its column of v.
    """
    m, n = a.rows, a.cols
    # w[i] is row i of d followed by row i of u, so one step updates both.
    w = [list(a.row(i)) + [0] * m for i in range(m)]
    # vt[j] is column j of v, so column operations on v are row operations on vt.
    vt = [[0] * n for _ in range(n)]
    for i in range(m):
        w[i][n + i] = 1
    for j in range(n):
        vt[j][j] = 1

    # Rows above the pivot t are zero in the columns from t on, so a column
    # swap on d touches only the rows from t on.
    def swap_cols(t, j):
        for row in w[t:]:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]

    size = min(m, n)
    t = 0
    while t < size:
        # The first entry of least nonzero |e| in row-major order; no entry
        # beats |e| == 1, so the scan stops there.
        piv, least = None, 0
        for i in range(t, m):
            row = w[i]
            for j in range(t, n):
                e = row[j]
                if e and (piv is None or abs(e) < least):
                    piv, least = (i, j), abs(e)
                    if least == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        w[t], w[piv[0]] = w[piv[0]], w[t]
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            # Subtract the rounded multiple q = floor(x/p + 1/2) of the pivot
            # from each entry x below it, then right of it: |x - q*p| <= |p|/2.
            # While a remainder is left, the least one (the first if tied)
            # becomes the pivot, so |p| shrinks and the loop terminates.
            lead = w[t]
            p = lead[t]
            support, nxt, least = None, None, 0
            for i in range(t + 1, m):
                row = w[i]
                x = row[t]
                if not x:
                    continue
                q = (2 * x + p) // (2 * p)
                if q:
                    if support is None:
                        support = [(j, y) for j, y in enumerate(lead) if y]
                    for j, y in support:
                        row[j] -= q * y
                    x = row[t]
                if x and (nxt is None or abs(x) < least):
                    nxt, least = i, abs(x)
            if nxt is not None:
                # Every remainder is at most |p|/2, so |p| falls at each swap
                # and the loop ends; a larger one is a fault of the step.
                if 2 * least > abs(p):
                    raise VerificationError("smith elimination left a remainder above half its pivot")
                w[t], w[nxt] = w[nxt], w[t]
                continue
            # The row steps above left every row below t zero in column t, so
            # a column step changes only the pivot row of d, and column j of v.
            support, nxt, least = None, None, 0
            for j in range(t + 1, n):
                x = lead[j]
                if not x:
                    continue
                q = (2 * x + p) // (2 * p)
                if q:
                    x -= q * p
                    lead[j] = x
                    if support is None:
                        support = [(k, y) for k, y in enumerate(vt[t]) if y]
                    col = vt[j]
                    for k, y in support:
                        col[k] -= q * y
                if x and (nxt is None or abs(x) < least):
                    nxt, least = j, abs(x)
            if nxt is not None:
                if 2 * least > abs(p):
                    raise VerificationError("smith elimination left a remainder above half its pivot")
                swap_cols(t, nxt)
                continue
            # Pivot must divide the whole trailing block for the divisor chain;
            # a unit pivot divides everything.
            offender = None
            if abs(p) != 1:
                offender = next((i for i in range(t + 1, m) if any(x % p for x in w[i][t + 1 : n])), None)
            if offender is None:
                break
            w[t] = [x + y for x, y in zip(lead, w[offender])]
        t += 1

    for i in range(size):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]

    u = IntMatrix(m, m, tuple(chain.from_iterable(row[n:] for row in w)))
    d = IntMatrix(m, n, tuple(chain.from_iterable(row[:n] for row in w)))
    v = IntMatrix(n, n, tuple(chain.from_iterable(zip(*vt))))
    if not _recomposes(u, a, v, d):
        raise VerificationError("smith decomposition does not recompose: u*a*v differs from d")
    return _checked_result(u, d, v)


def _checked_result(u: IntMatrix, d: IntMatrix, v: IntMatrix) -> SnfResult:
    """snf's record of u, d, v once its checks pass; the input was valid, so a failure is snf's fault."""
    det_u, det_v = det(u), det(v)
    diag = d.diagonal()
    # The first neighbours (x, y) on the diagonal where x does not divide y; 0 divides only 0.
    broken = next(((x, y) for x, y in zip(diag, diag[1:]) if (y % x if x else y)), None)
    if abs(det_u) != 1 or abs(det_v) != 1:
        reason = "transforms must be unimodular"
    elif sum(map(bool, d.entries)) != sum(map(bool, diag)):  # a nonzero entry off the diagonal
        reason = "middle factor is not diagonal"
    elif any(x < 0 for x in diag):
        reason = "diagonal entries must be nonnegative"
    elif broken:
        reason = "zero diagonal entry precedes a nonzero one" if broken[0] == 0 else "diagonal divisor chain broken"
    else:
        return SnfResult(u, d, v, det_u, det_v)
    raise VerificationError(f"smith decomposition failed its own check: {reason}")


def _recomposes(u: IntMatrix, a: IntMatrix, v: IntMatrix, d: IntMatrix) -> bool:
    """Whether u @ a @ v == d, exactly, by comparing rows packed into one integer each.

    Column j of v and of d gets the width
    w_j = max(bits(U) + bits(A) + bits(m*n) + 1 + bits(V_j), bits(D_j) + 1),
    where U and A are the largest |entries| of u and a, V_j and D_j the
    largest |entries| in column j of v and of d, a is m x n and
    bits(x) = x.bit_length(). A row is packed as the sum of entry j shifted
    left by o_j, the sum of the widths before column j. Packing is linear,
    so AV_r = sum_k a[r][k] * V_k, with V_k row k of v packed, is row r of
    a @ v packed, and sum_r u[i][r] * AV_r is row i of u @ a @ v packed.

    It is exact: entry (i, j) of u @ a @ v is a sum of m*n products of
    absolute value at most U*A*V_j, so it and d[i][j] both lie strictly
    within +-2^(w_j - 1), and their difference z_j strictly within +-2^w_j.
    So two such rows that pack to the same integer are equal: at the first
    column j where they differ, the packed difference is z_j * 2^o_j plus a
    multiple of 2^(o_j + w_j), which is 0 only if 2^w_j divides z_j: not
    for 0 < |z_j| < 2^w_j.
    This costs m*(m + n) products of packed integers instead of the
    m*m*n + m*n*n entry products of forming u @ a @ v.
    """
    m, n, q = a.rows, a.cols, v.cols
    bits = int.bit_length
    spread = max(map(bits, u.entries), default=0) + max(map(bits, a.entries), default=0) + bits(m * n) + 1
    offsets, o = [], 0
    for j in range(q):
        offsets.append(o)
        o += max(spread + max(map(bits, v.entries[j::q]), default=0), max(map(bits, d.entries[j::q]), default=0) + 1)
    lshift, mul = operator.lshift, operator.mul
    packed_v = [sum(map(lshift, v.entries[k * q : (k + 1) * q], offsets)) for k in range(n)]
    av = [sum(map(mul, a.entries[r * n : (r + 1) * n], packed_v)) for r in range(m)]
    return all(
        sum(map(mul, u.entries[i * m : (i + 1) * m], av)) == sum(map(lshift, d.entries[i * q : (i + 1) * q], offsets))
        for i in range(u.rows)
    )


def _bareiss_step(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """Eliminate column c below the pivot m[r][c] in place; return the pivot.

    Every entry right of c in the rows below r becomes (x*p - f*y) // prev,
    where p is the pivot, f the row's entry in column c and y the pivot
    row's entry; the division is exact. When p == prev this equals
    x - f*y // prev, also exact, so a row with f == 0 stays as it is and any
    other row changes only where the pivot row is nonzero. Columns up to c
    of the rows below r are never read again and are left as they are.
    """
    lead = m[r]
    p = lead[c]
    if p == prev:
        support = [(j, lead[j]) for j in range(c + 1, len(lead)) if lead[j]]
        for row in m[r + 1 :]:
            f = row[c]
            if f:
                for j, y in support:
                    row[j] -= f * y // prev
    else:
        for row in m[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(lead)):
                row[j] = (row[j] * p - f * lead[j]) // prev
    return p


def det(a: IntMatrix) -> int:
    """Exact determinant (Bareiss elimination); the 0x0 matrix has det 1."""
    if a.rows != a.cols:
        raise DimensionError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        prev = _bareiss_step(m, k, k, prev)
    return sign * m[n - 1][n - 1]


def rank(a: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) row elimination.

    After r pivots every remaining entry is an (r+1)x(r+1) minor of a, so
    dividing by the previous pivot (an r x r minor) is exact, as in det.
    """
    rows = a.to_rows()
    r = 0
    prev = 1
    for c in range(a.cols):
        piv = next((i for i in range(r, a.rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prev = _bareiss_step(rows, r, c, prev)
        r += 1
        if r == a.rows:
            break
    return r


def abelianized_b1(generators: int, relators: Sequence[Sequence[int]]) -> int:
    """First Betti number of the abelianized presentation.

    generators - rank(relator matrix); relator vectors are exponent sums
    and must all have length equal to the generator count.
    """
    if generators < 0:
        raise DomainError("generator count must be nonnegative")
    rel = []
    for vec in relators:
        v = tuple(_as_int(x) for x in vec)
        if len(v) != generators:
            raise DimensionError(
                f"relator of length {len(v)} in a presentation with {generators} generators"
            )
        rel.append(v)
    if not rel:
        return generators
    return generators - rank(IntMatrix.from_rows(rel))


def hermite(a: IntMatrix) -> IntMatrix:
    """The nonzero rows of the row Hermite normal form of a.

    Pivots are positive and move right row by row, entries above a pivot lie
    in [0, pivot): a unique form of the row lattice. It reduces modulo nothing,
    so its entries can grow with the input; today's callers pass 1x4 matrices.
    """
    rows = a.to_rows()
    r = 0
    for c in range(a.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            p, q = rows[r][c], rows[i][c]
            if q:
                # (row_r, row_i) <- (x*row_r + y*row_i, (p*row_i - q*row_r) / g), det = 1
                g, x, y = _xgcd(p, q)
                rows[r], rows[i] = ([x * s + y * t for s, t in zip(rows[r], rows[i])],
                                    [(p * t - q * s) // g for s, t in zip(rows[r], rows[i])])
        if rows[r][c] < 0:
            rows[r] = [-e for e in rows[r]]
        for i in range(r):
            f = rows[i][c] // rows[r][c]
            rows[i] = [e - f * y for e, y in zip(rows[i], rows[r])]
        r += 1
    return IntMatrix.from_rows(rows[:r], cols=a.cols)


def same_row_lattice(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether two integer matrices generate the same row lattice: equal Hermite forms."""
    if a.cols != b.cols:
        raise DimensionError("row lattices live in different ambient ranks")
    return hermite(a) == hermite(b)
