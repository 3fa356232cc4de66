"""Exact integer and rational linear algebra on small dense matrices.

Matrix entries are arbitrary-precision Python ints and vector coordinates
are fractions.Fraction, so equality with zero is always decidable.
Floating point is rejected at every constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import DimensionError, DomainError, VerificationError

__all__ = [
    "IntMatrix",
    "SnfResult",
    "RationalVector",
    "snf",
    "det",
    "rank",
    "abelianized_b1",
    "hermite",
    "same_row_lattice",
]


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"integer required, got {value!r}")
    return value


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value  # immutable, so Fraction(value) would only copy it
    if isinstance(value, bool):
        raise DomainError(f"rational required, got {value!r}")
    if isinstance(value, float):
        raise DomainError(f"floating point rejected, got {value!r}; use int, str or Fraction")
    return Fraction(value)


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
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Column j of the product is the sum of f * (column i of self) over
        # the nonzero entries f = other[i][j]; zero entries cost one test.
        k, n = self.cols, other.cols
        factors = [self.entries[i::k] for i in range(k)]
        zero = (0,) * self.rows
        out = []
        for j in range(n):
            acc = None
            for i, f in enumerate(other.entries[j::n]):
                if f:
                    if acc is None:
                        acc = [f * x for x in factors[i]]
                    else:
                        acc = [s + f * x for s, x in zip(acc, factors[i])]
            out.append(zero if acc is None else acc)
        return IntMatrix(self.rows, n, tuple(chain.from_iterable(zip(*out))))

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
class SnfResult:
    """Decomposition u @ a @ v = d with u, v unimodular and d the divisor diagonal.

    Construction checks the shapes, the unimodularity of u and v and the
    divisor chain of d, once; det_u and det_v keep the determinants it found.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    det_u: int = field(init=False)
    det_v: int = field(init=False)

    def __post_init__(self):
        u, d, v = self.u, self.d, self.v
        if u.rows != u.cols or v.rows != v.cols:
            raise DimensionError("transforms must be square")
        if d.rows != u.rows or d.cols != v.rows:
            raise DimensionError("diagonal factor has wrong shape")
        object.__setattr__(self, "det_u", det(u))
        object.__setattr__(self, "det_v", det(v))
        if abs(self.det_u) != 1 or abs(self.det_v) != 1:
            raise DomainError("transforms must be unimodular")
        diag = d.diagonal()
        # d is diagonal iff it has no nonzero entry beyond those on its diagonal
        if sum(map(bool, d.entries)) != sum(map(bool, diag)):
            raise DomainError("middle factor is not diagonal")
        for x in diag:
            if x < 0:
                raise DomainError("diagonal entries must be nonnegative")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                raise DomainError("zero diagonal entry precedes a nonzero one")
            if a != 0 and b % a != 0:
                raise DomainError("diagonal divisor chain broken")

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
    """Smith normal form via gcd row/column reduction.

    Returns SnfResult(u, d, v) with u @ a @ v == d, |det u| = |det v| = 1,
    and the diagonal of d equal to the divisor sequence of a. Each of these
    is checked once, here or in SnfResult; a failure raises VerificationError.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    # vt[j] is column j of v, so column operations on v are row operations on vt.
    vt = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        vt[i], vt[j] = vt[j], vt[i]

    def add_row(dst, src, f):
        # row_dst += f * row_src
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def combine_rows(i, j, x, y, z, w):
        # (row_i, row_j) <- (x*row_i + y*row_j, z*row_i + w*row_j), det = 1
        di, dj = d[i], d[j]
        d[i] = [x * p + y * q for p, q in zip(di, dj)]
        d[j] = [z * p + w * q for p, q in zip(di, dj)]
        ui, uj = u[i], u[j]
        u[i] = [x * p + y * q for p, q in zip(ui, uj)]
        u[j] = [z * p + w * q for p, q in zip(ui, uj)]

    # A column operation on d changes only the rows that are nonzero in the
    # columns it reads.
    def add_col(dst, src, f):
        # col_dst += f * col_src
        for r in d:
            if r[src]:
                r[dst] += f * r[src]
        vt[dst] = [x + f * y for x, y in zip(vt[dst], vt[src])]

    def combine_cols(i, j, x, y, z, w):
        # (col_i, col_j) <- (x*col_i + y*col_j, z*col_i + w*col_j), det = 1
        for r in d:
            p, q = r[i], r[j]
            if p or q:
                r[i], r[j] = x * p + y * q, z * p + w * q
        vi, vj = vt[i], vt[j]
        vt[i] = [x * p + y * q for p, q in zip(vi, vj)]
        vt[j] = [z * p + w * q for p, q in zip(vi, vj)]

    def clear_column(t):
        for i in range(t + 1, m):
            if d[i][t] == 0:
                continue
            p, q = d[t][t], d[i][t]
            if q % p == 0:
                add_row(i, t, -(q // p))
            else:
                g, x, y = _xgcd(p, q)
                combine_rows(t, i, x, y, -(q // g), p // g)

    def clear_row(t):
        for j in range(t + 1, n):
            if d[t][j] == 0:
                continue
            p, q = d[t][t], d[t][j]
            if q % p == 0:
                add_col(j, t, -(q // p))
            else:
                g, x, y = _xgcd(p, q)
                combine_cols(t, j, x, y, -(q // g), p // g)

    size = min(m, n)
    t = 0
    while t < size:
        # The first entry of least nonzero |e| in row-major order; no entry
        # beats |e| == 1, so the scan stops there.
        piv, least = None, 0
        for i in range(t, m):
            row = d[i]
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
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            # Alternate clears; |pivot| shrinks whenever a Bezout step fires,
            # so the loop terminates.
            while True:
                clear_column(t)
                clear_row(t)
                if all(d[i][t] == 0 for i in range(t + 1, m)):
                    break
            # Pivot must divide the whole trailing block for the divisor chain;
            # a unit pivot divides everything.
            p = d[t][t]
            offender = None
            if abs(p) != 1:
                offender = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(size):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    try:
        res = SnfResult(
            IntMatrix.from_rows(u, cols=m),
            IntMatrix.from_rows(d, cols=n),
            IntMatrix.from_rows(list(zip(*vt)), cols=n),
        )
    except DomainError as exc:
        # The input was valid, so a failed unimodularity or divisor-chain
        # check is a fault of the elimination, not of the caller.
        raise VerificationError(f"smith decomposition failed its own check: {exc}") from None
    if res.u.mul(a).mul(res.v).entries != res.d.entries:
        raise VerificationError("smith decomposition does not recompose: u*a*v differs from d")
    return res


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
