"""Independent reference computations used to derive and freeze expected values.

Nothing here calls into the package; these are the second route for every
derived number the tests assert. The row-lattice oracle takes its Smith
decomposition as an argument.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * a * det_cofactor(minor)
    return total


def gauss_rank(rows):
    """Rank by row reduction over exact rationals."""
    mat = [[Fraction(x) for x in r] for r in rows]
    m = len(mat)
    n = len(mat[0]) if mat else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, m):
            if mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def rank_by_minors(rows):
    """Largest k with a nonzero k x k minor; brute force, small matrices only."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    best = 0
    for k in range(1, min(m, n) + 1):
        found = False
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = k
    return best


def divisor_sequence_by_minor_gcd(rows):
    """Invariant factors as ratios of gcds of k x k minors; small matrices only."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    gcds = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_cofactor(sub))
        gcds.append(g)
        if g == 0:
            break
    seq = []
    prev = 1
    for g in gcds:
        if g == 0:
            seq.append(0)
        else:
            seq.append(g // prev)
            prev = g
    seq.extend([0] * (min(m, n) - len(seq)))
    return seq


def in_row_lattice_by_smith(vec, divisors, v_rows):
    """Whether vec is an integer combination of the rows of a, given u @ a @ v = d in Smith form.

    y @ a = vec has an integer solution iff each entry of vec @ v is divisible
    by the divisor in its column, where a column past the divisors or with
    divisor 0 needs the entry 0.
    """
    w = [sum(x * row[j] for x, row in zip(vec, v_rows)) for j in range(len(vec))]
    return all(wj == 0 if j >= len(divisors) or divisors[j] == 0 else wj % divisors[j] == 0 for j, wj in enumerate(w))


def same_row_lattice_by_smith(a_rows, b_rows, cols, smith):
    """Whether two list-of-lists matrices with `cols` columns generate the same row lattice.

    Two-way membership: every row of each lies in the row lattice of the
    other. smith(rows, cols) returns (divisors, v_rows) of a Smith
    decomposition; an empty matrix's lattice holds only the zero vector.
    """

    def inside(rows, lattice):
        if not lattice:
            return all(not any(r) for r in rows)
        divisors, v_rows = smith(lattice, cols)
        return all(in_row_lattice_by_smith(r, divisors, v_rows) for r in rows)

    return inside(a_rows, b_rows) and inside(b_rows, a_rows)


def chain_rows(n, e):
    """Intersection matrix of a chain of n spheres of square e: e on the diagonal, 1 beside it."""
    return [[e if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def chain_determinant_recurrence(n, e=-2):
    """Determinant of the n x n chain matrix with e on the diagonal: D_n = e D_{n-1} - D_{n-2}."""
    d_prev, d_cur = 1, e  # D_0, D_1
    if n == 0:
        return d_prev
    for _ in range(n - 1):
        d_prev, d_cur = d_cur, e * d_cur - d_prev
    return d_cur


def identity_rows(n):
    """The n x n identity matrix as a list of rows."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose_rows(rows, cols):
    """Transpose of a list-of-lists matrix with `cols` columns; a matrix with no rows does not show them."""
    return [[r[j] for r in rows] for j in range(cols)]


def block_diag(blocks):
    """Block-diagonal sum of square list-of-lists matrices."""
    n = sum(len(b) for b in blocks)
    out, offset = [], 0
    for b in blocks:
        out += [[0] * offset + list(row) + [0] * (n - offset - len(b)) for row in b]
        offset += len(b)
    return out


def euler_by_complement(degree, chi_base, chi_branch, component_chis):
    """Cover Euler characteristic via chi(cover) = d * chi(base - branch) + sum chi(B_i)."""
    return degree * (chi_base - chi_branch) + sum(component_chis)


# Gram matrix of the two named classes of every base: square 0 each, meeting once.
HYPERBOLIC_ROWS = [[0, 1], [1, 0]]


def gram_pairing(a, b, pairing_rows):
    """Pairing a^T Q b of two class vectors against an explicit Gram matrix Q."""
    n = len(a)
    return sum(a[i] * pairing_rows[i][j] * b[j] for i in range(n) for j in range(n))


def pairing_square(class_vector, pairing_rows):
    """Self-intersection of a class vector against an explicit Gram matrix."""
    return gram_pairing(class_vector, class_vector, pairing_rows)


def is_symmetric_rows(rows):
    """Whether a list-of-lists matrix is square and equal to its transpose."""
    return all(len(r) == len(rows) for r in rows) and all(
        x == rows[j][i] for i, r in enumerate(rows) for j, x in enumerate(r)
    )


def chain_listing(copies, chain_length, omega, c1):
    """Pairing rows of `copies` disjoint chains of -2 spheres, written out sphere by sphere.

    Sphere s of chain p is labelled "double point p, sphere s".
    """
    return [
        {"generator": f"double point {p + 1}, sphere {s + 1}", "omega": omega, "c1": c1}
        for p in range(copies)
        for s in range(chain_length)
    ]


def matmul_rows(a, b, width):
    """Product of list-of-lists matrices a (m x k) and b (k x width) by the textbook triple loop.

    `width` is passed because a matrix with no rows does not show it.
    """
    inner = len(b)
    assert all(len(r) == inner for r in a) and all(len(r) == width for r in b)
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(width)] for r in a]
