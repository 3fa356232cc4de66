"""Independent reference computations used to derive and freeze expected values.

Nothing here calls into the package; these are the second route for every
derived number the tests assert.
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


def chain_determinant_recurrence(n):
    """Determinant of the n x n chain matrix with -2 diagonal: D_n = -2 D_{n-1} - D_{n-2}."""
    d_prev, d_cur = 1, -2  # D_0, D_1
    if n == 0:
        return d_prev
    for _ in range(n - 1):
        d_prev, d_cur = d_cur, -2 * d_cur - d_prev
    return d_cur


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


def pairing_square(class_vector, pairing_rows):
    """Self-intersection of a class vector against an explicit Gram matrix."""
    n = len(class_vector)
    return sum(
        class_vector[i] * pairing_rows[i][j] * class_vector[j]
        for i in range(n)
        for j in range(n)
    )


def chain_listing(copies, chain_length, omega, c1):
    """Pairing rows and lattice of `copies` disjoint chains of -2 spheres, written out sphere by sphere.

    Sphere s of chain p is labelled "double point p, sphere s" and is
    vertex (p - 1) * chain_length + s - 1; each chain's edges join
    consecutive spheres.
    """
    pairings, vertices, edges = [], [], []
    for p in range(copies):
        for s in range(chain_length):
            label = f"double point {p + 1}, sphere {s + 1}"
            pairings.append({"generator": label, "omega": omega, "c1": c1})
            vertices.append({"euler_number": -2, "genus": 0, "label": label})
            if s > 0:
                edges.append([p * chain_length + s - 1, p * chain_length + s])
    return pairings, {"vertices": vertices, "edges": edges}


def expand_blocks(report):
    """A default report dict with its chain block written out by `chain_listing`.

    The block's pairing row comes first and stands for every sphere of the
    `copies` chains; the result should equal the report's `--expand` form.
    """
    if report["spherical_lattice"] is None:
        return report
    (block,) = report["spherical_lattice"]["blocks"]
    row, *explicit = report["pairings"]
    pairings, lattice = chain_listing(block["copies"], len(block["chain"]["vertices"]), row["omega"], row["c1"])
    return dict(report, pairings=pairings + explicit, spherical_lattice=lattice)


def matmul_rows(a, b, width):
    """Product of list-of-lists matrices a (m x k) and b (k x width) by the textbook triple loop.

    `width` is passed because a matrix with no rows does not show it.
    """
    inner = len(b)
    assert all(len(r) == inner for r in a) and all(len(r) == width for r in b)
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(width)] for r in a]
