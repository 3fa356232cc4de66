import numbers
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coverhom.intlinalg
from coverhom.cover import build_tower7
from coverhom.errors import DimensionError, DomainError, VerificationError, echoed
from coverhom.intlinalg import (
    IntMatrix,
    RationalVector,
    _checked_result,
    _recomposes,
    abelianized_b1,
    det,
    hermite,
    rank,
    same_row_lattice,
    snf,
)
from coverhom.homology import SurfaceConfig

from oracles import (
    det_cofactor,
    divisor_sequence_by_minor_gcd,
    gauss_rank,
    identity_rows,
    in_row_lattice_by_smith,
    matmul_rows,
    rank_by_minors,
    is_symmetric_rows,
    same_row_lattice_by_smith,
    transpose_rows,
)

IDENTITY_2 = IntMatrix.from_rows(identity_rows(2))


def zero_matrix(rows, cols):
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def _matrix(rows, cols, bound=2**70):
    """Strategy for list-of-lists integer matrices of the given shape."""
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


def _product_factors(rows, inner, cols, bound=2**70):
    """Strategy for (a, b, (rows, inner, cols)) with a rows x inner and b inner x cols."""
    shape = st.tuples(rows, inner, cols)
    return shape.flatmap(
        lambda s: st.tuples(_matrix(s[0], s[1], bound), _matrix(s[1], s[2], bound), st.just(s))
    )


def _sparse_matrix(rows, cols, bound=2**40):
    """Strategy for matrices whose share of nonzero entries is drawn from 0 to 1 in tenths."""
    def fill(tenths):
        entry = st.tuples(st.integers(0, 9), st.integers(-bound, bound)).map(
            lambda t: t[1] if t[0] < tenths else 0
        )
        return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    return st.integers(0, 10).flatmap(fill)


def _unit_triangular(n, lower, bound=9):
    """Strategy for n x n triangular matrices with diagonal entries +-1."""
    def build(draw):
        diag, off = draw
        return [
            [diag[i] if i == j else off[i][j] if (j < i if lower else j > i) else 0 for j in range(n)]
            for i in range(n)
        ]

    return st.tuples(
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), _matrix(n, n, bound)
    ).map(build)


def _structured(n):
    """Strategy for n x n matrices of the shapes whose zeros the kernels skip.

    Triangular, signed permutation, tridiagonal, with zero rows or columns,
    and products L*U of unit triangular factors: their leading minors are
    +-1, so Bareiss elimination meets both p == prev and p == -prev pivots
    with every row below the pivot nonzero in the pivot column.
    """
    dense = _matrix(n, n, 2**20)
    rng = range(n)
    return st.one_of(
        _unit_triangular(n, lower=True),
        _unit_triangular(n, lower=False),
        dense.map(lambda r: [[r[i][j] if j <= i else 0 for j in rng] for i in rng]),
        st.tuples(st.permutations(list(rng)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)).map(
            lambda ps: [[ps[1][i] if ps[0][i] == j else 0 for j in rng] for i in rng]
        ),
        dense.map(lambda r: [[r[i][j] if abs(i - j) <= 1 else 0 for j in rng] for i in rng]),
        st.tuples(dense, st.sets(st.sampled_from(list(rng)) if n else st.nothing())).map(
            lambda t: [[0] * n if i in t[1] else t[0][i] for i in rng]
        ),
        st.tuples(dense, st.sets(st.sampled_from(list(rng)) if n else st.nothing())).map(
            lambda t: [[0 if j in t[1] else t[0][i][j] for j in rng] for i in rng]
        ),
        st.tuples(_unit_triangular(n, lower=True), _unit_triangular(n, lower=False)).map(
            lambda lu: matmul_rows(lu[0], lu[1], n)
        ),
    )


def _huge_with_zero_lines(rows, cols):
    """Strategy for rows x cols matrices of entries up to +-2^200, some rows and columns zeroed."""
    def lines(k):
        return st.sets(st.integers(0, k - 1)) if k else st.just(set())

    return st.tuples(_matrix(rows, cols, 2**200), lines(rows), lines(cols)).map(
        lambda t: [[0 if i in t[1] or j in t[2] else x for j, x in enumerate(r)] for i, r in enumerate(t[0])]
    )


def _uav(shape, u, a, v):
    """u*a*v by the triple loop, for u p x m, a m x n and v n x q."""
    _, _, n, q = shape
    return matmul_rows(matmul_rows(u, a, n), v, q)


def _recomposition_case():
    """Strategy for ((p, m, n, q), u, a, v, d): u p x m, a m x n, v n x q, shapes 0 to 6.

    d is u*a*v by the triple loop, or that product with one entry moved by a
    nonzero amount or with its sign flipped.
    """
    def with_d(case):
        shape, u, a, v, change = case
        d = _uav(shape, u, a, v)
        if change is not None:
            (i, j), delta = change
            d[i][j] = -d[i][j] if delta is None else d[i][j] + delta
        return shape, u, a, v, d

    def build(shape):
        p, m, n, q = shape
        cell = st.tuples(st.integers(0, p - 1), st.integers(0, q - 1)) if p * q else st.nothing()
        change = st.tuples(cell, st.none() | st.integers(-(2**200), 2**200).filter(bool))
        factors = (_huge_with_zero_lines(p, m), _huge_with_zero_lines(m, n), _huge_with_zero_lines(n, q))
        return st.tuples(st.just(shape), *factors, st.none() | change)

    return st.tuples(*[st.integers(0, 6)] * 4).flatmap(build).map(with_d)


def _carried(shape, u, a, v, i, j):
    """A case whose d is u*a*v with 2^w added at (i, j) and 1 taken from (i, j + 1).

    w is the width the unperturbed product gives column j, so at the
    product's widths d packs to the same integer as u*a*v.
    """
    _, m, n, _ = shape
    d = _uav(shape, u, a, v)

    def bits(rows):
        return max((abs(x) for r in rows for x in r), default=0).bit_length()

    column = slice(j, j + 1)
    w = max(
        bits(u) + bits(a) + (m * n).bit_length() + 1 + bits(r[column] for r in v),
        bits(r[column] for r in d) + 1,
    )
    d[i][j] += 2**w
    d[i][j + 1] -= 1
    return shape, u, a, v, d


def _sign_flipped(shape, u, a, v, i, j):
    """A case whose d is u*a*v with the sign of entry (i, j) flipped."""
    d = _uav(shape, u, a, v)
    d[i][j] = -d[i][j]
    return shape, u, a, v, d


def dense_random_rows(n):
    """An n x n matrix of entries in [-9, 9], drawn row-major from random.Random(0)."""
    rng = random.Random(0)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def _snf_invariants(m: IntMatrix):
    res = snf(m)
    assert res.u.mul(m).mul(res.v).entries == res.d.entries
    assert abs(det(res.u)) == 1
    assert abs(det(res.v)) == 1
    diag = res.divisors
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    if m.rows == m.cols:
        # unimodular transforms preserve |det|
        product = 1
        for x in diag:
            product *= x
        assert abs(det(m)) == product
    return res


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionError):
            IntMatrix(-1, 0, ())
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([(1, 2), (3,)])

    def test_entries_must_be_ints(self):
        with pytest.raises(DomainError):
            IntMatrix(1, 1, (1.5,))
        with pytest.raises(DomainError):
            IntMatrix(1, 1, (True,))

    def test_mul_and_transpose(self):
        a = IntMatrix.from_rows([(1, 2), (3, 4)])
        b = IntMatrix.from_rows([(0, 1), (1, 0)])
        assert a.mul(b).to_rows() == [[2, 1], [4, 3]]
        assert a.mul(IntMatrix.from_rows(transpose_rows(a.to_rows(), 2))).to_rows() == [[5, 11], [11, 25]]
        with pytest.raises(DimensionError):
            a.mul(IntMatrix.from_rows([(1, 2)]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_product_factors(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
    def test_mul_matches_triple_loop(self, case):
        a, b, (m, k, n) = case
        product = IntMatrix.from_rows(a, cols=k).mul(IntMatrix.from_rows(b, cols=n))
        assert (product.rows, product.cols) == (m, n)
        assert product.to_rows() == matmul_rows(a, b, n)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)).flatmap(
                lambda s: st.tuples(_sparse_matrix(s[0], s[1]), _sparse_matrix(s[1], s[2]), st.just(s))
            ),
            st.integers(0, 7).flatmap(lambda n: st.tuples(_structured(n), _structured(n), st.just((n, n, n)))),
        )
    )
    # mul has one loop, a dot product per entry, which must not depend on how
    # sparse a factor is. These examples put right factors at ceil(k*n/2)
    # nonzero entries and one fewer, with k*n odd and even, and give shapes
    # with k = 0 and n = 0, where a row or a column is empty.
    @example(([[1, -2, 3], [0, 4, 5]], [[1, 0, 2], [0, 3, 0], [-4, 0, 5]], (2, 3, 3)))
    @example(([[1, -2, 3], [0, 4, 5]], [[1, 0, 2], [0, 3, 0], [-4, 0, 0]], (2, 3, 3)))
    @example(([[2, -1], [3, 5], [0, 7]], [[0, 6, 0, -1], [9, 0, 0, 2]], (3, 2, 4)))
    @example(([[2, -1], [3, 5], [0, 7]], [[0, 6, 0, -1], [9, 0, 0, 0]], (3, 2, 4)))
    @example(([[], []], [], (2, 0, 3)))
    @example(([[1, 2, 3], [4, 5, 6]], [[], [], []], (2, 3, 0)))
    def test_mul_of_sparse_and_structured_factors_matches_triple_loop(self, case):
        a, b, (m, k, n) = case
        product = IntMatrix.from_rows(a, cols=k).mul(IntMatrix.from_rows(b, cols=n))
        assert (product.rows, product.cols) == (m, n)
        assert product.to_rows() == matmul_rows(a, b, n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda s: st.tuples(_matrix(*s), st.just(s))
        )
    )
    def test_transpose_diagonal_symmetry(self, case):
        rows, (m, n) = case
        a = IntMatrix.from_rows(rows, cols=n)
        assert a.diagonal() == tuple(rows[i][i] for i in range(min(m, n)))
        assert is_symmetric_rows(a.mul(IntMatrix.from_rows(transpose_rows(rows, n), cols=m)).to_rows())


class TestSnf:
    def test_identity(self):
        res = snf(IDENTITY_2)
        assert res.d.to_rows() == [[1, 0], [0, 1]]
        assert res.u.to_rows() == [[1, 0], [0, 1]]
        assert res.v.to_rows() == [[1, 0], [0, 1]]

    def test_failed_recomposition_raises(self, monkeypatch):
        monkeypatch.setattr(coverhom.intlinalg, "_recomposes", lambda u, a, v, d: False)
        with pytest.raises(VerificationError, match=r"does not recompose: u\*a\*v differs from d$"):
            snf(IDENTITY_2)

    # snf checks u*a*v == d on rows packed into one integer each, at widths
    # taken from the largest entries of u, a and each column of v and d.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_recomposition_case())
    # A carry of 2^w into column j, paid back by -1 in column j + 1, packs to
    # the same integer at the widths of u*a*v; d's own widths must tell them apart.
    @example(_carried((1, 1, 1, 2), [[1]], [[1]], [[1, 1]], 0, 0))
    @example(_carried((2, 2, 2, 3), [[1, -(2**200)], [3, 0]], [[-1, 2], [2**199, 5]], [[7, 0, -1], [1, 2**200, 0]], 1, 1))
    # One sign flipped, the rest of d equal to u*a*v.
    @example(_sign_flipped((2, 2, 3, 2), [[1, 0], [2, 1]], [[2**200, -3, 0], [5, 0, 7]], [[1, -1], [0, 2], [4, 0]], 1, 0))
    def test_packed_check_agrees_with_the_triple_loop(self, case):
        shape, u, a, v, d = case
        _, m, n, q = shape
        matrices = [IntMatrix.from_rows(x, cols=c) for x, c in ((u, m), (a, n), (v, q), (d, q))]
        assert _recomposes(*matrices) == (d == _uav(shape, u, a, v))

    def test_failed_unimodularity_raises(self, monkeypatch):
        monkeypatch.setattr(coverhom.intlinalg, "det", lambda m: 2)
        with pytest.raises(VerificationError):
            snf(IDENTITY_2)

    def test_two_by_two(self):
        # Divisor sequence checked against the gcd-of-minors oracle:
        # gcd of entries 2, |det| = 8, so diag(2, 4).
        rows = [[2, 4], [6, 8]]
        assert divisor_sequence_by_minor_gcd(rows) == [2, 4]
        res = _snf_invariants(IntMatrix.from_rows(rows))
        assert res.divisors == (2, 4)

    def test_one_by_one_zero(self):
        res = snf(IntMatrix.from_rows([[0]]))
        assert res.d.to_rows() == [[0]]

    def test_empty_and_rectangular(self):
        _snf_invariants(IntMatrix(0, 3, ()))
        _snf_invariants(IntMatrix(3, 0, ()))
        res = _snf_invariants(IntMatrix.from_rows([(4, 6, 10)]))
        assert res.divisors == (2,)

    def test_divisor_sequence_matches_minor_gcds(self):
        rng = random.Random(20260810)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            res = _snf_invariants(IntMatrix.from_rows(rows))
            assert list(res.divisors) == divisor_sequence_by_minor_gcd(rows)

    def test_divisors_match_sympy_invariant_factors(self):
        # An independent implementation: sympy's invariant factors share no code with snf.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(20261018)

        def random_rows(m, n):
            return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]

        cases = []
        for _ in range(15):
            n = rng.randint(1, 12)
            cases.append(random_rows(n, n))
            m, n = rng.sample(range(1, 13), 2)
            cases.append(random_rows(m, n))
            n = rng.randint(2, 12)
            r = rng.randint(1, n - 1)
            cases.append(matmul_rows(random_rows(n, r), random_rows(r, n), n))  # rank at most r
        for n in range(1, 30):
            cases.append([[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)])
        for n in (24, 28, 40):
            cases.append(dense_random_rows(n))
        for rows in cases:
            ours = [x for x in snf(IntMatrix.from_rows(rows)).divisors if x]
            theirs = [int(x) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if x]
            assert ours == theirs, rows

    def test_random_40_by_40_decomposes_and_verifies_within_two_seconds(self):
        a = IntMatrix.from_rows(dense_random_rows(40))
        start = time.perf_counter()
        res = snf(a)  # checks u*a*v == d, |det u| = |det v| = 1 and the divisor chain
        assert time.perf_counter() - start < 2
        product = matmul_rows(matmul_rows(res.u.to_rows(), a.to_rows(), 40), res.v.to_rows(), 40)
        assert product == res.d.to_rows()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    # Steps update rows of the working matrix and of v's transpose in place,
    # over the pivot line's nonzero entries: rows must not share a list, and
    # the support must be retaken whenever the pivot line changes.
    @example([[1] * 6 for _ in range(6)])
    @example([[2, 3, 2, 5, 7], [4, 1, 4, 6, 8], [2, 3, 2, 5, 7], [9, 5, 9, 3, 4], [6, 7, 6, 2, 8]])
    # The first pivot 4 leaves remainders -1 and 1 in its column, so the row
    # with -1 becomes the pivot row, nonzero where the old one was zero. In
    # the next the pivot row's remainders -1 and 1 swap in a new column of v.
    @example([[4, 0, 6], [7, 5, 9], [9, 5, 14]])
    @example([[4, 7, 9], [0, 5, 5], [8, 9, 14]])
    def test_snf_invariants_property(self, rows):
        _snf_invariants(IntMatrix.from_rows(rows))

    # The helper that runs snf's own checks, on hand-made triples that each fail one check.
    def test_snf_result_rejects_non_unimodular_transform(self):
        doubled = IntMatrix.from_rows([(2, 0), (0, 1)])
        for u, v in ((doubled, IDENTITY_2), (IDENTITY_2, doubled)):
            with pytest.raises(VerificationError, match="failed its own check: transforms must be unimodular$"):
                _checked_result(u, IDENTITY_2, v)

    def test_snf_result_keeps_transform_determinants(self):
        res = snf(IntMatrix.from_rows([(2, 4, 4), (-6, 6, 12), (10, -4, -16)]))
        assert (res.det_u, res.det_v) == (det(res.u), det(res.v))
        assert abs(res.det_u) == abs(res.det_v) == 1
        assert _checked_result(res.u, res.d, res.v) == res

    @pytest.mark.parametrize(
        "d, reason",
        [
            ([(1, 1), (0, 1)], "middle factor is not diagonal"),
            ([(-1, 0), (0, 2)], "diagonal entries must be nonnegative"),
            ([(0, 0), (0, 2)], "zero diagonal entry precedes a nonzero one"),
        ],
        ids=["off-diagonal", "negative", "zero-first"],
    )
    def test_snf_result_rejects_bad_diagonal(self, d, reason):
        with pytest.raises(VerificationError, match=f"^smith decomposition failed its own check: {reason}$"):
            _checked_result(IDENTITY_2, IntMatrix.from_rows(d), IDENTITY_2)

    def test_snf_result_rejects_broken_chain(self):
        with pytest.raises(VerificationError, match="failed its own check: diagonal divisor chain broken$"):
            _checked_result(IDENTITY_2, IntMatrix.from_rows([(3, 0), (0, 2)]), IDENTITY_2)
        # 0 divides only 0, so zeros may follow any divisor and each other.
        for diag in ((3, 0), (0, 0)):
            d = IntMatrix(2, 2, (diag[0], 0, 0, diag[1]))
            assert _checked_result(IDENTITY_2, d, IDENTITY_2).divisors == diag


class TestDet:
    def test_identity(self):
        for n in range(5):
            assert det(IntMatrix.from_rows(identity_rows(n))) == 1

    def test_chain_two(self):
        rows = [[-2, 1], [1, -2]]
        assert det_cofactor(rows) == 3
        assert det(IntMatrix.from_rows(rows)) == 3

    def test_sign_respects_row_order(self):
        rows = [[2, 4], [6, 8]]
        assert det_cofactor(rows) == -8
        assert det(IntMatrix.from_rows(rows)) == -8
        swapped = [[6, 8], [2, 4]]
        assert det(IntMatrix.from_rows(swapped)) == 8

    def test_zero_by_zero_is_one(self):
        assert det(IntMatrix(0, 0, ())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(IntMatrix.from_rows([(1, 2, 3)]))

    def test_against_cofactor_oracle_random(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(0, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix.from_rows(rows, cols=n)) == det_cofactor(rows)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    def test_against_cofactor_oracle_property(self, rows):
        assert det(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.one_of(_sparse_matrix(n, n), _structured(n)), st.just(n))))
    def test_sparse_and_structured_against_cofactor_oracle(self, case):
        rows, n = case
        assert det(IntMatrix.from_rows(rows, cols=n)) == det_cofactor(rows)

    def test_unit_pivots_of_both_signs(self):
        # L*U with unit triangular factors has leading minors 1, -1, -1, 1:
        # the pivots repeat (p == prev) and flip sign (p == -prev), and every
        # row below each pivot is nonzero in its column.
        lower = [[1, 0, 0, 0], [2, -1, 0, 0], [-3, 4, 1, 0], [5, -6, 7, -1]]
        upper = [[1, 3, -2, 5], [0, 1, 4, -1], [0, 0, 1, 2], [0, 0, 0, 1]]
        rows = matmul_rows(lower, upper, 4)
        assert [det_cofactor([r[:k] for r in rows[:k]]) for k in range(1, 5)] == [1, -1, -1, 1]
        assert all(rows[i][0] for i in range(4))
        assert det(IntMatrix.from_rows(rows)) == det_cofactor(rows) == 1
        assert rank(IntMatrix.from_rows(rows)) == gauss_rank(rows) == 4


class TestRank:
    def test_zero_matrix(self):
        assert rank(zero_matrix(3, 3)) == 0

    def test_identity(self):
        assert rank(IntMatrix.from_rows(identity_rows(4))) == 4

    def test_row_vector(self):
        rows = [[1, 0, 0, 0]]
        assert gauss_rank(rows) == 1
        assert rank(IntMatrix.from_rows(rows)) == 1

    def test_empty(self):
        assert rank(IntMatrix(0, 4, ())) == 0
        assert rank(IntMatrix(4, 0, ())) == 0

    def test_three_routes_agree(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            mat = IntMatrix.from_rows(rows)
            by_rank = rank(mat)
            by_snf = sum(1 for x in snf(mat).divisors if x != 0)
            assert by_rank == by_snf == rank_by_minors(rows) == gauss_rank(rows)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_product_factors(st.integers(1, 6), st.integers(0, 4), st.integers(1, 6), bound=9))
    def test_rank_of_products_matches_rational_elimination(self, case):
        # A product through an inner dimension k has rank at most k, so most
        # draws are rank deficient: the exact-division step meets skipped columns.
        a, b, (_, _, n) = case
        rows = matmul_rows(a, b, n)
        mat = IntMatrix.from_rows(rows, cols=n)
        assert rank(mat) == gauss_rank(rows) == sum(1 for x in snf(mat).divisors if x != 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
                lambda s: st.tuples(_sparse_matrix(*s), st.just(s[1]))
            ),
            st.integers(0, 7).flatmap(lambda n: st.tuples(_structured(n), st.just(n))),
        )
    )
    def test_sparse_and_structured_match_rational_elimination(self, case):
        rows, n = case
        assert rank(IntMatrix.from_rows(rows, cols=n)) == gauss_rank(rows)


class TestAbelianizedB1:
    def test_single_killed_generator(self):
        # The abelianized monodromy relation kills one of four generators.
        assert abelianized_b1(4, [(1, 0, 0, 0)]) == 3

    def test_free(self):
        assert abelianized_b1(4, []) == 4

    def test_all_killed(self):
        assert abelianized_b1(2, [(1, 0), (0, 1)]) == 0

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            abelianized_b1(3, [(1, 0)])
        with pytest.raises(DomainError):
            abelianized_b1(-1, [])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=g, max_size=g),
                    min_size=1,
                    max_size=4,
                ),
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_invariance_under_row_operations(self, data, rnd):
        g, relators = data
        base = abelianized_b1(g, relators)
        # permutation
        shuffled = list(relators)
        rnd.shuffle(shuffled)
        assert abelianized_b1(g, shuffled) == base
        # negation of one relator
        i = rnd.randrange(len(relators))
        negated = [[-x for x in r] if k == i else r for k, r in enumerate(relators)]
        assert abelianized_b1(g, negated) == base
        # adding one relator to another
        j = rnd.randrange(len(relators))
        if len(relators) > 1:
            while j == i:
                j = rnd.randrange(len(relators))
            added = [
                [x + y for x, y in zip(r, relators[j])] if k == i else r
                for k, r in enumerate(relators)
            ]
            assert abelianized_b1(g, added) == base


def _smith(rows, cols):
    """(divisors, v rows) of the package's Smith decomposition: the oracle's second route."""
    res = snf(IntMatrix.from_rows(rows, cols=cols))
    return res.divisors, res.v.to_rows()


def _random_rows(rnd, count, cols):
    return [[rnd.randint(-4, 4) for _ in range(cols)] for _ in range(count)]


def _unimodular_mix(rnd, rows):
    """rows after random swaps, negations and additions of one row's multiple to another."""
    rows = [list(r) for r in rows]
    for _ in range(rnd.randint(0, 6)):
        if not rows:
            break
        i, j = rnd.randrange(len(rows)), rnd.randrange(len(rows))
        op = rnd.randrange(3)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            f = rnd.randint(-3, 3)
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    return rows


def _padded(rnd, rows, cols):
    """rows with a zero row or a repeated row put in at random places: the same lattice."""
    rows = list(rows)
    if rnd.random() < 0.3:
        rows.insert(rnd.randint(0, len(rows)), [0] * cols)
    if rows and rnd.random() < 0.3:
        rows.insert(rnd.randint(0, len(rows)), list(rnd.choice(rows)))
    return rows


def _lattice_pairs(count, seed):
    """(a_rows, b_rows, cols): half b a unimodular mix of a, half b random or a with one row doubled."""
    rnd = random.Random(seed)
    for k in range(count):
        cols = rnd.randint(1, 5)
        a = _padded(rnd, _random_rows(rnd, rnd.randint(0, 4), cols), cols)
        if k % 2 == 0:
            b = _padded(rnd, _unimodular_mix(rnd, a), cols)
        elif a and rnd.random() < 0.5:
            b = _unimodular_mix(rnd, a)
            i = rnd.randrange(len(b))
            b[i] = [2 * x for x in b[i]]
        else:
            b = _padded(rnd, _random_rows(rnd, rnd.randint(0, 4), cols), cols)
        yield a, b, cols


def _is_hermite(h: IntMatrix) -> bool:
    """Nonzero rows with positive pivots moving right, zeros below them and entries above in [0, pivot)."""
    pivots = []
    rows = h.to_rows()
    for row in rows:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or row[c] <= 0 or (pivots and c <= pivots[-1]):
            return False
        pivots.append(c)
    return all(
        0 <= rows[i][c] < rows[r][c] if i < r else rows[i][c] == 0
        for r, c in enumerate(pivots)
        for i in range(h.rows)
        if i != r
    )


class TestRowLattice:
    def test_membership(self):
        rows = [(2, 0), (0, 3)]
        divisors, v_rows = _smith(rows, 2)
        assert in_row_lattice_by_smith((2, 3), divisors, v_rows)
        assert in_row_lattice_by_smith((4, -3), divisors, v_rows)
        assert not in_row_lattice_by_smith((1, 0), divisors, v_rows)
        assert hermite(IntMatrix.from_rows(rows)) == IntMatrix.from_rows(rows)
        assert same_row_lattice(IntMatrix.from_rows([(2, 3), (4, -3)]), IntMatrix.from_rows([(2, 3), (0, 9)]))

    def test_empty_lattice(self):
        empty = IntMatrix(0, 2, ())
        assert same_row_lattice_by_smith([(0, 0)], [], 2, _smith)
        assert not same_row_lattice_by_smith([(1, 0)], [], 2, _smith)
        assert hermite(empty) == hermite(IntMatrix.from_rows([(0, 0), (0, 0)])) == empty
        assert same_row_lattice(empty, IntMatrix.from_rows([(0, 0)]))
        assert not same_row_lattice(empty, IntMatrix.from_rows([(1, 0)]))

    def test_same_lattice(self):
        a = IntMatrix.from_rows([(1, 0, 0, 0)])
        b = IntMatrix.from_rows([(-1, 0, 0, 0)])
        c = IntMatrix.from_rows([(0, 1, 0, 0)])
        assert same_row_lattice(a, b)
        assert not same_row_lattice(a, c)
        # row operations preserve the lattice
        d = IntMatrix.from_rows([(1, 2), (0, 5)])
        e = IntMatrix.from_rows([(1, 7), (1, 2)])
        assert same_row_lattice(d, e)
        for x, y, same in ((a, b, True), (a, c, False), (d, e, True)):
            assert same_row_lattice_by_smith(x.to_rows(), y.to_rows(), x.cols, _smith) == same

    def test_different_ambient_ranks_rejected(self):
        with pytest.raises(DimensionError):
            same_row_lattice(IntMatrix.from_rows([(1, 0)]), IntMatrix.from_rows([(1, 0, 0)]))

    def test_hermite_form_of_a_known_matrix(self):
        a = IntMatrix.from_rows([(2, 3, 6, 2), (5, 6, 1, 6), (8, 3, 1, 1)])
        # Pivots 1, 3 and 61 in columns 0, 1 and 2, with 0, 50 and 28 above them reduced.
        h = IntMatrix.from_rows([(1, 0, 50, -11), (0, 3, 28, -2), (0, 0, 61, -13)])
        assert _is_hermite(h) and same_row_lattice_by_smith(h.to_rows(), a.to_rows(), 4, _smith)
        assert hermite(a) == h

    def test_same_row_lattice_matches_two_way_smith_membership(self):
        outcomes = []
        for a, b, cols in _lattice_pairs(1200, seed=12):
            ours = same_row_lattice(IntMatrix.from_rows(a, cols=cols), IntMatrix.from_rows(b, cols=cols))
            assert ours == same_row_lattice_by_smith(a, b, cols, _smith), (a, b)
            outcomes.append(ours)
        # Both answers occur often, so neither side can pass by always giving one.
        assert min(outcomes.count(True), outcomes.count(False)) > 300

    def test_hermite_is_a_unique_form_of_the_lattice(self):
        for a, _, cols in _lattice_pairs(400, seed=13):
            m = IntMatrix.from_rows(a, cols=cols)
            h = hermite(m)
            assert _is_hermite(h) and h.cols == cols and h.rows == gauss_rank(a)
            assert hermite(h) == h
            assert same_row_lattice_by_smith(h.to_rows(), a, cols, _smith)
            for seed in range(3):
                mixed = _unimodular_mix(random.Random(seed), a)
                assert hermite(IntMatrix.from_rows(mixed, cols=cols)) == h


class TestRationalVector:
    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            RationalVector((0.5,))

    def test_dot(self):
        v = RationalVector((Fraction(1, 2), 3))
        assert v.dot((2, 1)) == Fraction(4)
        with pytest.raises(DimensionError):
            v.dot((1,))

    @pytest.mark.parametrize("bad", [0.0, 1.5])
    def test_dot_rejects_float_coordinates(self, bad):
        # A float zero is refused too, not skipped as a zero would be.
        v = RationalVector((Fraction(1, 2), 3))
        with pytest.raises(DomainError):
            v.dot((bad, 1))
        with pytest.raises(DomainError):
            v.dot((0, bad))

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bools(self, bad):
        # An int subclass, but no rational: refused as a coordinate and in a dot, as _as_int refuses it.
        with pytest.raises(DomainError, match="rational required"):
            RationalVector((bad, 1))
        v = RationalVector((5, 7))
        with pytest.raises(DomainError):
            v.dot((bad, 0))
        with pytest.raises(DomainError):
            v.dot((0, bad))

    def test_dot_matches_the_unskipped_sum(self):
        rnd = random.Random(7)
        for _ in range(500):
            n = rnd.randint(0, 6)
            coords = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]
            other = [rnd.choice((0, 0, 0, rnd.randint(-5, 5), Fraction(rnd.randint(-5, 5), 3), "2/7", Fraction(0))) for _ in range(n)]
            got = RationalVector(coords).dot(other)
            assert type(got) is Fraction
            assert got == sum((c * Fraction(x) for c, x in zip(coords, other)), Fraction(0))

    def test_normalized(self):
        v = RationalVector((Fraction(2, 4),))
        assert v.coords == (Fraction(1, 2),)

    def test_fraction_coordinates_kept_and_others_converted(self):
        # A Fraction is immutable, so it is stored as given; a subclass becomes a plain Fraction.
        class Sub(Fraction):
            pass

        q = Fraction(1, 3)
        coords = RationalVector((q, Sub(2, 3), 4, "5/6")).coords
        assert coords[0] is q
        assert [type(c) for c in coords] == [Fraction] * 4
        assert coords == (q, Fraction(2, 3), Fraction(4), Fraction(5, 6))


class TestRefusedValues:
    @pytest.mark.parametrize(
        "convert, value, message",
        [
            ("_as_fraction", 2.5, "floating point rejected, got 2.5; use int, str or Fraction"),
            ("_as_fraction", True, "rational required, got True"),
            ("_as_int", Fraction(3, 2), "integer required, got Fraction(3, 2)"),
            ("_as_int", "x", "integer required, got 'x'"),
            ("_as_fraction", "x", "must be a rational like 3/2, got 'x'"),
        ],
    )
    def test_short_value_echoed_in_full(self, convert, value, message):
        with pytest.raises(DomainError) as caught:
            getattr(coverhom.intlinalg, convert)(value)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, size",
        [("1e3000000", 3000001), ("1e-3000000", 3000001), ("9" * 4301, 4301), ("1/" + "9" * 5000, 5000)],
        ids=["exponent", "negative-exponent", "digits", "denominator"],
    )
    def test_long_rational_string_refused_before_it_is_built(self, text, size):
        # RationalVector(("1e3000000",)) once returned after 1.0 s, holding a 3,000,001-digit numerator.
        start = time.perf_counter()
        with pytest.raises(DomainError) as caught:
            RationalVector((text,))
        assert time.perf_counter() - start < 0.25
        assert str(caught.value) == (f"rational {echoed(text)} needs an integer of {size} digits, "
                                     "above the limit of 4300 digits")

    def test_only_int_fraction_and_str_are_read(self):
        # Each was once read through Fraction(): Decimal("1e3000000") in 1.0 s, into a 3,000,001-digit numerator.
        ratio = type("Ratio", (numbers.Rational,), dict.fromkeys(numbers.Rational.__abstractmethods__, 2))
        for value in (Decimal("1e3000000"), Decimal("1.5"), ratio()):
            start = time.perf_counter()
            with pytest.raises(DomainError) as caught:
                RationalVector((value,))
            assert time.perf_counter() - start < 0.25
            assert str(caught.value) == f"rational required, got {echoed(value)}"

    def test_long_or_unprintable_value_named_by_kind_and_size(self):
        # Each raised an unbounded DomainError, or let an error of repr() or Fraction() escape: the digit limit,
        # the recursion limit, a TypeError or a ZeroDivisionError.
        huge = "<Fraction of 5001/1 digits>"
        nested = []
        for _ in range(100_000):
            nested = [nested]
        cases = [
            (lambda: SurfaceConfig(1, 1, 1, 1, "x" * 100000), "integer required, got <100000 characters>"),
            (lambda: SurfaceConfig(1, 1, 1, 1, 2, ("x" * 100000, 1)), "must be a rational like 3/2, got <100000 characters>"),
            (lambda: coverhom.intlinalg._as_int(Fraction(10**5000, 3)), f"integer required, got {huge}"),
            (lambda: build_tower7(Fraction(10**5000, 7)), f"integer required, got {huge}"),
            (lambda: IntMatrix(1, 1, ([10**5000],)), "integer required, got <list>"),
            (lambda: coverhom.intlinalg._as_int([10**5000]), "integer required, got <list>"),
            (lambda: coverhom.intlinalg._as_int(nested), "integer required, got <list>"),
            (lambda: RationalVector((None,)), "rational required, got None"),
            (lambda: RationalVector(([1],)), "rational required, got [1]"),
            (lambda: RationalVector(("1/0",)), "must be a rational like 3/2, got '1/0'"),
        ]
        for build, message in cases:
            with pytest.raises(DomainError) as caught:
                build()
            assert str(caught.value) == message
