import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverhom.intlinalg
from coverhom.errors import DimensionError, DomainError, VerificationError
from coverhom.intlinalg import (
    IntMatrix,
    RationalVector,
    SnfResult,
    abelianized_b1,
    det,
    in_row_lattice,
    rank,
    same_row_lattice,
    snf,
)

from oracles import (
    det_cofactor,
    divisor_sequence_by_minor_gcd,
    gauss_rank,
    identity_rows,
    matmul_rows,
    rank_by_minors,
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
        symmetric = m == n and all(rows[i][j] == rows[j][i] for i in range(m) for j in range(n))
        assert a.is_symmetric() == symmetric
        assert a.mul(IntMatrix.from_rows(transpose_rows(rows, n), cols=m)).is_symmetric()


class TestSnf:
    def test_identity(self):
        res = snf(IDENTITY_2)
        assert res.d.to_rows() == [[1, 0], [0, 1]]
        assert res.u.to_rows() == [[1, 0], [0, 1]]
        assert res.v.to_rows() == [[1, 0], [0, 1]]

    def test_failed_recomposition_raises(self, monkeypatch):
        monkeypatch.setattr(IntMatrix, "mul", lambda self, other: zero_matrix(self.rows, other.cols))
        with pytest.raises(VerificationError):
            snf(IDENTITY_2)

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
        for rows in cases:
            ours = [x for x in snf(IntMatrix.from_rows(rows)).divisors if x]
            theirs = [int(x) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if x]
            assert ours == theirs, rows

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_snf_invariants_property(self, rows):
        _snf_invariants(IntMatrix.from_rows(rows))

    def test_snf_result_rejects_non_unimodular_transform(self):
        doubled = IntMatrix.from_rows([(2, 0), (0, 1)])
        for u, v in ((doubled, IDENTITY_2), (IDENTITY_2, doubled)):
            with pytest.raises(DomainError):
                SnfResult(u, IDENTITY_2, v)

    def test_snf_result_keeps_transform_determinants(self):
        res = snf(IntMatrix.from_rows([(2, 4, 4), (-6, 6, 12), (10, -4, -16)]))
        assert (res.det_u, res.det_v) == (det(res.u), det(res.v))
        assert abs(res.det_u) == abs(res.det_v) == 1

    def test_snf_result_rejects_broken_chain(self):
        with pytest.raises(DomainError):
            SnfResult(
                IDENTITY_2,
                IntMatrix.from_rows([(3, 0), (0, 2)]),
                IDENTITY_2,
            )
        with pytest.raises(DomainError):
            SnfResult(
                IDENTITY_2,
                IntMatrix.from_rows([(-1, 0), (0, 2)]),
                IDENTITY_2,
            )


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


class TestRowLattice:
    def test_membership(self):
        mat = IntMatrix.from_rows([(2, 0), (0, 3)])
        assert in_row_lattice((2, 3), mat)
        assert in_row_lattice((4, -3), mat)
        assert not in_row_lattice((1, 0), mat)

    def test_empty_lattice(self):
        mat = IntMatrix(0, 2, ())
        assert in_row_lattice((0, 0), mat)
        assert not in_row_lattice((1, 0), mat)

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


class TestRationalVector:
    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            RationalVector((0.5,))

    def test_dot(self):
        v = RationalVector((Fraction(1, 2), 3))
        assert v.dot((2, 1)) == Fraction(4)
        with pytest.raises(DimensionError):
            v.dot((1,))

    def test_normalized(self):
        v = RationalVector((Fraction(2, 4),))
        assert v.coords == (Fraction(1, 2),)
