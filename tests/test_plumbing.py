import random
import time

import pytest

from coverhom.errors import DomainError
from coverhom.intlinalg import IntMatrix, det, rank
from coverhom.plumbing import LinearChain, PlumbingVertex, chain_rank, milnor_fiber_2_2_d

from oracles import chain_determinant_recurrence, chain_rows, det_cofactor, gauss_rank, is_symmetric_rows

SPHERE = PlumbingVertex(-2, 0)


def dense(chain):
    """The chain's intersection matrix, written out."""
    n = chain.length
    return IntMatrix.from_rows(chain_rows(n, chain.vertex.euler_number), cols=n)


class TestGraphValidation:
    def test_negative_genus_rejected(self):
        with pytest.raises(DomainError):
            PlumbingVertex(-2, -1)


class TestLinearChain:
    def test_empty(self):
        g = LinearChain(0, SPHERE)
        assert g.length == 0 and chain_rank(g) == 0

    def test_single_vertex(self):
        g = LinearChain(1, SPHERE)
        assert g.length == 1
        assert g.vertex.euler_number == -2
        assert g.vertex.genus == 0

    def test_path_on_three(self):
        # One vertex and a length; no len(), which refuses lengths past 2**63 - 1.
        g = LinearChain(3, SPHERE)
        assert (g.length, g.vertex) == (3, PlumbingVertex(-2, 0))
        with pytest.raises(TypeError):
            len(g)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            LinearChain(-1, SPHERE)


class TestMilnorFiber:
    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            milnor_fiber_2_2_d(0)

    def test_degree_one_is_empty(self):
        assert milnor_fiber_2_2_d(1).length == 0

    def test_degree_two_single_sphere(self):
        assert milnor_fiber_2_2_d(2) == LinearChain(1, SPHERE)

    def test_degree_five_path(self):
        assert milnor_fiber_2_2_d(5) == LinearChain(4, SPHERE)

    def test_huge_degree_ranked_in_bounded_time(self):
        start = time.perf_counter()
        for d in (10**6, 10**30, 10**300 + 1):
            assert chain_rank(milnor_fiber_2_2_d(d)) == d - 1
        assert time.perf_counter() - start < 0.5


class TestIntersectionMatrix:
    # The oracle's written-out chain lattice, which the rank checks compare against.
    def test_empty(self):
        assert chain_rows(0, -2) == []

    def test_chain_two(self):
        assert chain_rows(2, -2) == [[-2, 1], [1, -2]]

    def test_chain_three_tridiagonal(self):
        assert chain_rows(3, -2) == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]

    def test_always_symmetric_random(self):
        rng = random.Random(5)
        for _ in range(40):
            n, e = rng.randint(1, 12), rng.randint(-4, 4)
            rows = chain_rows(n, e)
            assert is_symmetric_rows(rows)
            assert chain_rank(LinearChain(n, PlumbingVertex(e, rng.randint(0, 2)))) == gauss_rank(rows)


class TestChainDeterminant:
    def test_matches_recurrence_and_cofactor(self):
        for n in range(0, 9):
            m = dense(LinearChain(n, SPHERE))
            d = det(m)
            assert d == chain_determinant_recurrence(n)
            assert d == det_cofactor(m.to_rows())
            assert abs(d) == n + 1

    def test_milnor_nondegenerate(self):
        for d_val in range(1, 10):
            m = dense(milnor_fiber_2_2_d(d_val))
            assert abs(det(m)) == d_val
            if d_val >= 2:
                assert det(m) != 0

    def test_chain_rank_full(self):
        for d_val in range(1, 8):
            chain = milnor_fiber_2_2_d(d_val)
            assert chain_rank(chain) == rank(dense(chain)) == d_val - 1


class TestChainRank:
    def test_matches_dense_bareiss_rank(self):
        for e in range(-4, 5):
            for n in range(31):
                chain = LinearChain(n, PlumbingVertex(e, 0))
                assert chain_rank(chain) == rank(dense(chain)), (n, e)

    def test_matches_recurrence(self):
        deficient = set()
        for e in range(-4, 5):
            for n in range(31):
                expected = n if chain_determinant_recurrence(n, e) else n - 1
                assert chain_rank(LinearChain(n, PlumbingVertex(e, 0))) == expected, (n, e)
                if expected < n:
                    deficient.add(e)
        # The continuant vanishes for some n exactly when |e| < 2.
        assert deficient == {-1, 0, 1}

    def test_recurrence_default_is_the_sphere_chain(self):
        assert [chain_determinant_recurrence(n) for n in range(5)] == [1, -2, 3, -4, 5]
        assert [chain_determinant_recurrence(n, 0) for n in range(5)] == [1, 0, -1, 0, 1]
