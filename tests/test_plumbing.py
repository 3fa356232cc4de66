import random

import pytest

from coverhom.errors import DimensionError, DomainError
from coverhom.intlinalg import det, rank
from coverhom.plumbing import (
    PlumbingGraph,
    PlumbingVertex,
    intersection_matrix,
    linear_chain,
    milnor_fiber_2_2_d,
)

from oracles import chain_determinant_recurrence, det_cofactor


class TestGraphValidation:
    def test_no_self_loops(self):
        v = (PlumbingVertex(-2, 0), PlumbingVertex(-2, 0))
        with pytest.raises(DomainError):
            PlumbingGraph(v, ((0, 0),))

    def test_edges_in_range(self):
        v = (PlumbingVertex(-2, 0),)
        with pytest.raises(DimensionError):
            PlumbingGraph(v, ((0, 1),))

    def test_negative_genus_rejected(self):
        with pytest.raises(DomainError):
            PlumbingVertex(-2, -1)


class TestLinearChain:
    def test_empty(self):
        g = linear_chain(0, -2)
        assert len(g) == 0 and g.edges == ()

    def test_single_vertex(self):
        g = linear_chain(1, -2)
        assert len(g) == 1 and g.edges == ()
        assert g.vertices[0].euler_number == -2
        assert g.vertices[0].genus == 0

    def test_path_on_three(self):
        # Structural oracle: vertex and edge lists of a path.
        g = linear_chain(3, -2)
        assert [v.euler_number for v in g.vertices] == [-2, -2, -2]
        assert [v.genus for v in g.vertices] == [0, 0, 0]
        assert g.edges == ((0, 1), (1, 2))

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            linear_chain(-1, -2)


class TestMilnorFiber:
    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            milnor_fiber_2_2_d(0)

    def test_degree_one_is_empty(self):
        assert len(milnor_fiber_2_2_d(1)) == 0

    def test_degree_two_single_sphere(self):
        g = milnor_fiber_2_2_d(2)
        assert len(g) == 1
        assert g.vertices[0].euler_number == -2

    def test_degree_five_path(self):
        g = milnor_fiber_2_2_d(5)
        assert len(g) == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))


class TestIntersectionMatrix:
    def test_empty(self):
        m = intersection_matrix(linear_chain(0, -2))
        assert m.rows == 0 and m.cols == 0

    def test_chain_two(self):
        m = intersection_matrix(linear_chain(2, -2))
        assert m.to_rows() == [[-2, 1], [1, -2]]

    def test_chain_three_tridiagonal(self):
        m = intersection_matrix(linear_chain(3, -2))
        assert m.to_rows() == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]

    def test_parallel_edges_counted(self):
        v = (PlumbingVertex(0, 1), PlumbingVertex(-1, 0))
        g = PlumbingGraph(v, ((0, 1), (1, 0)))
        assert intersection_matrix(g).to_rows() == [[0, 2], [2, -1]]

    def test_always_symmetric_random(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            verts = tuple(PlumbingVertex(rng.randint(-4, 4), rng.randint(0, 2)) for _ in range(n))
            edges = []
            for _ in range(rng.randint(0, 8)):
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i != j:
                    edges.append((i, j))
            assert intersection_matrix(PlumbingGraph(verts, tuple(edges))).is_symmetric()


class TestChainDeterminant:
    def test_matches_recurrence_and_cofactor(self):
        for n in range(0, 9):
            m = intersection_matrix(linear_chain(n, -2))
            d = det(m)
            assert d == chain_determinant_recurrence(n)
            assert d == det_cofactor(m.to_rows())
            assert abs(d) == n + 1

    def test_milnor_nondegenerate(self):
        for d_val in range(1, 10):
            m = intersection_matrix(milnor_fiber_2_2_d(d_val))
            assert abs(det(m)) == d_val
            if d_val >= 2:
                assert det(m) != 0

    def test_chain_rank_full(self):
        for d_val in range(1, 8):
            m = intersection_matrix(milnor_fiber_2_2_d(d_val))
            assert rank(m) == d_val - 1

