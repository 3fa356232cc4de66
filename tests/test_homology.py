import time
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coverhom.cover import BranchComponent, CoverSpec, adjunction_euler, pi_dimension_bound
from coverhom.errors import DimensionError, DomainError
from coverhom.homology import (
    ChainBlock,
    ManifoldModel,
    SmoothedSurface,
    SphericalGenerator,
    SurfaceConfig,
    hyperbolic_pairing,
    kodaira_thurston_model,
    product_base_model,
    smoothed_grid,
)
from coverhom.intlinalg import RationalVector, abelianized_b1
from coverhom.plumbing import PlumbingVertex, milnor_fiber_2_2_d

from oracles import HYPERBOLIC_ROWS, gram_pairing, grid_components, listed_smoothing, pairing_square

cfg_params = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(2, 5)
)


def make_cfg(g1=1, g2=1, m1=1, m2=1, d=2, areas=(1, 1)):
    return SurfaceConfig(g1=g1, g2=g2, m1=m1, m2=m2, d=d, omega_areas=areas)


class TestSurfaceConfig:
    def test_bounds(self):
        with pytest.raises(DomainError):
            make_cfg(d=1)
        with pytest.raises(DomainError):
            make_cfg(m1=0)
        with pytest.raises(DomainError):
            make_cfg(g1=-1)
        with pytest.raises(DomainError):
            make_cfg(areas=(0, 1))

    def test_rejects_float_areas(self):
        with pytest.raises(DomainError):
            make_cfg(areas=(0.5, 1))

    def test_rejects_bool_areas(self):
        with pytest.raises(DomainError, match="rational required"):
            SurfaceConfig(1, 1, 1, 1, 2, (True, 1))

    def test_accepts_string_rationals(self):
        cfg = make_cfg(areas=("3/2", 2))
        assert cfg.omega_areas == (Fraction(3, 2), Fraction(2))


class TestGridImmersion:
    def test_minimal_torus_grid(self):
        cfg = make_cfg()
        # Two vertical and two horizontal tori, each vertical meeting each horizontal once.
        assert cfg.double_points == 4
        assert smoothed_grid(cfg).class_vector == (2, 2)

    def test_higher_genus_components(self):
        # 2 verticals of genus g2 = 3 and 2 horizontals of genus g1 = 2, meeting in 4 points.
        s = smoothed_grid(make_cfg(g1=2, g2=3))
        assert s.euler_characteristic == 2 * (2 - 6) + 2 * (2 - 4) - 2 * 4

    def test_counts(self):
        cfg = make_cfg(m1=2, m2=3, d=3)
        # 9 horizontals and 6 verticals.
        assert smoothed_grid(cfg).class_vector == (9, 6)
        assert cfg.double_points == 54

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg_params)
    def test_double_point_formula(self, params):
        g1, g2, m1, m2, d = params
        cfg = make_cfg(g1, g2, m1, m2, d)
        assert cfg.double_points == m1 * m2 * d * d
        # One unit of class per surface: m2*d horizontals and m1*d verticals.
        assert smoothed_grid(cfg).class_vector == (m2 * d, m1 * d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_hyperbolic_pairing_matches_the_gram_matrix(a, b):
    assert hyperbolic_pairing(a, b) == gram_pairing(a, b, HYPERBOLIC_ROWS) == hyperbolic_pairing(b, a)


# Two spheres, one in each named class: they meet once.
_SPHERES = [(0, (1, 0)), (0, (0, 1))]


class TestSmoothDoublePoints:
    # The general smoothing lives in the listed oracle; these hand-worked cases check it.
    def test_two_lines_in_plane(self):
        # Two spheres meeting once smooth to a sphere: chi = 4 - 2 = 2.
        assert listed_smoothing(_SPHERES) == (2, (1, 1), True, 1)

    def test_nothing_to_smooth(self):
        assert listed_smoothing([(3, (1, 0))]) == (2 - 2 * 3, (1, 0), True, 0)

    def test_disconnected_parallel_copies(self):
        assert listed_smoothing([(1, (0, 1))] * 2) == (0, (0, 2), False, 0)

    def test_distinct_classes_that_do_not_pair(self):
        assert not listed_smoothing([(1, (1, 0)), (1, (2, 0))])[2]

    def test_minimal_grid(self):
        s = smoothed_grid(make_cfg())
        # Oracle route: class (2, 2) against the hyperbolic pairing.
        assert s.class_vector == (2, 2)
        assert pairing_square(s.class_vector, HYPERBOLIC_ROWS) == 8
        assert s.euler_characteristic == -8
        assert 1 - s.euler_characteristic // 2 == 5
        assert s.connected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4), st.integers(2, 5))
    def test_counted_equals_listed(self, g1, g2, m1, m2, d):
        cfg = make_cfg(g1, g2, m1, m2, d)
        s = smoothed_grid(cfg)
        listed = listed_smoothing(grid_components(g1, g2, m1, m2, d))
        assert (s.euler_characteristic, s.class_vector, s.connected, cfg.double_points) == listed

    def test_large_grid_pairs_distinct_classes_only(self):
        # Nothing is paired per surface: 2*10^12 verticals cost what 2 do.
        start = time.perf_counter()
        s = smoothed_grid(make_cfg(g1=2, g2=3, m1=10**12, m2=1, d=2))
        assert time.perf_counter() - start < 0.1
        # 2*10^12 genus-3 verticals and 2 genus-2 horizontals meeting in 4*10^12 points.
        chi = 2 * 10**12 * (2 - 6) + 2 * (2 - 4) - 2 * 4 * 10**12
        assert s == SmoothedSurface(chi, (2, 2 * 10**12), True)

    @pytest.mark.parametrize("count", [0, -1, True])
    def test_bad_component_count_rejected(self, count):
        # A family has m*d surfaces; a multiplicity that is not a positive int is refused.
        with pytest.raises(DomainError):
            make_cfg(m1=count)

    @pytest.mark.parametrize("vector", [(1,), (1, 0, 0), ()])
    def test_component_class_has_two_coordinates(self, vector):
        with pytest.raises(DimensionError):
            adjunction_euler(product_base_model(make_cfg()), vector)

    def test_inconsistent_configuration_rejected(self):
        # Two spheres whose classes pair, but no double point smoothed:
        # chi would exceed 2 for a connected surface.
        with pytest.raises(DomainError, match="at most 2, got 4"):
            SmoothedSurface(euler_characteristic=4, class_vector=(1, 1), connected=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg_params)
    def test_chi_drop_and_genus(self, params):
        g1, g2, m1, m2, d = params
        cfg = make_cfg(g1, g2, m1, m2, d)
        s = smoothed_grid(cfg)
        chi_disjoint = m1 * d * (2 - 2 * g2) + m2 * d * (2 - 2 * g1)
        assert s.euler_characteristic == chi_disjoint - 2 * cfg.double_points
        assert s.connected
        assert s.euler_characteristic % 2 == 0 and 1 - s.euler_characteristic // 2 >= 0


class TestProductBaseModel:
    def test_four_torus(self):
        m = product_base_model(make_cfg())
        assert m.euler_characteristic == 0
        assert m.b1 == 4
        assert m.c1_class.coords == (0, 0)
        assert m.pi2_trivial and m.symplectically_aspherical
        # A product of area forms is Kaehler.
        assert m.kaehler

    def test_genus_two_times_torus(self):
        m = product_base_model(make_cfg(g1=2, g2=1))
        # chi(F1) = -2 pairs the horizontal class; product chi stays 0.
        assert m.euler_characteristic == 0
        assert m.c1_class.coords == (-2, 0)

    def test_genus_two_squared(self):
        m = product_base_model(make_cfg(g1=2, g2=2))
        assert m.euler_characteristic == 4
        assert m.b1 == 8

    def test_c1_pairing_convention(self):
        for g1, g2 in ((1, 1), (1, 2), (3, 2)):
            m = product_base_model(make_cfg(g1=g1, g2=g2))
            horizontal, vertical = (1, 0), (0, 1)
            assert m.c1_class.dot(horizontal) == 2 - 2 * g1
            assert m.c1_class.dot(vertical) == 2 - 2 * g2
            assert (m.c1_class.dot(horizontal) == 0 and m.c1_class.dot(vertical) == 0) == (
                g1 == g2 == 1
            )

    def test_genus_zero_rejected(self):
        with pytest.raises(DomainError):
            product_base_model(make_cfg(g1=0, g2=0))


class TestKodairaThurstonModel:
    def test_betti_number(self):
        m = kodaira_thurston_model(make_cfg())
        assert m.b1 == 3
        assert m.euler_characteristic == 0
        assert abelianized_b1(m.h1_generators, m.h1_relators) == 3
        assert not m.kaehler
        assert m.c1_class.coords == (0, 0)

    def test_areas_validated(self):
        # The model reads its areas from a configuration, which has validated them.
        with pytest.raises(DomainError, match="omega_areas must be two positive rationals"):
            kodaira_thurston_model(make_cfg(areas=(0, 1)))
        assert kodaira_thurston_model(make_cfg(areas=("1/2", 3))).omega_class.coords == (Fraction(1, 2), Fraction(3))


class TestModelValidation:
    def test_class_length_mismatch(self):
        with pytest.raises(DimensionError):
            ManifoldModel(
                euler_characteristic=0,
                h1_generators=0,
                h1_relators=(),
                omega_class=RationalVector((1,)),
                c1_class=RationalVector((0, 0)),
                spherical_generators=(),
                pi2_trivial=True,
                symplectically_aspherical=True,
                kaehler=False,
            )

    def test_pi2_trivial_forces_aspherical(self):
        with pytest.raises(DomainError):
            ManifoldModel(
                euler_characteristic=0,
                h1_generators=0,
                h1_relators=(),
                omega_class=RationalVector(()),
                c1_class=RationalVector(()),
                spherical_generators=(),
                pi2_trivial=True,
                symplectically_aspherical=False,
                kaehler=False,
            )

    def test_generator_pairings_validated(self):
        # The pushforward and branch intersections are checked by the lift formulas that read them.
        assert SphericalGenerator("s", "1/2", -2) == SphericalGenerator("s", Fraction(1, 2), -2)
        for omega, c1 in ((0.5, 0), (True, 0), (0, 0.5), (0, True), (0, Fraction(1))):
            with pytest.raises(DomainError):
                SphericalGenerator(label="bad", omega_pairing=omega, c1_pairing=c1)

    def test_smoothed_surface_invariant(self):
        # A connected closed orientable surface has chi = 2 - 2g: even, at most 2.
        for chi in (3, 4, -1):
            with pytest.raises(DomainError):
                SmoothedSurface(euler_characteristic=chi, class_vector=None, connected=True)
            assert not SmoothedSurface(euler_characteristic=chi, class_vector=None, connected=False).connected


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_cfg(g1=0.5),
        lambda: ChainBlock(milnor_fiber_2_2_d(2), 1.5, SphericalGenerator("s", 0, 0)),
        lambda: make_cfg(m1=2.0),
        lambda: PlumbingVertex(-2.0, 0),
        lambda: PlumbingVertex(-2, 0.5),
        lambda: BranchComponent(2.5, 0),
        lambda: BranchComponent(2, 0.5),
        lambda: SmoothedSurface(0.0, None, True),
        lambda: SmoothedSurface(0, (1.0, 0), True),
        lambda: CoverSpec(product_base_model(make_cfg()), 2.0, None, ()),
        lambda: pi_dimension_bound(1.5, 2),
        lambda: pi_dimension_bound(1, 2.0),
    ],
    ids=[
        "component-genus",
        "double-points",
        "component-count",
        "vertex-euler-number",
        "vertex-genus",
        "branch-multiplicity",
        "branch-euler",
        "smoothed-euler",
        "smoothed-class",
        "cover-degree",
        "bound-k",
        "bound-d",
    ],
)
def test_float_rejected_at_constructor(build):
    with pytest.raises(DomainError):
        build()
