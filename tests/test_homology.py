from fractions import Fraction

import pytest

import coverhom.homology
from hypothesis import given, settings
from hypothesis import strategies as st

from coverhom.cover import BranchComponent, CoverSpec, pi_dimension_bound
from coverhom.errors import DimensionError, DomainError
from coverhom.homology import (
    ImmersedComponent,
    ImmersedConfig,
    ManifoldModel,
    SmoothedSurface,
    SphericalGenerator,
    SurfaceConfig,
    grid_immersion,
    hyperbolic_pairing,
    kodaira_thurston_model,
    product_base_model,
    smooth_double_points,
)
from coverhom.intlinalg import RationalVector, abelianized_b1
from coverhom.plumbing import PlumbingVertex

from oracles import HYPERBOLIC_ROWS, gram_pairing, pairing_square

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
        b = grid_immersion(make_cfg())
        assert sum(n for _, n in b.components) == 4
        assert b.double_points == 4
        assert [(c.genus, n) for c, n in b.components] == [(1, 2), (1, 2)]

    def test_higher_genus_components(self):
        b = grid_immersion(make_cfg(g1=2, g2=3))
        # m1*d copies of the vertical factor (genus g2), then m2*d of genus g1.
        assert [(c.genus, n) for c, n in b.components] == [(3, 2), (2, 2)]
        assert b.double_points == 4

    def test_counts(self):
        b = grid_immersion(make_cfg(m1=2, m2=3, d=3))
        assert [(c.class_vector, n) for c, n in b.components] == [((0, 1), 6), ((1, 0), 9)]
        assert b.double_points == 54

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg_params)
    def test_double_point_formula(self, params):
        g1, g2, m1, m2, d = params
        b = grid_immersion(make_cfg(g1, g2, m1, m2, d))
        assert b.double_points == m1 * m2 * d * d
        assert sum(n for _, n in b.components) == m1 * d + m2 * d


# Two spheres, one in each named class: they meet once.
_SPHERES = ((ImmersedComponent(0, (1, 0)), 1), (ImmersedComponent(0, (0, 1)), 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_hyperbolic_pairing_matches_the_gram_matrix(a, b):
    assert hyperbolic_pairing(a, b) == gram_pairing(a, b, HYPERBOLIC_ROWS) == hyperbolic_pairing(b, a)


class TestSmoothDoublePoints:
    def test_two_lines_in_plane(self):
        # Two spheres meeting once smooth to a sphere: chi = 4 - 2 = 2.
        s = smooth_double_points(ImmersedConfig(components=_SPHERES, double_points=1))
        assert s == SmoothedSurface(euler_characteristic=2, class_vector=(1, 1), connected=True)
        assert 1 - s.euler_characteristic // 2 == 0

    def test_minimal_grid(self):
        s = smooth_double_points(grid_immersion(make_cfg()))
        # Oracle route: class (2, 2) against the hyperbolic pairing.
        assert s.class_vector == (2, 2)
        assert pairing_square(s.class_vector, HYPERBOLIC_ROWS) == 8
        assert s.euler_characteristic == -8
        assert 1 - s.euler_characteristic // 2 == 5
        assert s.connected

    def test_nothing_to_smooth(self):
        b = ImmersedConfig(components=((ImmersedComponent(3, (1, 0)), 1),), double_points=0)
        s = smooth_double_points(b)
        assert s.euler_characteristic == 2 - 2 * 3
        assert s.class_vector == (1, 0)
        assert s.connected

    def test_disconnected_parallel_copies(self):
        b = ImmersedConfig(components=((ImmersedComponent(1, (0, 1)), 2),), double_points=0)
        s = smooth_double_points(b)
        assert not s.connected
        assert s.class_vector == (0, 2)

    def test_distinct_classes_that_do_not_pair(self):
        b = ImmersedConfig(
            components=((ImmersedComponent(1, (1, 0)), 1), (ImmersedComponent(1, (2, 0)), 1)),
            double_points=0,
        )
        assert not smooth_double_points(b).connected

    @pytest.mark.parametrize("vector", [(1,), (1, 0, 0), ()])
    def test_component_class_has_two_coordinates(self, vector):
        with pytest.raises(DimensionError):
            ImmersedComponent(1, vector)

    def test_large_grid_pairs_distinct_classes_only(self, monkeypatch):
        calls = []
        pairing = coverhom.homology.hyperbolic_pairing

        def counted(a, b):
            calls.append((a, b))
            return pairing(a, b)

        monkeypatch.setattr(coverhom.homology, "hyperbolic_pairing", counted)

        def smoothed(m1):
            calls.clear()
            b = grid_immersion(make_cfg(g1=2, g2=3, m1=m1, m2=1, d=2))
            return b, smooth_double_points(b), len(calls)

        _, _, few = smoothed(1)
        b, s, many = smoothed(10**12)
        assert b.components == ((ImmersedComponent(3, (0, 1)), 2 * 10**12), (ImmersedComponent(2, (1, 0)), 2))
        assert 0 < many == few
        # 2*10^12 genus-3 verticals and 2 genus-2 horizontals meeting in 4*10^12 points.
        chi = 2 * 10**12 * (2 - 6) + 2 * (2 - 4) - 2 * 4 * 10**12
        assert s == SmoothedSurface(chi, (2, 2 * 10**12), True)

    def test_counted_equals_listed(self):
        torus = ImmersedComponent(1, (0, 1))
        line = ImmersedComponent(1, (1, 0))
        counted = ImmersedConfig(((torus, 3), (line, 2)), 6)
        listed = ImmersedConfig(((torus, 1),) * 3 + ((line, 1),) * 2, 6)
        assert smooth_double_points(counted) == smooth_double_points(listed)

    @pytest.mark.parametrize("count", [0, -1, True])
    def test_bad_component_count_rejected(self, count):
        with pytest.raises(DomainError):
            ImmersedConfig(((ImmersedComponent(1, (0, 1)), count),), 0)

    def test_inconsistent_configuration_rejected(self):
        # Two spheres whose classes pair, but no double point recorded:
        # chi would exceed 2 for a connected surface.
        b = ImmersedConfig(components=_SPHERES, double_points=0)
        with pytest.raises(DomainError, match="at most 2, got 4"):
            smooth_double_points(b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg_params)
    def test_chi_drop_and_genus(self, params):
        g1, g2, m1, m2, d = params
        b = grid_immersion(make_cfg(g1, g2, m1, m2, d))
        s = smooth_double_points(b)
        chi_disjoint = m1 * d * (2 - 2 * g2) + m2 * d * (2 - 2 * g1)
        assert s.euler_characteristic == chi_disjoint - 2 * b.double_points
        assert s.connected
        assert s.euler_characteristic % 2 == 0 and 1 - s.euler_characteristic // 2 >= 0


class TestProductBaseModel:
    def test_four_torus(self):
        m = product_base_model(make_cfg())
        assert m.euler_characteristic == 0
        assert m.b1 == 4
        assert tuple(m.c1_class) == (0, 0)
        assert m.pi2_trivial and m.symplectically_aspherical
        # A product of area forms is Kaehler.
        assert m.kaehler

    def test_genus_two_times_torus(self):
        m = product_base_model(make_cfg(g1=2, g2=1))
        # chi(F1) = -2 pairs the horizontal class; product chi stays 0.
        assert m.euler_characteristic == 0
        assert tuple(m.c1_class) == (-2, 0)

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
        m = kodaira_thurston_model()
        assert m.b1 == 3
        assert m.euler_characteristic == 0
        assert abelianized_b1(m.h1_generators, m.h1_relators) == 3
        assert not m.kaehler
        assert tuple(m.c1_class) == (0, 0)

    def test_areas_validated(self):
        with pytest.raises(DomainError):
            kodaira_thurston_model((Fraction(0), Fraction(1)))


class TestModelValidation:
    def test_class_length_mismatch(self):
        with pytest.raises(DimensionError):
            ManifoldModel(
                kind="product",
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
                kind="product",
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

    def test_generator_pushforward_entries_validated(self):
        for bad in ((1, 0.5), (True, 0)):
            with pytest.raises(DomainError):
                SphericalGenerator(
                    label="bad",
                    omega_pairing=Fraction(0),
                    c1_pairing=0,
                    branch_intersections=(),
                    pushforward=bad,
                )

    def test_smoothed_surface_invariant(self):
        # A connected closed orientable surface has chi = 2 - 2g: even, at most 2.
        for chi in (3, 4, -1):
            with pytest.raises(DomainError):
                SmoothedSurface(euler_characteristic=chi, class_vector=None, connected=True)
            assert not SmoothedSurface(euler_characteristic=chi, class_vector=None, connected=False).connected


_TORUS = ImmersedComponent(1, (0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ImmersedComponent(0.5, (1, 0)),
        lambda: ImmersedConfig(((_TORUS, 1),), 1.5),
        lambda: ImmersedConfig(((_TORUS, 2.0),), 0),
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
