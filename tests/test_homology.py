from fractions import Fraction

import pytest

import coverhom.homology
from hypothesis import given, settings
from hypothesis import strategies as st

from coverhom.cover import BranchComponent, CoverSpec, pi_dimension_bound
from coverhom.errors import DimensionError, DomainError
from coverhom.homology import (
    HYPERBOLIC_PAIRING,
    ImmersedComponent,
    ImmersedConfig,
    ManifoldModel,
    SmoothedSurface,
    SphericalGenerator,
    SurfaceConfig,
    branch_class,
    grid_immersion,
    kodaira_thurston_model,
    product_base_model,
    smooth_double_points,
)
from coverhom.intlinalg import IntMatrix, RationalVector, abelianized_b1
from coverhom.plumbing import PlumbingVertex

from oracles import pairing_square

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


class TestSmoothDoublePoints:
    def test_two_lines_in_plane(self):
        # Two spheres meeting once smooth to a sphere: chi = 4 - 2 = 2.
        pairing = IntMatrix.from_rows([[1]])
        b = ImmersedConfig(
            components=((ImmersedComponent(0, (1,)), 2),),
            double_points=1,
            pairing=pairing,
        )
        s = smooth_double_points(b)
        assert s.euler_characteristic == 2
        assert s.genus == 0
        assert s.connected
        assert s.class_vector == (2,)

    def test_minimal_grid(self):
        s = smooth_double_points(grid_immersion(make_cfg()))
        # Oracle route: class (2, 2) against the hyperbolic pairing.
        assert s.class_vector == (2, 2)
        assert pairing_square(s.class_vector, [[0, 1], [1, 0]]) == 8
        assert s.euler_characteristic == -8
        assert s.genus == 5
        assert s.connected

    def test_nothing_to_smooth(self):
        pairing = IntMatrix.from_rows([[0]])
        b = ImmersedConfig(
            components=((ImmersedComponent(3, (1,)), 1),),
            double_points=0,
            pairing=pairing,
        )
        s = smooth_double_points(b)
        assert s.euler_characteristic == 2 - 2 * 3
        assert s.class_vector == (1,)
        assert s.connected
        assert s.genus == 3

    def test_disconnected_parallel_copies(self):
        b = ImmersedConfig(
            components=((ImmersedComponent(1, (0, 1)), 2),),
            double_points=0,
            pairing=HYPERBOLIC_PAIRING,
        )
        s = smooth_double_points(b)
        assert not s.connected
        assert s.genus is None

    def test_distinct_classes_that_do_not_pair(self):
        b = ImmersedConfig(
            components=((ImmersedComponent(1, (1, 0)), 1), (ImmersedComponent(1, (2, 0)), 1)),
            double_points=0,
            pairing=HYPERBOLIC_PAIRING,
        )
        assert not smooth_double_points(b).connected

    def test_large_grid_pairs_distinct_classes_only(self, monkeypatch):
        calls = []
        pairing_value = coverhom.homology._pairing_value

        def counted(q, a, b):
            calls.append((a, b))
            return pairing_value(q, a, b)

        monkeypatch.setattr(coverhom.homology, "_pairing_value", counted)

        def smoothed(m1):
            calls.clear()
            b = grid_immersion(make_cfg(g1=2, g2=3, m1=m1, m2=1, d=2))
            return b, smooth_double_points(b), len(calls)

        _, _, few = smoothed(1)
        b, s, many = smoothed(10**12)
        assert b.components == ((ImmersedComponent(3, (0, 1)), 2 * 10**12), (ImmersedComponent(2, (1, 0)), 2))
        assert many == few
        # 2*10^12 genus-3 verticals and 2 genus-2 horizontals meeting in 4*10^12 points.
        chi = 2 * 10**12 * (2 - 6) + 2 * (2 - 4) - 2 * 4 * 10**12
        assert s == SmoothedSurface(chi, 1 - chi // 2, (2, 2 * 10**12), True)

    def test_counted_equals_listed(self):
        torus = ImmersedComponent(1, (0, 1))
        line = ImmersedComponent(1, (1, 0))
        counted = ImmersedConfig(((torus, 3), (line, 2)), 6, HYPERBOLIC_PAIRING)
        listed = ImmersedConfig(((torus, 1),) * 3 + ((line, 1),) * 2, 6, HYPERBOLIC_PAIRING)
        assert smooth_double_points(counted) == smooth_double_points(listed)

    @pytest.mark.parametrize("count", [0, -1, True])
    def test_bad_component_count_rejected(self, count):
        with pytest.raises(DomainError):
            ImmersedConfig(((ImmersedComponent(1, (0, 1)), count),), 0, HYPERBOLIC_PAIRING)

    def test_inconsistent_configuration_rejected(self):
        # Two spheres whose classes pair, but no double point recorded:
        # chi would exceed 2 for a connected surface.
        pairing = IntMatrix.from_rows([[1]])
        b = ImmersedConfig(
            components=((ImmersedComponent(0, (1,)), 1), (ImmersedComponent(0, (1,)), 1)),
            double_points=0,
            pairing=pairing,
        )
        with pytest.raises(DomainError):
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
        assert s.genus is not None and s.genus >= 0
        assert s.genus == 1 - s.euler_characteristic // 2


class TestBranchClass:
    def test_values(self):
        assert branch_class(make_cfg()) == (2, 2)
        assert branch_class(make_cfg(m1=3, m2=1, d=2)) == (2, 6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg_params)
    def test_divisible_by_degree(self, params):
        g1, g2, m1, m2, d = params
        cls = branch_class(make_cfg(g1, g2, m1, m2, d))
        assert cls == (m2 * d, m1 * d)
        assert all(c % d == 0 for c in cls)


class TestProductBaseModel:
    def test_four_torus(self):
        m = product_base_model(make_cfg())
        assert m.euler_characteristic == 0
        assert m.b1 == 4
        assert tuple(m.c1_class) == (0, 0)
        assert m.pi2_trivial and m.symplectically_aspherical

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
                name="x",
                kind="product",
                euler_characteristic=0,
                h1_generators=0,
                h1_relators=(),
                class_basis_labels=("a", "b"),
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
                name="x",
                kind="product",
                euler_characteristic=0,
                h1_generators=0,
                h1_relators=(),
                class_basis_labels=(),
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
        with pytest.raises(DomainError):
            SmoothedSurface(
                euler_characteristic=3,
                genus=0,
                class_vector=None,
                connected=True,
            )


_TORUS = ImmersedComponent(1, (0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ImmersedComponent(0.5, (1, 0)),
        lambda: ImmersedConfig(((_TORUS, 1),), 1.5, HYPERBOLIC_PAIRING),
        lambda: ImmersedConfig(((_TORUS, 2.0),), 0, HYPERBOLIC_PAIRING),
        lambda: PlumbingVertex(-2.0, 0),
        lambda: PlumbingVertex(-2, 0.5),
        lambda: BranchComponent("x", 2.5, 0),
        lambda: BranchComponent("x", 2, 0.5),
        lambda: SmoothedSurface(0.0, 1.0, None, True),
        lambda: SmoothedSurface(0, 1.0, None, True),
        lambda: CoverSpec(product_base_model(make_cfg()), 2.0, None, (), False),
        lambda: pi_dimension_bound(1.5, 2, 1),
        lambda: pi_dimension_bound(1, 2.0, 1),
        lambda: pi_dimension_bound(1, 2, 1.0),
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
        "smoothed-genus",
        "cover-degree",
        "bound-k",
        "bound-d",
        "bound-chain-rank",
    ],
)
def test_float_rejected_at_constructor(build):
    with pytest.raises(DomainError):
        build()
