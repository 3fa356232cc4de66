import argparse
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverhom.cli
import coverhom.cover
from coverhom.cover import (
    BranchComponent,
    CoverReport,
    CoverSpec,
    adjunction_euler,
    build_cyclic_cover,
    build_tower7,
    coinvariant_relators,
    kodaira_thurston_cover_b1,
    kodaira_thurston_family_report,
    lift_chern_pairing,
    lift_omega_pairing,
    pi_dimension_bound,
    product_family_report,
    pullback_criterion,
    riemann_hurwitz_euler,
    _require_divisible,
)
from coverhom.errors import DimensionError, DomainError, NoSuchCoverError
from coverhom.homology import (
    MONODROMY_RELATORS,
    SmoothedSurface,
    SphericalGenerator,
    SurfaceConfig,
    kodaira_thurston_model,
    product_base_model,
    smooth_double_points,
)
from coverhom.intlinalg import IntMatrix, rank
from coverhom.plumbing import LinearChain, PlumbingVertex, chain_rank, milnor_fiber_2_2_d
from coverhom.reportio import report_to_dict

from oracles import HYPERBOLIC_ROWS, block_diag, chain_listing, chain_rows, euler_by_complement, pairing_square


def make_cfg(g1=1, g2=1, m1=1, m2=1, d=2, areas=(1, 1)):
    return SurfaceConfig(g1=g1, g2=g2, m1=m1, m2=m2, d=d, omega_areas=areas)


def identity_cover(base):
    return CoverSpec(base=base, degree=1, branch=None, components=())


def store_relators(monkeypatch, relators):
    """Make the cover models built from now on store the given H1 relators."""
    build = build_cyclic_cover

    def wrong_relators(base, cfg, kaehler=False):
        spec, cover = build(base, cfg, kaehler)
        return spec, replace(cover, h1_relators=relators)

    monkeypatch.setattr(coverhom.cover, "build_cyclic_cover", wrong_relators)


def kt_report_with_relators(monkeypatch, relators):
    """Kodaira-Thurston report whose cover model stores the given H1 relators."""
    store_relators(monkeypatch, relators)
    return kodaira_thurston_family_report(make_cfg())


class TestCoverSpecValidation:
    def test_nontrivial_cover_needs_mult_two(self):
        base = product_base_model(make_cfg())
        branch = SmoothedSurface(0, (1, 1), True)
        comp = BranchComponent(1, 0)
        with pytest.raises(DomainError):
            CoverSpec(base, 2, branch, (comp,))

    def test_one_component_over_a_disconnected_branch(self):
        # One preimage component is a connected preimage, which a disconnected branch locus cannot have.
        base = product_base_model(make_cfg())
        branch = SmoothedSurface(0, None, False)
        with pytest.raises(DomainError, match="disconnected branch locus"):
            CoverSpec(base, 2, branch, (BranchComponent(2, 0),))
        assert not CoverSpec(base, 2, branch, (BranchComponent(2, 0),) * 2).preimage_connected


class TestLiftPairings:
    def test_identity_cover_horizontal(self):
        base = product_base_model(make_cfg(areas=(Fraction(5), Fraction(7))))
        spec = identity_cover(base)
        assert lift_omega_pairing(spec, (1, 0)) == Fraction(5)

    def test_linearity_scaling(self):
        base = product_base_model(make_cfg(areas=(1, "2/3")))
        spec = identity_cover(base)
        assert lift_omega_pairing(spec, (0, 2)) == Fraction(4, 3)

    def test_milnor_generator_zero(self):
        cfg = make_cfg()
        spec, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        g = cover.chain_block.template
        assert lift_omega_pairing(spec, g.pushforward) == 0
        assert lift_chern_pairing(spec, g.pushforward, g.branch_intersections) == 0

    def test_two_component_sphere_pairing(self):
        # Two branch components of multiplicity d, each met once, pushforward dead.
        base = product_base_model(make_cfg())
        for d in (2, 3, 5):
            branch = SmoothedSurface(0, None, False)
            comps = (BranchComponent(d, 0), BranchComponent(d, 0))
            spec = CoverSpec(base, d, branch, comps)
            assert lift_chern_pairing(spec, (0, 0), (1, 1)) == 2 * (1 - d)

    def test_unbranched_reduces_to_base_pairing(self):
        base = product_base_model(make_cfg(g1=2, g2=1))
        spec = identity_cover(base)
        assert lift_chern_pairing(spec, (1, 0), ()) == -2

    def test_multiplicity_one_component_drops_out(self):
        base = product_base_model(make_cfg(g1=2, g2=1))
        branch = SmoothedSurface(-2, (1, 1), True)
        comp = BranchComponent(1, -2)
        spec = CoverSpec(base, 1, branch, (comp,))
        assert lift_chern_pairing(spec, (1, 0), (3,)) == -2

    def test_missing_branch_intersections_rejected(self):
        cfg = make_cfg()
        spec, _ = build_cyclic_cover(product_base_model(cfg), cfg)
        for intersections in ((), (0, 0)):
            with pytest.raises(DimensionError, match=f"{len(intersections)} branch intersections for 1 branch"):
                lift_chern_pairing(spec, (0, 0), intersections)
            with pytest.raises(DimensionError):
                coverhom.cover._installed_generator(spec, "bad", (0, 0), intersections)

    @pytest.mark.parametrize("pushforward", [(), (0,), (0, 0, 0)])
    def test_wrong_pushforward_length_rejected(self, pushforward):
        cfg = make_cfg()
        spec, _ = build_cyclic_cover(product_base_model(cfg), cfg)
        with pytest.raises(DimensionError):
            lift_omega_pairing(spec, pushforward)
        with pytest.raises(DimensionError):
            lift_chern_pairing(spec, pushforward, (0,))
        with pytest.raises(DimensionError):
            coverhom.cover._installed_generator(spec, "bad", pushforward, (0,))

    @pytest.mark.parametrize("bad", [True, 0.5])
    def test_non_integer_pushforward_rejected(self, bad):
        # The lift formulas read the pushforward before the generator checks it.
        cfg = make_cfg()
        spec, _ = build_cyclic_cover(product_base_model(cfg), cfg)
        with pytest.raises(DomainError):
            coverhom.cover._installed_generator(spec, "bad", (bad, 0), (0,))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(2, 5),
    )
    def test_lift_pairings_additive(self, u, v, bu, bv, d):
        base = product_base_model(make_cfg(g1=2, g2=3, areas=("1/2", "7/3")))
        branch = SmoothedSurface(0, None, False)
        comps = (BranchComponent(d, 0), BranchComponent(d, 0))
        spec = CoverSpec(base, d, branch, comps)
        usum = tuple(x + y for x, y in zip(u, v))
        assert lift_omega_pairing(spec, usum) == lift_omega_pairing(spec, u) + lift_omega_pairing(spec, v)
        assert lift_chern_pairing(spec, usum, (bu + bv,) * 2) == (
            lift_chern_pairing(spec, u, (bu, bu)) + lift_chern_pairing(spec, v, (bv, bv))
        )


class TestRiemannHurwitz:
    def test_degree_one(self):
        base = product_base_model(make_cfg(g1=2, g2=2))
        spec = identity_cover(base)
        assert riemann_hurwitz_euler(spec) == 4

    def test_minimal_grid_cover(self):
        cfg = make_cfg()
        spec, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        assert riemann_hurwitz_euler(spec) == 8
        # Independent route: d*(chi(X) - chi(B)) + sum chi(B_i).
        assert euler_by_complement(2, 0, -8, [-8]) == 8
        assert cover.euler_characteristic == 8

    def test_unbranched_double_cover(self):
        base = product_base_model(make_cfg())
        spec = CoverSpec(base, 2, None, ())
        assert riemann_hurwitz_euler(spec) == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(2, 5))
    def test_both_routes_agree_on_family(self, g1, g2, m1, m2, d):
        cfg = make_cfg(g1, g2, m1, m2, d)
        spec, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        chi_b = spec.branch.euler_characteristic
        assert cover.euler_characteristic == euler_by_complement(
            d, cfg_chi(g1, g2), chi_b, [chi_b]
        )
        # Adjunction on the branch class: <c1, B> - B.B, with B = (m2*d, m1*d).
        assert spec.branch.class_vector == (m2 * d, m1 * d)
        c1_on_class = m2 * d * (2 - 2 * g1) + m1 * d * (2 - 2 * g2)
        square = pairing_square((m2 * d, m1 * d), HYPERBOLIC_ROWS)
        assert adjunction_euler(spec.base, spec.branch.class_vector) == c1_on_class - square == chi_b

    def test_adjunction_on_torus_bundle_base(self):
        cfg = make_cfg(m1=3, m2=2, d=4)
        spec, _ = build_cyclic_cover(kodaira_thurston_model(cfg.omega_areas), cfg)
        # Both named classes have c1 pairing 0, so chi(B) = -B.B = -2*m1*m2*d^2.
        assert adjunction_euler(spec.base, spec.branch.class_vector) == spec.branch.euler_characteristic == -192


def cfg_chi(g1, g2):
    return (2 - 2 * g1) * (2 - 2 * g2)


class TestPiDimensionBound:
    def test_injective_values(self):
        assert pi_dimension_bound(4, 2) == 4
        assert pi_dimension_bound(1, 5) == 4

    def test_degree_bound(self):
        with pytest.raises(DomainError):
            pi_dimension_bound(3, 1)

    def test_matches_explicit_block_rank(self):
        # rank additivity over diagonal blocks, checked densely.
        for k in (1, 2, 5, 6):
            for d in (2, 3, 6):
                chain = chain_rows(d - 1, -2)
                explicit = rank(IntMatrix.from_rows(block_diag([chain] * k)))
                per_chain = chain_rank(milnor_fiber_2_2_d(d))
                assert pi_dimension_bound(k, d) == explicit == k * per_chain == k * (d - 1)

    def test_wrong_chain_rank_fails_bound_verdict(self, monkeypatch):
        # The grid report ranks its chain; a wrong rank fails the bound verdict alone.
        monkeypatch.setattr(coverhom.cover, "chain_rank", lambda chain: 2)
        report = product_family_report(make_cfg(d=4))
        assert report.pi_lower_bound == 16 * 3
        failed = [v.name for v in report.verdicts if not v.passed]
        assert failed == ["spherical bound equals rank of installed chain lattice"]

    def test_wrong_chain_rank_fails_bound_verdict_without_asserts(self):
        script = (
            "import coverhom.cover as c\n"
            "from coverhom.homology import SurfaceConfig\n"
            "c.chain_rank = lambda chain: 2\n"
            "report = c.product_family_report(SurfaceConfig(1, 1, 1, 1, 4))\n"
            "print([v.name for v in report.verdicts if not v.passed])\n"
        )
        src = os.path.dirname(os.path.dirname(coverhom.cover.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
        assert proc.stdout == "['spherical bound equals rank of installed chain lattice']\n", proc.stderr


class TestBuildCyclicCover:
    def test_minimal(self):
        cfg = make_cfg()
        spec, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        block = cover.chain_block
        assert (block.copies, block.chain.length, block.spheres) == (4, 1, 4)
        assert cover.spherical_generators == ()
        assert block.template.label == "double point 1, sphere 1"
        assert block.template.omega_pairing == 0
        assert block.template.c1_pairing == 0
        assert block.template.pushforward == (0, 0)
        assert spec.preimage_connected
        assert not cover.pi2_trivial
        assert cover.b1 is None

    def test_degree_three(self):
        cfg = make_cfg(d=3)
        _, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        assert cover.chain_block.copies == 9
        assert cover.chain_block.chain == LinearChain(2, PlumbingVertex(-2, 0))
        assert cover.chain_block.spheres == 18

    def test_kodaira_thurston_base(self):
        cfg = make_cfg()
        base = kodaira_thurston_model(cfg.omega_areas)
        spec, cover = build_cyclic_cover(base, cfg)
        assert cover.chain_block.spheres == 4
        assert cover.b1 == 3

    def test_area_mismatch_rejected(self):
        cfg = make_cfg(areas=(2, 2))
        base = product_base_model(make_cfg(areas=(1, 1)))
        with pytest.raises(DomainError):
            build_cyclic_cover(base, cfg)

    def test_wrong_genus_base_rejected(self):
        base = product_base_model(make_cfg(g1=2, g2=2))
        with pytest.raises(DomainError):
            build_cyclic_cover(base, make_cfg(g1=1, g2=1))

    def test_divisibility_guard(self):
        with pytest.raises(NoSuchCoverError):
            _require_divisible((3, 2), 2)
        _require_divisible((4, 2), 2)


class TestKodairaThurstonCoverB1:
    def test_always_three(self):
        for m1, m2, d in ((1, 1, 2), (2, 3, 4), (4, 4, 5)):
            assert kodaira_thurston_cover_b1(make_cfg(m1=m1, m2=m2, d=d)) == 3

    def test_needs_torus_factors(self):
        with pytest.raises(DomainError):
            kodaira_thurston_cover_b1(make_cfg(g1=2))

    @pytest.mark.parametrize(
        "rows, b1",
        [
            ([[1, 0], [0, 1]], 4),  # trivial monodromy: the 4-torus
            ([[1, 2], [0, 1]], 3),  # torsion in the coinvariants does not count
            ([[-1, 0], [0, -1]], 2),
        ],
    )
    def test_betti_number_follows_monodromy(self, monkeypatch, rows, b1):
        monkeypatch.setattr(coverhom.cover, "MONODROMY_MATRIX", IntMatrix.from_rows(rows))
        assert kodaira_thurston_cover_b1(make_cfg()) == b1

    @pytest.mark.parametrize(
        "rows, relators",
        [
            ([[1, 1], [0, 1]], MONODROMY_RELATORS),  # the stored presentation: fiber x dies
            ([[1, 0], [0, 1]], ()),
            ([[1, 0], [1, 1]], ((0, 1, 0, 0),)),
            ([[-1, 0], [0, -1]], ((-2, 0, 0, 0), (0, -2, 0, 0))),
        ],
    )
    def test_coinvariant_relators_follow_monodromy(self, monkeypatch, rows, relators):
        monkeypatch.setattr(coverhom.cover, "MONODROMY_MATRIX", IntMatrix.from_rows(rows))
        assert coinvariant_relators() == relators

    def test_free_presentation_is_wrong(self):
        # The degenerate presentation without the monodromy relator must
        # not be emitted: it would give b1 = 4.
        from coverhom.intlinalg import abelianized_b1

        assert abelianized_b1(4, []) == 4
        assert kodaira_thurston_cover_b1(make_cfg()) == 3


class TestFamilyReports:
    def test_example2_minimal_passes(self):
        report = product_family_report(make_cfg())
        assert report.passed
        assert report.pi_lower_bound == 4
        assert report.cover.euler_characteristic == 8
        assert report.omega_vanishes_on_pi and report.c1_vanishes_on_pi
        assert report.cover.b1 is None

    def test_example2_bound_grid(self):
        for m1, m2, d in ((1, 1, 2), (2, 2, 3), (4, 4, 5), (1, 3, 4)):
            report = product_family_report(make_cfg(m1=m1, m2=m2, d=d))
            assert report.passed
            assert report.pi_lower_bound == m1 * m2 * d * d * (d - 1)

    def test_kaehler_variant_identical_numbers(self):
        plain = product_family_report(make_cfg())
        kaehler = product_family_report(make_cfg(), kaehler=True)
        assert kaehler.cover.kaehler and not plain.cover.kaehler
        assert kaehler.pi_lower_bound == plain.pi_lower_bound
        assert replace(kaehler.cover, kaehler=False) == plain.cover
        assert any("holomorphic" in a for a in kaehler.assumptions)

    def test_bound_monotone_in_each_parameter(self):
        def bound(m1, m2, d):
            return product_family_report(make_cfg(m1=m1, m2=m2, d=d)).pi_lower_bound

        assert bound(2, 1, 2) > bound(1, 1, 2)
        assert bound(1, 2, 2) > bound(1, 1, 2)
        assert bound(1, 1, 3) > bound(1, 1, 2)

    def test_kodaira_thurston_report(self):
        report = kodaira_thurston_family_report(make_cfg(m1=3, m2=2, d=5))
        assert report.passed
        assert report.cover.b1 == 3
        assert not report.cover.kaehler
        names = [v.name for v in report.verdicts]
        assert "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type" in names

    def test_mutated_relator_caught(self, monkeypatch):
        # Same b1 but the wrong lattice: must fail.
        report = kt_report_with_relators(monkeypatch, ((0, 1, 0, 0),))
        assert not report.passed
        failed = [v.name for v in report.verdicts if not v.passed]
        assert "stored relators span the monodromy relation lattice" in failed

    def test_dropped_relator_caught(self, monkeypatch):
        report = kt_report_with_relators(monkeypatch, ())
        assert not report.passed
        failed = [v.name for v in report.verdicts if not v.passed]
        assert "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type" in failed


class TestTower:
    def test_stage_two_pairing_values(self):
        for d in (2, 3, 4, 5, 6):
            stage1, stage2 = build_tower7(d)
            assert stage1.passed and stage2.passed
            (lifted,) = stage2.cover.spherical_generators
            assert lifted.c1_pairing == 2 * (1 - d) != 0
            assert all(g.omega_pairing == 0 for g in stage1.cover.spherical_generators + (lifted,))

    def test_stage_one_is_minimal_grid(self):
        stage1, _ = build_tower7(3)
        assert stage1.pi_lower_bound == 4
        assert stage1.cover.euler_characteristic == 8
        # One row for the four chain spheres, then the lifted-disks sphere.
        rows = report_to_dict(stage1)["pairings"]
        assert [r["generator"] for r in rows] == ["double point 1..4, sphere 1..1", SPHERE_S]
        assert rows[0]["spheres"] == 4
        assert all(r["c1"] == 0 and r["omega"] == "0/1" for r in rows)

    def test_stage_two_euler(self):
        for d in (2, 3, 5):
            _, stage2 = build_tower7(d)
            assert stage2.cover.euler_characteristic == 8 * d
            assert euler_by_complement(d, 8, 0, [0, 0]) == 8 * d

    def test_findings_signature(self):
        _, stage2 = build_tower7(2)
        assert stage2.omega_vanishes_on_pi
        assert not stage2.c1_vanishes_on_pi
        assert stage2.pi_lower_bound == 1

    def test_degree_one_rejected(self):
        with pytest.raises(DomainError):
            build_tower7(1)


OMEGA_PREDICTION = "aspherical base: omega-vanishing prediction holds"


def non_aspherical_base(cfg):
    """The product base with spheres on which its form need not vanish."""
    return replace(product_base_model(cfg), pi2_trivial=False, symplectically_aspherical=False)


def verdict_names(report):
    return [v.name for v in report.verdicts]


class TestPullbackCriterion:
    def test_failed_hypotheses(self):
        assert pullback_criterion(True, True) == []
        assert pullback_criterion(False, False) == [
            "the symplectic class is not given as a pullback from the target",
            "the target is not known to have trivial pi_2",
        ]

    def test_tower_flags_carried_up_from_the_four_torus(self):
        base = product_base_model(make_cfg())
        stage1, stage2 = build_tower7(3)
        assert base.pi2_trivial and base.symplectically_aspherical
        assert stage1.cover.symplectically_aspherical and stage2.cover.symplectically_aspherical
        assert OMEGA_PREDICTION in verdict_names(stage1) and OMEGA_PREDICTION in verdict_names(stage2)

    def test_non_aspherical_base_gives_no_omega_prediction(self, monkeypatch):
        monkeypatch.setattr(coverhom.cover, "product_base_model", non_aspherical_base)
        report = product_family_report(make_cfg())
        assert not report.cover.symplectically_aspherical
        assert OMEGA_PREDICTION not in verdict_names(report) and report.passed
        # Stage 1 is such a cover, so stage 2 loses the prediction too.
        _, stage2 = build_tower7(3)
        assert not stage2.cover.symplectically_aspherical
        assert OMEGA_PREDICTION not in verdict_names(stage2)

    @pytest.mark.parametrize("holds", [True, False])
    def test_patched_criterion_moves_kollar_and_the_omega_prediction(self, monkeypatch, holds):
        monkeypatch.setattr(coverhom.cover, "pullback_criterion", lambda *hypotheses: [] if holds else ["patched"])
        # Hypotheses and bases for which the real criterion gives the opposite answer.
        kollar = coverhom.cli.cmd_kollar(argparse.Namespace(omega_pullback=not holds, target_pi2_trivial=not holds))
        assert kollar["concluded"] is holds
        assert kollar["failed_hypotheses"] == ([] if holds else ["patched"])
        base = non_aspherical_base if holds else product_base_model
        monkeypatch.setattr(coverhom.cover, "product_base_model", base)
        report = product_family_report(make_cfg())
        assert report.cover.symplectically_aspherical is holds
        assert (OMEGA_PREDICTION in verdict_names(report)) is holds

    def test_signature_reads_the_two_findings(self):
        grid = product_family_report(make_cfg())
        _, stage2 = build_tower7(2)
        assert (grid.signature, stage2.signature) == (("zero", "zero"), ("zero", "nonzero"))
        for report in (grid, stage2):
            findings = report_to_dict(report)["findings"]
            assert (findings["omega_on_spherical_classes"], findings["c1_on_spherical_classes"]) == report.signature


class TestChainBlock:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(2, 5), st.booleans()
    )
    def test_listing_matches_per_sphere_reference(self, g1, g2, m1, m2, d, torus_bundle):
        if torus_bundle:
            report = kodaira_thurston_family_report(make_cfg(1, 1, m1, m2, d))
        else:
            report = product_family_report(make_cfg(g1, g2, m1, m2, d))
        doc = report_to_dict(report)
        copies = m1 * m2 * d * d
        pairings = chain_listing(copies, d - 1, "0/1", 0)
        assert doc["invariants"]["pi_lower_bound"] == len(pairings)
        # The chain once, as its length and one vertex, and one pairing row for all its spheres.
        chain = {"length": d - 1, "euler_number": -2, "genus": 0}
        assert doc["spherical_lattice"] == {"blocks": [{"chain": chain, "copies": copies}]}
        row = {"generator": f"double point 1..{copies}, sphere 1..{d - 1}", "spheres": len(pairings)}
        assert doc["pairings"] == [dict(row, omega="0/1", c1=0)]

    def test_work_per_report_does_not_grow_with_the_grid(self, monkeypatch):
        counts = Counter()

        def counting(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(SphericalGenerator, "__post_init__", counting("generator", SphericalGenerator.__post_init__))
        monkeypatch.setattr(PlumbingVertex, "__post_init__", counting("vertex", PlumbingVertex.__post_init__))
        for name in ("lift_omega_pairing", "lift_chern_pairing"):
            monkeypatch.setattr(coverhom.cover, name, counting("lift", getattr(coverhom.cover, name)))

        def work(m1, m2, d):
            counts.clear()
            report_to_dict(product_family_report(make_cfg(m1=m1, m2=m2, d=d)))
            return dict(counts)

        for d in (2, 5, 10**6):
            # One template generator, built once and given its lifted pairings,
            # one chain vertex, both lift formulas once, at build.
            assert work(1, 1, d) == work(8, 8, d) == {"generator": 1, "vertex": 1, "lift": 2}


class TestCrossChecksAreLive:
    def test_tampered_generator_fails_cross_check(self):
        cfg = make_cfg()
        _, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        block = cover.chain_block
        tampered = replace(block, template=replace(block.template, c1_pairing=1))
        from coverhom.cover import _chain_c1_verdict

        assert _chain_c1_verdict(block).passed
        verdict = _chain_c1_verdict(tampered)
        assert not verdict.passed
        # The template stands for all four spheres.
        assert verdict.evidence == "lift formula gives 1 on all 4 chain spheres; 2-2g+e over the chain gives [0]"


# ---------------------------------------------------------------------------
# One mutation per verdict: each fails its verdict and no other verdict of
# the same report (the snf verdict only restates checks that raise, so it
# has none).

SPHERE_S = "sphere S (two lifted vanishing disks)"
LIFTED = "lifted sphere over S"


def sphere(label, pushforward=None, branch=None):
    """Install the named sphere with other pushforward or branch-intersection data."""

    def mutate(monkeypatch):
        install = coverhom.cover._installed_generator

        def installed(spec, name, push, intersections):
            if name == label:
                push, intersections = pushforward or push, branch or intersections
            return install(spec, name, push, intersections)

        monkeypatch.setattr(coverhom.cover, "_installed_generator", installed)

    return mutate


def patched(name, replacement):
    return lambda monkeypatch: monkeypatch.setattr(coverhom.cover, name, replacement)


def miscounted(immersed):
    branch = smooth_double_points(immersed)
    return replace(branch, euler_characteristic=branch.euler_characteristic + 2)


def failing_grid_report(monkeypatch):
    build = coverhom.cover.product_family_report

    def failing(cfg, kaehler=False):
        report = build(cfg, kaehler)
        return replace(report, verdicts=report.verdicts + (coverhom.cover.Verdict("injected", False, ""),))

    monkeypatch.setattr(coverhom.cover, "product_family_report", failing)


def example2():
    return [(v.name, v.passed) for v in product_family_report(make_cfg(d=3)).verdicts]


def kodaira_thurston():
    return [(v.name, v.passed) for v in kodaira_thurston_family_report(make_cfg(m1=2, d=3)).verdicts]


def stage(number):
    return lambda: [(v.name, v.passed) for v in build_tower7(3)[number - 1].verdicts]


def catalog():
    return [(v["name"], v["pass"]) for v in coverhom.cli.cmd_catalog(argparse.Namespace(d=2))["verdicts"]]


MUTATIONS = [
    (sphere(SPHERE_S, pushforward=(1, 0)), stage(1), "aspherical base: omega-vanishing prediction holds"),
    (
        sphere(SPHERE_S, branch=(1,)),
        stage(1),
        "trivial pi2 and connected branch preimage: c1-vanishing prediction holds",
    ),
    (
        patched("chain_rank", lambda chain: chain_rank(chain) - 1),
        example2,
        "spherical bound equals rank of installed chain lattice",
    ),
    (
        patched("milnor_fiber_2_2_d", lambda d: LinearChain(d - 1, PlumbingVertex(-3, 0))),
        example2,
        "c1 on chain spheres: lift formula matches adjunction",
    ),
    (
        patched("smooth_double_points", miscounted),
        example2,
        "euler characteristic: branch surface by adjunction matches smoothing count",
    ),
    (
        patched("kodaira_thurston_cover_b1", lambda cfg: 4),
        kodaira_thurston,
        "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type",
    ),
    (
        # The derived b1 counts Hermite rows; a form that loses its row gives 4.
        patched("hermite", lambda m: IntMatrix(0, m.cols, ())),
        kodaira_thurston,
        "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type",
    ),
    (
        lambda monkeypatch: store_relators(monkeypatch, ((0, 1, 0, 0),)),
        kodaira_thurston,
        "stored relators span the monodromy relation lattice",
    ),
    (sphere(LIFTED, branch=(1, 0)), stage(2), "chern pairing on lifted sphere equals 2*(1-d), nonzero"),
    (
        lambda monkeypatch: monkeypatch.setattr(CoverReport, "c1_vanishes_on_pi", property(lambda r: True)),
        catalog,
        "each of the four vanishing signatures has exactly one entry",
    ),
    (failing_grid_report, catalog, "live witness for (zero, zero) verified"),
    (sphere(LIFTED, branch=(1, 0)), catalog, "live witness for (zero, nonzero) verified"),
]


@pytest.mark.parametrize("mutate, run, verdict", MUTATIONS, ids=[m[2] for m in MUTATIONS])
def test_mutation_fails_its_verdict_alone(monkeypatch, mutate, run, verdict):
    before = run()
    assert verdict in [name for name, _ in before] and all(ok for _, ok in before)
    mutate(monkeypatch)
    assert [name for name, ok in run() if not ok] == [verdict]


def test_every_report_verdict_has_a_mutation():
    printed = {name for run in (example2, kodaira_thurston, stage(1), stage(2), catalog) for name, _ in run()}
    assert printed == {m[2] for m in MUTATIONS}
