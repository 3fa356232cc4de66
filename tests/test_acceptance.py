"""Acceptance suite: every criterion at zero tolerance, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import random

import pytest

from coverhom.cli import build_parser
from coverhom.cover import (
    CoverSpec,
    BranchComponent,
    build_cyclic_cover,
    build_tower7,
    kodaira_thurston_family_report,
    product_family_report,
    lift_chern_pairing,
    lift_omega_pairing,
    riemann_hurwitz_euler,
)
from coverhom.homology import SmoothedSurface, SurfaceConfig, product_base_model
from coverhom.intlinalg import IntMatrix, abelianized_b1, det, rank, snf
from coverhom.plumbing import chain_rank, milnor_fiber_2_2_d
from coverhom.reportio import report_to_dict

from oracles import block_diag, chain_determinant_recurrence, chain_rows, det_cofactor, euler_by_complement

GRID = [
    (m1, m2, d)
    for m1 in range(1, 5)
    for m2 in range(1, 5)
    for d in range(2, 6)
]


def _line(number, ok, description):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def grid_reports():
    return {
        (m1, m2, d): product_family_report(SurfaceConfig(g1=1, g2=1, m1=m1, m2=m2, d=d))
        for m1, m2, d in GRID
    }


def test_criterion_1_bound(grid_reports):
    failures = []
    for (m1, m2, d), report in grid_reports.items():
        expected = m1 * m2 * d * d * (d - 1)
        k = m1 * m2 * d * d
        # A chain of n spheres has rank n exactly when its determinant is nonzero, else n - 1.
        per_chain = d - 1 if chain_determinant_recurrence(d - 1) else d - 2
        block_rank = k * per_chain  # rank is additive over the diagonal blocks
        if not (report.pi_lower_bound == expected == block_rank):
            failures.append(((m1, m2, d), report.pi_lower_bound, expected, block_rank))
    # Dense check of the block-additivity shortcut on the smaller lattices: the
    # report's block (its chain and copy count) written out as one block-diagonal matrix.
    for m1, m2, d in ((1, 1, 2), (2, 1, 2), (3, 3, 2), (1, 1, 3), (1, 2, 3), (1, 1, 4)):
        report = grid_reports[(m1, m2, d)]
        (block,) = report_to_dict(report)["spherical_lattice"]["blocks"]
        chain = chain_rows(block["chain"]["length"], block["chain"]["euler_number"])
        dense = rank(IntMatrix.from_rows(block_diag([chain] * block["copies"])))
        if dense != report.pi_lower_bound:
            failures.append(((m1, m2, d), "dense", dense, report.pi_lower_bound))
    ok = not failures
    _line(1, ok, f"pi lower bound equals m1*m2*d^2*(d-1) and the installed chain rank on {len(GRID)} cases")
    assert ok, failures


def test_criterion_2_vanishing(grid_reports):
    failures = []
    for key, report in grid_reports.items():
        template = report.cover.chain_block.template
        stored_zero = (
            template.omega_pairing == 0
            and template.c1_pairing == 0
            and all(g.omega_pairing == 0 and g.c1_pairing == 0 for g in report.cover.spherical_generators)
        )
        cross = {v.name: v.passed for v in report.verdicts}
        formula_ok = cross.get("c1 on chain spheres: lift formula matches adjunction", False)
        predictions_ok = cross.get("aspherical base: omega-vanishing prediction holds", False) and cross.get(
            "trivial pi2 and connected branch preimage: c1-vanishing prediction holds", False
        )
        if not (stored_zero and formula_ok and predictions_ok and report.passed):
            failures.append(key)
    ok = not failures
    _line(2, ok, "all omega and c1 pairings exactly 0; lifted c1 on chain spheres matches adjunction")
    assert ok, failures


def test_criterion_3_milnor_determinant():
    failures = []
    for d in range(1, 10):
        chain = milnor_fiber_2_2_d(d)
        rows = chain_rows(chain.length, chain.vertex.euler_number)
        value = det(IntMatrix.from_rows(rows, cols=chain.length))
        oracle = det_cofactor(rows)
        recurrence = chain_determinant_recurrence(chain.length, chain.vertex.euler_number)
        if not (abs(value) == d and value == oracle == recurrence and chain_rank(chain) == d - 1):
            failures.append((d, value, oracle, recurrence, chain_rank(chain)))
    ok = not failures
    _line(3, ok, "milnor chain determinant has |det| = d for d in [1, 9], vs cofactor oracle and recurrence")
    assert ok, failures


def test_criterion_4_kodaira_thurston():
    failures = []
    for m1, m2, d in GRID:
        report = kodaira_thurston_family_report(SurfaceConfig(g1=1, g2=1, m1=m1, m2=m2, d=d))
        odd_flagged = any(
            v.name == "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type" and v.passed
            for v in report.verdicts
        )
        if not (report.passed and report.cover.b1 == 3 and odd_flagged and not report.cover.kaehler):
            failures.append((m1, m2, d, report.cover.b1, report.passed))
    ok = not failures
    _line(4, ok, f"kodaira-thurston cover has b1 = 3, flagged odd (non-Kaehler), on {len(GRID)} cases")
    assert ok, failures


def test_criterion_5_tower():
    failures = []
    for d in range(2, 7):
        stage1, stage2 = build_tower7(d)
        passed = stage1.passed and stage2.passed
        pairing = stage2.cover.spherical_generators[0].c1_pairing
        spheres = stage1.cover.spherical_generators + stage2.cover.spherical_generators
        omega_zero = all(g.omega_pairing == 0 for g in spheres)
        if not (passed and pairing == 2 * (1 - d) and omega_zero):
            failures.append((d, pairing, passed))
    ok = not failures
    _line(5, ok, "tower stage-2 chern pairing equals 2*(1-d) for d in [2, 6], with all omega pairings zero")
    assert ok, failures


def test_criterion_6_catalog():
    args = build_parser().parse_args(["catalog", "-d", "2"])
    doc = args.run(args)
    entries = doc["entries"]
    signatures = {(e["omega_on_pi"], e["c1_on_pi"]) for e in entries}
    wanted = {("zero", "zero"), ("zero", "nonzero"), ("nonzero", "zero"), ("nonzero", "nonzero")}
    computed = [e for e in entries if e["source"] == "computed"]
    ok = (
        len(entries) == 4
        and signatures == wanted
        and len(computed) == 2
        and all(v["pass"] for v in doc["verdicts"])
    )
    _line(6, ok, "catalog emits exactly four entries covering all vanishing signatures, live witnesses pass")
    assert ok


EULER_VERDICT = "euler characteristic: branch surface by adjunction matches smoothing count"


def test_criterion_7_riemann_hurwitz(grid_reports):
    failures = []
    # Every grid cover: the family over both bases, and tower stage 1.
    for (m1, m2, d), report in grid_reports.items():
        euler_names = {v.name: v.passed for v in report.verdicts}
        if not euler_names.get(EULER_VERDICT):
            failures.append(("example2", m1, m2, d))
    for m1, m2, d in GRID:
        cfg = SurfaceConfig(g1=1, g2=1, m1=m1, m2=m2, d=d)
        spec, cover = build_cyclic_cover(product_base_model(cfg), cfg)
        chi_b = spec.branch.euler_characteristic
        if riemann_hurwitz_euler(spec) != euler_by_complement(d, 0, chi_b, [chi_b]):
            failures.append(("direct", m1, m2, d))
        report_kt = kodaira_thurston_family_report(cfg)
        names = {v.name: v.passed for v in report_kt.verdicts}
        if not names.get(EULER_VERDICT):
            failures.append(("kodaira-thurston", m1, m2, d))
    for d in range(2, 7):
        stage1, stage2 = build_tower7(d)
        names = {v.name: v.passed for v in stage1.verdicts}
        if not names.get(EULER_VERDICT):
            failures.append(("tower", d, stage1.family))
        # Stage 2 tracks no class for its branch tori: the complement route alone.
        if stage2.cover.euler_characteristic != euler_by_complement(d, 8, 0, [0, 0]):
            failures.append(("tower", d, stage2.family))
    minimal = grid_reports[(1, 1, 2)]
    if minimal.cover.euler_characteristic != 8:
        failures.append(("minimal-chi", minimal.cover.euler_characteristic))
    ok = not failures
    _line(7, ok, "both euler-characteristic routes agree on every constructed cover; minimal case gives 8")
    assert ok, failures


def _check_snf_invariants(m: IntMatrix) -> bool:
    res = snf(m)
    if res.u.mul(m).mul(res.v).entries != res.d.entries:
        return False
    if abs(det(res.u)) != 1 or abs(det(res.v)) != 1:
        return False
    diag = res.divisors
    if any(x < 0 for x in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def test_criterion_8_property_suites():
    failures = []

    # SNF recomposition and divisor chain on 500 random matrices up to 6x6.
    rng = random.Random(20260810)
    for i in range(500):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        mat = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
        if not _check_snf_invariants(mat):
            failures.append(("snf", i))

    # abelianized_b1 invariance under relator row operations.
    for i in range(100):
        g = rng.randint(1, 5)
        count = rng.randint(1, 4)
        relators = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(count)]
        base = abelianized_b1(g, relators)
        shuffled = list(relators)
        rng.shuffle(shuffled)
        negated = [[-x for x in r] for r in relators]
        added = [list(r) for r in relators]
        if count > 1:
            added[0] = [x + y for x, y in zip(added[0], added[1])]
        if not (abelianized_b1(g, shuffled) == abelianized_b1(g, negated) == abelianized_b1(g, added) == base):
            failures.append(("abelianized_b1", i))

    # Lift-pairing linearity on synthetic generators.
    base_model = product_base_model(SurfaceConfig(g1=2, g2=3, m1=1, m2=1, d=2, omega_areas=("1/2", "7/3")))
    branch = SmoothedSurface(0, None, False)
    for i in range(100):
        d = rng.randint(2, 6)
        comps = (BranchComponent(d, 0), BranchComponent(d, 0))
        spec = CoverSpec(base_model, d, branch, comps)
        u = (rng.randint(-5, 5), rng.randint(-5, 5))
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        bu = (rng.randint(-3, 3), rng.randint(-3, 3))
        bv = (rng.randint(-3, 3), rng.randint(-3, 3))
        usum = tuple(x + y for x, y in zip(u, v))
        bsum = tuple(x + y for x, y in zip(bu, bv))
        if lift_omega_pairing(spec, usum) != lift_omega_pairing(spec, u) + lift_omega_pairing(spec, v):
            failures.append(("omega-linearity", i))
        if lift_chern_pairing(spec, usum, bsum) != lift_chern_pairing(spec, u, bu) + lift_chern_pairing(spec, v, bv):
            failures.append(("c1-linearity", i))

    # Monotonicity of the bound in each parameter over the acceptance grid.
    def bound(m1, m2, d):
        return m1 * m2 * d * d * (d - 1)

    reports = {}
    for m1, m2, d in GRID:
        reports[(m1, m2, d)] = product_family_report(
            SurfaceConfig(g1=1, g2=1, m1=m1, m2=m2, d=d)
        ).pi_lower_bound
        if reports[(m1, m2, d)] != bound(m1, m2, d):
            failures.append(("bound-value", m1, m2, d))
    for m1, m2, d in GRID:
        if m1 > 1 and not reports[(m1, m2, d)] > reports[(m1 - 1, m2, d)]:
            failures.append(("monotone-m1", m1, m2, d))
        if m2 > 1 and not reports[(m1, m2, d)] > reports[(m1, m2 - 1, d)]:
            failures.append(("monotone-m2", m1, m2, d))
        if d > 2 and not reports[(m1, m2, d)] > reports[(m1, m2, d - 1)]:
            failures.append(("monotone-d", m1, m2, d))

    ok = not failures
    _line(8, ok, "property suites: 500-matrix snf invariants, relator row operations, lift linearity, bound monotonicity")
    assert ok, failures
