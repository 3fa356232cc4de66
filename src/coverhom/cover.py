"""Branched-cover constructors, class-lifting formulas and the verification engine.

Every cover built here carries the data the class-lifting arithmetic needs:
the lifted symplectic class is the pullback, and the lifted first Chern
class picks up (1 - d_i) times the dual of each branch preimage component.
The lift formulas read a sphere's pushforward and branch intersections, so
each generator is built once, with its lifted pairings. A grid cover is
built from its `SurfaceConfig` alone: `build_cyclic_cover` makes the base
and the smoothed branch surface from it, so the two cannot disagree.
Reports record pass/fail verdicts with numeric evidence; each verdict
compares a stored or computed value with a second computation that does
not share its route (adjunction against the lift formulas and the smoothing
count, the monodromy's Hermite form against the stored presentation).
`_report` assembles every report, with the assumptions and trace keys they
share. `catalog` (its witnesses recomputed live) and `kollar` build the two
results drawn from reports and criteria; `reportio` writes each as a dict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Sequence

from .errors import DimensionError, DomainError, echoed_value
from .homology import (
    MONODROMY_MATRIX,
    MONODROMY_RELATORS,
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
from .intlinalg import IntMatrix, RationalVector, Verdict, _as_int, hermite, same_row_lattice
from .plumbing import chain_rank, milnor_fiber_2_2_d

__all__ = [
    "BranchComponent",
    "CoverSpec",
    "CoverReport",
    "lift_omega_pairing",
    "lift_chern_pairing",
    "riemann_hurwitz_euler",
    "adjunction_euler",
    "pi_dimension_bound",
    "pullback_criterion",
    "coinvariant_relators",
    "kodaira_thurston_cover_b1",
    "build_cyclic_cover",
    "product_family_report",
    "kodaira_thurston_family_report",
    "build_tower7",
    "catalog",
    "kollar",
]


@dataclass(frozen=True)
class BranchComponent:
    """One component of the branch-locus preimage, with its covering multiplicity."""

    multiplicity: int
    euler_characteristic: int

    def __post_init__(self):
        _as_int(self.euler_characteristic)
        if _as_int(self.multiplicity) < 1:
            raise DomainError("branch multiplicity must be at least 1")


@dataclass(frozen=True)
class CoverSpec:
    """A branched covering at the bookkeeping level: base, degree, branch data.

    components lists the components of the branch preimage, so the
    preimage is connected exactly when there is one.
    """

    base: ManifoldModel
    degree: int
    branch: SmoothedSurface | None
    components: tuple[BranchComponent, ...]

    def __post_init__(self):
        if _as_int(self.degree) < 1:
            raise DomainError("cover degree must be at least 1")
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if comps and self.branch is None:
            raise DomainError("a branched cover needs branch surface data")
        for c in comps:
            if c.multiplicity > self.degree:
                raise DomainError("component multiplicity exceeds the cover degree")
        if self.degree >= 2 and comps and max(c.multiplicity for c in comps) < 2:
            raise DomainError("a nontrivial cover needs a branch component of multiplicity >= 2")
        if self.preimage_connected and not self.branch.connected:
            raise DomainError("connected preimage over a disconnected branch locus")

    @property
    def preimage_connected(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class CoverReport:
    """The computed invariants of one cover, and pass/fail verdicts.

    cover is the cover's model, which holds its Euler characteristic, b1,
    spherical classes and Kaehler flag.
    """

    family: str
    parameters: tuple[tuple[str, object], ...]
    cover: ManifoldModel
    pi_lower_bound: int
    verdicts: tuple[Verdict, ...]
    assumptions: tuple[str, ...]
    trace: tuple[tuple[str, str], ...]

    @property
    def omega_vanishes_on_pi(self) -> bool:
        return _all_zero(_sphere_rows(self.cover), _OMEGA)

    @property
    def c1_vanishes_on_pi(self) -> bool:
        return _all_zero(_sphere_rows(self.cover), _C1)

    @property
    def signature(self) -> tuple[str, str]:
        """(omega, c1) on the spherical classes, each "zero" when it vanishes on all of them, else "nonzero"."""
        return tuple("zero" if v else "nonzero" for v in (self.omega_vanishes_on_pi, self.c1_vanishes_on_pi))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------
# Lift formulas and Euler-characteristic bookkeeping


def lift_omega_pairing(spec: CoverSpec, pushforward: Sequence[int]) -> Fraction:
    """Pairing of the lifted symplectic class with a sphere whose image class is pushforward.

    The lifted class is the pullback, so the value is the base pairing with
    the pushforward; it is exactly 0 whenever the pushforward dies.
    """
    return spec.base.omega_class.dot([_as_int(x) for x in pushforward])


def lift_chern_pairing(spec: CoverSpec, pushforward: Sequence[int], branch_intersections: Sequence[int]) -> int:
    """Pairing of the lifted first Chern class with a sphere.

    Base contribution through the pushforward, plus (1 - d_i) times the
    sphere's intersection with each branch preimage component, in component order.
    """
    if len(branch_intersections) != len(spec.components):
        raise DimensionError(
            f"{len(branch_intersections)} branch intersections for {len(spec.components)} branch components"
        )
    base_part = spec.base.c1_class.dot([_as_int(x) for x in pushforward])
    if base_part.denominator != 1:
        raise DomainError("chern pairing against an integral class must be an integer")
    branch_part = sum((1 - c.multiplicity) * _as_int(x) for c, x in zip(spec.components, branch_intersections))
    return int(base_part) + branch_part


def riemann_hurwitz_euler(spec: CoverSpec) -> int:
    """chi(cover) = d * chi(base) - sum (d_i - 1) * chi(B_i)."""
    return spec.degree * spec.base.euler_characteristic - sum(
        (c.multiplicity - 1) * c.euler_characteristic for c in spec.components
    )


def adjunction_euler(base: ManifoldModel, class_vector: Sequence[int]) -> int:
    """chi of a connected symplectic surface in base, from its class alone, by adjunction.

    chi(B) = <c1(X), B> - B.B, with B.B taken in hyperbolic_pairing, the
    pairing of every base's named classes. No component or double point is counted.
    """
    return int(base.c1_class.dot(class_vector)) - hyperbolic_pairing(class_vector, class_vector)


def pi_dimension_bound(k: int, d: int) -> int:
    """Lower bound for the dimension of the spherical subspace of the cover.

    k double points give k chains of d-1 spheres each. The report checks
    that the lattice of one installed chain has full rank d - 1.
    """
    if _as_int(k) < 0:
        raise DomainError("double point count must be nonnegative")
    if _as_int(d) < 2:
        raise DomainError(f"cover degree must be at least 2, got {echoed_value(d)}")
    return k * (d - 1)


def pullback_criterion(omega_pullback: bool, target_aspherical: bool) -> list[str]:
    """Kollar's criterion: the hypotheses that fail; with none, omega vanishes on every spherical class.

    A symplectic class pulled back through a map to a target on whose
    spheres the target's form vanishes vanishes on every spherical class.
    """
    failed = []
    if not omega_pullback:
        failed.append("the symplectic class is not given as a pullback from the target")
    if not target_aspherical:
        failed.append("the target is not known to have trivial pi_2")
    return failed


def coinvariant_relators() -> tuple[tuple[int, ...], ...]:
    """The monodromy relations of the torus-bundle cover's H1, derived from M.

    Passing to coinvariants kills the image of M - I, which the columns of
    M - I span. Each nonzero column is one relator in the presentation's
    generator order: fiber x, fiber y, base a, base b.
    """
    n = MONODROMY_MATRIX.rows
    columns = (tuple(x - (i == j) for i, x in enumerate(MONODROMY_MATRIX.column(j))) for j in range(n))
    return tuple(col + (0, 0) for col in columns if any(col))


def kodaira_thurston_cover_b1() -> int:
    """First Betti number of the torus-bundle-family cover: always 3.

    Collapsing the simply connected chain regions gives a singular
    fibration over the torus with fiber a torus, independently of
    (m1, m2, d). Its first homology is the base's Z^2 plus the monodromy
    coinvariants of the fiber's, coker(M - I): b1 is 4 minus the relators'
    Hermite row count, a rank not taken by the presented b1's Bareiss route.
    """
    relators = IntMatrix.from_rows(coinvariant_relators(), cols=4)
    return 4 - hermite(relators).rows


# ---------------------------------------------------------------------------
# Cover construction

ASSUMPTION_PUSHFORWARD = (
    "pushforward and branch-intersection data are supplied by the constructors at the "
    "pairing level; chain spheres live over balls around double points, so their "
    "pushforwards vanish"
)
ASSUMPTION_SIGN = (
    "sign convention: the dual of a surface pairs with a class as their intersection "
    "number; verified quantities are consistent under this convention"
)
ASSUMPTION_UNIQUE_COVER = (
    "the degree-d cyclic cover branched with multiplicity d along the smoothed surface "
    "is unique up to diffeomorphism; this build uses it"
)
ASSUMPTION_B1_UNKNOWN = (
    "the first homology of this cover is not determined by the construction; b1 is "
    "reported as unknown"
)
ASSUMPTION_KT_PRESENTATION = (
    "cover H1 presentation obtained by collapsing the simply connected chain regions "
    "onto a singular fibration over the torus; the lifted monodromy relation kills the "
    "first generator"
)
ASSUMPTION_KAEHLER_SMOOTHING = (
    "smoothing realized holomorphically as the zero locus of a generic section of the "
    "d-th tensor power line bundle, so the lifted form is Kaehler; homological output "
    "is identical to the smooth grid case"
)
ASSUMPTION_TOWER_CHOICE = (
    "stage-2 cover chosen cyclic, sending the meridians of the two parallel tori to "
    "opposite generators of Z/d"
)
ASSUMPTION_TOWER_SIGNS = (
    "lifted-sphere intersections with the two branch components taken as +1, +1 "
    "(symplectic orientations agree); nonvanishing of the pairing is the claim under test"
)
ASSUMPTION_TOWER_SPHERE = (
    "stage-1 branch is the smoothed union of four tori meeting in four double points; "
    "the extra sphere is formed by the two lifts of a disk bounding a vanishing cycle"
)


def _installed_generator(
    spec: CoverSpec, label: str, pushforward: tuple[int, ...], branch_intersections: tuple[int, ...]
) -> SphericalGenerator:
    """A generator whose stored pairings are evaluated through the lift formulas."""
    omega = lift_omega_pairing(spec, pushforward)
    c1 = lift_chern_pairing(spec, pushforward, branch_intersections)
    return SphericalGenerator(label, omega, c1)


def _cover_model(spec: CoverSpec, **fields) -> ManifoldModel:
    """A cover's model: Euler characteristic by Riemann-Hurwitz, no named classes of its own.

    The lifted symplectic class is the pullback to the base, so the cover is
    symplectically aspherical when the pullback criterion holds for the base.
    """
    return ManifoldModel(
        euler_characteristic=riemann_hurwitz_euler(spec),
        omega_class=RationalVector(()),
        c1_class=RationalVector(()),
        pi2_trivial=False,
        symplectically_aspherical=not pullback_criterion(True, spec.base.symplectically_aspherical),
        **fields,
    )


def build_cyclic_cover(
    cfg: SurfaceConfig, base_model: Callable[[SurfaceConfig], ManifoldModel], kaehler: bool = False
) -> tuple[CoverSpec, ManifoldModel]:
    """Degree-d cyclic cover of base_model(cfg), branched with multiplicity d over the smoothed grid.

    The branch class d*(m2, m1) is divisible by d, so the cover exists.
    Installs one chain of d - 1 spheres of square -2 per double point, as
    one chain block. Every chain sphere has vanishing pushforward and zero
    branch intersections, so one template generator stands for all of
    them; its stored pairings are evaluated through the lift formulas
    rather than written down directly. The construction does not determine
    the cover's first homology.
    """
    branch = smoothed_grid(cfg)
    component = BranchComponent(multiplicity=cfg.d, euler_characteristic=branch.euler_characteristic)
    spec = CoverSpec(base=base_model(cfg), degree=cfg.d, branch=branch, components=(component,))
    template = _installed_generator(spec, "double point 1, sphere 1", (0, 0), (0,))
    cover = _cover_model(
        spec,
        h1_generators=None,
        h1_relators=(),
        spherical_generators=(),
        kaehler=kaehler,
        chain_block=ChainBlock(milnor_fiber_2_2_d(cfg.d), cfg.double_points, template),
    )
    return spec, cover


# ---------------------------------------------------------------------------
# Verification engine


def _sphere_rows(cover: ManifoldModel) -> list[tuple[SphericalGenerator, int]]:
    """Each stored generator once, with the number of spheres it stands for."""
    block = cover.chain_block
    rows = [] if block is None else [(block.template, block.spheres)]
    return rows + [(g, 1) for g in cover.spherical_generators]


_OMEGA = attrgetter("omega_pairing")
_C1 = attrgetter("c1_pairing")


def _all_zero(rows, pairing) -> bool:
    return all(pairing(g) == 0 for g, _ in rows)


def _zero_evidence(rows, pairing, unit: str) -> str:
    nonzero = [(g, n) for g, n in rows if pairing(g) != 0]
    if nonzero:
        g = nonzero[0][0]
        count = sum(n for _, n in nonzero)
        return f"nonzero {unit} pairing at {g.label!r}: {pairing(g)} ({count} nonzero total)"
    return f"all {sum(n for _, n in rows)} {unit} pairings are exactly 0"


def _chain_c1_verdict(block: ChainBlock) -> Verdict:
    """The template's lifted c1 against adjunction, <c1, S> = 2 - 2g + e, on the chain's one vertex."""
    lifted = block.template.c1_pairing
    vertex = block.chain.vertex
    by_adjunction = 2 - 2 * vertex.genus + vertex.euler_number
    # Shown as a one-element list, the form the table and JSON outputs keep.
    return Verdict(
        "c1 on chain spheres: lift formula matches adjunction",
        by_adjunction == lifted,
        f"lift formula gives {lifted} on all {block.spheres} chain spheres; "
        f"2-2g+e over the chain gives [{by_adjunction}]",
    )


def _euler_verdict(spec: CoverSpec, cover: ManifoldModel) -> Verdict:
    """chi of the smoothed branch surface by adjunction against the smoothing count."""
    branch = spec.branch
    by_class = adjunction_euler(spec.base, branch.class_vector)
    return Verdict(
        "euler characteristic: branch surface by adjunction matches smoothing count",
        by_class == branch.euler_characteristic,
        f"chi(B) by adjunction {by_class}, by smoothing count {branch.euler_characteristic}; "
        f"chi(cover) = {cover.euler_characteristic}",
    )


def _prediction_verdicts(spec: CoverSpec, cover: ManifoldModel) -> list[Verdict]:
    """The vanishing predictions whose premises hold, each against the installed pairings."""
    rows = _sphere_rows(cover)
    # The lifted symplectic class is the pullback, so only the base's flag can fail the criterion.
    omega_premise = not pullback_criterion(True, spec.base.symplectically_aspherical)
    c1_premise = spec.base.pi2_trivial and spec.preimage_connected
    predictions = (
        (omega_premise, "aspherical base: omega-vanishing prediction holds", _OMEGA, "omega"),
        (c1_premise, "trivial pi2 and connected branch preimage: c1-vanishing prediction holds", _C1, "c1"),
    )
    return [
        Verdict(name, _all_zero(rows, pairing), _zero_evidence(rows, pairing, unit))
        for premise, name, pairing, unit in predictions
        if premise
    ]


def _report(
    cover: ManifoldModel,
    *,
    family: str,
    parameters: tuple[tuple[str, object], ...],
    pi_lower_bound: int,
    verdicts: Sequence[Verdict],
    assumptions: Sequence[str],
    routes: tuple[str, str, str],
) -> CoverReport:
    """A cover's report, with the assumptions and trace every construction shares.

    assumptions are the construction's own, placed after the pushforward and
    sign conventions; routes name how the spherical bound and the omega and
    c1 findings were reached.
    """
    b1_known = cover.b1 is not None
    shared = [ASSUMPTION_PUSHFORWARD, ASSUMPTION_SIGN, *assumptions]
    if not b1_known:
        shared.append(ASSUMPTION_B1_UNKNOWN)
    if cover.kaehler:
        shared.append(ASSUMPTION_KAEHLER_SMOOTHING)
    bound_route, omega_route, c1_route = routes
    return CoverReport(
        family=family,
        parameters=parameters,
        cover=cover,
        pi_lower_bound=pi_lower_bound,
        verdicts=tuple(verdicts),
        assumptions=tuple(shared),
        trace=(
            ("invariants.euler_characteristic", "riemann_hurwitz_euler"),
            (
                "invariants.b1",
                "abelianized_b1 on the stored presentation" if b1_known else "not determined by the construction",
            ),
            ("invariants.pi_lower_bound", bound_route),
            ("pairings[].omega", "lift_omega_pairing"),
            ("pairings[].c1", "lift_chern_pairing"),
            ("findings.omega_on_spherical_classes", omega_route),
            ("findings.c1_on_spherical_classes", c1_route),
        ),
    )


def _assemble_grid_report(
    spec: CoverSpec,
    cover: ManifoldModel,
    *,
    family: str,
    parameters: tuple[tuple[str, object], ...],
    extra_verdicts: Sequence[Verdict] = (),
    extra_assumptions: Sequence[str] = (),
) -> CoverReport:
    block = cover.chain_block
    k = block.copies
    per_chain = chain_rank(block.chain)
    bound = pi_dimension_bound(k, spec.degree)
    verdicts = _prediction_verdicts(spec, cover)
    verdicts.append(
        Verdict(
            "spherical bound equals rank of installed chain lattice",
            bound == k * per_chain,
            f"bound {bound}; {k} chains of rank {per_chain} give block rank {k * per_chain}",
        )
    )
    verdicts.extend(extra_verdicts)
    verdicts.extend((_chain_c1_verdict(block), _euler_verdict(spec, cover)))
    return _report(
        cover,
        family=family,
        parameters=parameters,
        pi_lower_bound=bound,
        verdicts=verdicts,
        assumptions=(ASSUMPTION_UNIQUE_COVER, *extra_assumptions),
        routes=(
            "pi_dimension_bound: k*(d-1) for k double points; "
            "the bound verdict checks it against k times the chain's rank from its continuant",
            "installed pairings plus aspherical-base prediction",
            "installed pairings plus connected-preimage prediction",
        ),
    )


def _grid_parameters(cfg: SurfaceConfig) -> tuple[tuple[str, object], ...]:
    """m1, m2, d and the two areas, the parameters that every grid family reports."""
    return tuple(zip(("m1", "m2", "d", "area1", "area2"), (cfg.m1, cfg.m2, cfg.d, *cfg.omega_areas)))


def product_family_report(cfg: SurfaceConfig, kaehler: bool = False) -> CoverReport:
    """Cover of a product of positive-genus surfaces, branched over the grid."""
    spec, cover = build_cyclic_cover(cfg, product_base_model, kaehler=kaehler)
    parameters = (("g1", cfg.g1), ("g2", cfg.g2), *_grid_parameters(cfg), ("kaehler", kaehler))
    return _assemble_grid_report(spec, cover, family="example2", parameters=parameters)


def kodaira_thurston_family_report(cfg: SurfaceConfig) -> CoverReport:
    """Cover of the torus-bundle quotient; checks b1 = 3 and the non-Kaehler flag.

    The cover's H1 presentation keeps the base's generators and its monodromy relation.
    """
    spec, cover = build_cyclic_cover(cfg, kodaira_thurston_model)
    cover = replace(cover, h1_generators=4, h1_relators=MONODROMY_RELATORS)
    derived = coinvariant_relators()
    presented_b1 = cover.b1
    derived_b1 = kodaira_thurston_cover_b1()
    extra = (
        Verdict(
            "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type",
            presented_b1 == derived_b1 == 3,
            f"stored presentation gives b1 = {presented_b1}; fibration argument gives {derived_b1}",
        ),
        Verdict(
            "stored relators span the monodromy relation lattice",
            same_row_lattice(IntMatrix.from_rows(cover.h1_relators, cols=4), IntMatrix.from_rows(derived, cols=4)),
            f"stored relators {cover.h1_relators} vs image of M - I {derived}",
        ),
    )
    return _assemble_grid_report(
        spec,
        cover,
        family="kodaira-thurston",
        parameters=_grid_parameters(cfg),
        extra_verdicts=extra,
        extra_assumptions=(ASSUMPTION_KT_PRESENTATION,),
    )


def build_tower7(d: int) -> tuple[CoverReport, CoverReport]:
    """Two-stage tower over the 4-torus separating the two vanishing conditions.

    Stage 1: double cover branched over the smoothed union of four tori
    (four positive double points); both lifted classes vanish on all
    spherical classes. Stage 2: d-fold cover branched over two parallel
    copies of a lifted symplectic torus. The lifted sphere meets both
    copies once, so its chern pairing is 2*(1-d) != 0 while the lifted
    symplectic class still kills every spherical class.
    """
    if _as_int(d) < 2:
        raise DomainError(f"tower degree must be at least 2, got {echoed_value(d)}")
    spec1, cover1 = build_cyclic_cover(SurfaceConfig(g1=1, g2=1, m1=1, m2=1, d=2), product_base_model)

    sphere = _installed_generator(spec1, "sphere S (two lifted vanishing disks)", (0, 0), (0,))
    cover1 = replace(cover1, spherical_generators=cover1.spherical_generators + (sphere,))
    report1 = _assemble_grid_report(
        spec1,
        cover1,
        family="tower7-stage1",
        parameters=(("stage", 1), ("d", 2)),
        extra_assumptions=(ASSUMPTION_TOWER_SPHERE,),
    )

    # Stage 2: the sphere S becomes a tracked class of the new base, with
    # both pairings inherited from the stage-1 evaluation.
    base2 = replace(
        cover1,
        omega_class=RationalVector((sphere.omega_pairing,)),
        c1_class=RationalVector((sphere.c1_pairing,)),
    )
    tori = (BranchComponent(multiplicity=d, euler_characteristic=0),) * 2
    branch2 = SmoothedSurface(euler_characteristic=0, class_vector=None, connected=False)
    spec2 = CoverSpec(base=base2, degree=d, branch=branch2, components=tori)
    lifted = _installed_generator(spec2, "lifted sphere over S", (1,), (1, 1))
    c1 = lifted.c1_pairing
    cover2 = _cover_model(spec2, h1_generators=None, h1_relators=(), spherical_generators=(lifted,), kaehler=False)
    # No class is tracked for the tori, so stage 2 has no second route to
    # its Euler characteristic; the lifted pairing meets the closed form.
    expected = 2 * (1 - d)
    verdicts = _prediction_verdicts(spec2, cover2)
    verdicts.append(
        Verdict(
            "chern pairing on lifted sphere equals 2*(1-d), nonzero",
            c1 == expected and c1 != 0,
            f"pairing {c1} vs 2*(1-{d}) = {expected}",
        )
    )
    report2 = _report(
        cover2,
        family="tower7-stage2",
        parameters=(("stage", 2), ("d", d)),
        pi_lower_bound=1,
        verdicts=verdicts,
        assumptions=(ASSUMPTION_TOWER_CHOICE, ASSUMPTION_TOWER_SIGNS),
        routes=(
            "nonzero chern pairing certifies a nonzero spherical class",
            "installed pairing plus aspherical-base prediction",
            "installed pairing (witness sphere)",
        ),
    )
    return report1, report2


# ---------------------------------------------------------------------------
# Results drawn from the reports: the catalog and Kollar's criterion


def _pairings_text(signature: tuple[str, str]) -> str:
    """A live report's (omega, c1) signature in words."""
    named = [" and ".join(n for n, s in zip(("omega", "c1"), signature) if s == kind) for kind in ("zero", "nonzero")]
    texts = (f"all {named[0]} pairings exactly 0", f"some {named[1]} pairing nonzero")
    return ", ".join(text for text, name in zip(texts, named) if name)


def _tower_text(signatures: list[tuple[str, str]], pairing: int, d: int) -> str:
    """The tower's c1 and omega findings in words, from the signatures of its two live stages."""
    zero_c1 = signatures[1][1] == "zero"
    c1 = "c1 pairings zero at stage 2" if zero_c1 else f"lifted-sphere chern pairing {pairing} = 2*(1-{d})"
    nonzero = " and ".join(str(k) for k, s in enumerate(signatures, 1) if s[0] == "nonzero")
    omega = f"omega pairings nonzero at stage {nonzero}" if nonzero else "omega pairings zero at both stages"
    return f"{c1}, {omega}"


def catalog(d: int) -> tuple[list[tuple[str, ...]], tuple[Verdict, ...], tuple[str, ...]]:
    """All four combinations of the two vanishing conditions, with witnesses: entries, verdicts, assumptions.

    Each entry is (name, omega on pi, c1 on pi, witness, source). "computed"
    entries are recomputed live, from a grid report and the tower of degree
    d; "catalog" entries are classical facts.
    """
    live = product_family_report(SurfaceConfig(g1=1, g2=1, m1=1, m2=1, d=2))
    stage1, stage2 = build_tower7(d)
    pairing = stage2.cover.spherical_generators[0].c1_pairing
    grid, tower = live.signature, [stage1.signature, stage2.signature]
    entries = [
        ("grid branched cover of the 4-torus", *grid,
         f"recomputed live: spherical bound {live.pi_lower_bound}, {_pairings_text(grid)}", "computed"),
        ("K3 surface", "nonzero", "zero", "catalog fact: simply connected, so spherical classes span all of H2; "
         "c1 = 0 while the symplectic form has positive total area", "catalog"),
        ("simply connected Kaehler surface other than K3", "nonzero", "nonzero", "catalog fact: the projective plane, "
         "for instance; both classes pair nontrivially with H2, which is spanned by spherical classes", "catalog"),
        ("two-stage branched-cover tower", *tower[1], f"recomputed live: {_tower_text(tower, pairing, d)}", "computed"),
    ]
    signatures = sorted(entry[1:3] for entry in entries)
    wanted = [("nonzero", "nonzero"), ("nonzero", "zero"), ("zero", "nonzero"), ("zero", "zero")]
    tower_passed = stage1.passed and stage2.passed
    verdicts = (
        Verdict("each of the four vanishing signatures has exactly one entry", signatures == wanted,
                f"signatures {signatures}"),
        Verdict("live witness for (zero, zero) verified", live.passed,
                f"grid cover report {'passed' if live.passed else 'FAILED'}"),
        Verdict("live witness for (zero, nonzero) verified", tower_passed,
                f"tower reports {'passed' if tower_passed else 'FAILED'}; pairing {pairing}"),
    )
    return entries, verdicts, ("entries marked 'catalog' cite classical facts and are not recomputed here",)


def kollar(omega_pullback: bool, target_pi2_trivial: bool) -> tuple[str, list[str], Verdict]:
    """`pullback_criterion` on hypotheses taken as given: its conclusion, the failed hypotheses, and a verdict."""
    failed = pullback_criterion(omega_pullback, target_pi2_trivial)
    conclusion = "no conclusion" if failed else "omega vanishes on all spherical classes"
    # The hypotheses are taken as given, so the verdict restates the criterion and checks nothing.
    name = "restates the criterion: both hypotheses give the conclusion, a failed one gives none"
    evidence = f"hypotheses taken as given, not checked: {'; '.join(failed) or conclusion}"
    return conclusion, failed, Verdict(name, True, evidence)
