"""Command-line front end: the argument parser and one function per command.

Each command function takes the parsed arguments and returns the result dict
that `--format json` prints; `reportio` renders it as JSON or as a table.
Exit codes: 0 when every verdict in the result passes, 1 on a verification
failure, 2 on usage or parameter errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence

from .cover import Verdict, build_tower7, kodaira_thurston_family_report, product_family_report
from .errors import DomainError, VerificationError
from .homology import SurfaceConfig
from .intlinalg import snf
from .reportio import (
    all_pass,
    encode_int,
    matrix_from_json,
    matrix_to_json,
    render_json,
    render_table,
    report_to_dict,
    verdicts_to_json,
)

__all__ = [
    "build_parser",
    "cmd_example2",
    "cmd_kodaira_thurston",
    "cmd_tower7",
    "cmd_catalog",
    "cmd_kollar",
    "cmd_snf",
    "main",
    "entry",
]

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

# Grid runs (example2, kodaira-thurston) larger than these are refused before
# anything is built. A run ranks one chain of d-1 spheres, at a cost cubic in
# d; with --expand it also lists every sphere of its m1*m2*d^2 chains.
MAX_DEGREE = 100
MAX_LISTED_SPHERES = 200_000


def cmd_example2(args: argparse.Namespace) -> dict:
    cfg = SurfaceConfig(args.g1, args.g2, args.m1, args.m2, args.d, (args.area1, args.area2))
    return report_to_dict(product_family_report(cfg, kaehler=args.kaehler), expand=args.expand)


def cmd_kodaira_thurston(args: argparse.Namespace) -> dict:
    cfg = SurfaceConfig(1, 1, args.m1, args.m2, args.d, (args.area1, args.area2))
    return report_to_dict(kodaira_thurston_family_report(cfg), expand=args.expand)


def cmd_tower7(args: argparse.Namespace) -> dict:
    stages = [report_to_dict(s, expand=args.expand) for s in build_tower7(args.d)]
    return {"family": "tower7", "parameters": {"d": args.d}, "stages": stages}


def _catalog_entry(name: str, omega_on_pi: str, c1_on_pi: str, witness: str, source: str) -> dict:
    # "computed" entries are recomputed live, "catalog" entries are classical facts.
    return {"name": name, "omega_on_pi": omega_on_pi, "c1_on_pi": c1_on_pi, "witness": witness, "source": source}


def cmd_catalog(args: argparse.Namespace) -> dict:
    """All four combinations of the two vanishing conditions, with witnesses."""
    d = args.d
    live = product_family_report(SurfaceConfig(g1=1, g2=1, m1=1, m2=1, d=2))
    stage1, stage2 = build_tower7(d)
    pairing = stage2.spherical_generators[0].c1_pairing
    entries = [
        _catalog_entry(
            "grid branched cover of the 4-torus",
            "zero",
            "zero",
            f"recomputed live: spherical bound {live.pi_lower_bound}, all omega and c1 pairings exactly 0",
            "computed",
        ),
        _catalog_entry(
            "K3 surface",
            "nonzero",
            "zero",
            "catalog fact: simply connected, so spherical classes span all of H2; "
            "c1 = 0 while the symplectic form has positive total area",
            "catalog",
        ),
        _catalog_entry(
            "simply connected Kaehler surface other than K3",
            "nonzero",
            "nonzero",
            "catalog fact: the projective plane, for instance; both classes pair "
            "nontrivially with H2, which is spanned by spherical classes",
            "catalog",
        ),
        _catalog_entry(
            "two-stage branched-cover tower",
            "zero",
            "nonzero",
            f"recomputed live: lifted-sphere chern pairing {pairing} = 2*(1-{d}), "
            "omega pairings zero at both stages",
            "computed",
        ),
    ]
    signatures = [(e["omega_on_pi"], e["c1_on_pi"]) for e in entries]
    wanted = {("zero", "zero"), ("zero", "nonzero"), ("nonzero", "zero"), ("nonzero", "nonzero")}
    verdicts = (
        Verdict("exactly four entries", len(entries) == 4, f"{len(entries)} entries"),
        Verdict(
            "all four vanishing signatures covered",
            set(signatures) == wanted,
            f"signatures {sorted(set(signatures))}",
        ),
        Verdict(
            "entries mutually distinct in signature",
            len(set(signatures)) == len(entries),
            f"{len(set(signatures))} distinct signatures for {len(entries)} entries",
        ),
        Verdict(
            "live witness for (zero, zero) verified",
            live.passed and live.omega_vanishes_on_pi and live.c1_vanishes_on_pi,
            f"grid cover report {'passed' if live.passed else 'FAILED'}",
        ),
        Verdict(
            "live witness for (zero, nonzero) verified",
            stage1.passed and stage2.passed and pairing == 2 * (1 - d) and pairing != 0,
            f"tower reports {'passed' if stage1.passed and stage2.passed else 'FAILED'}; pairing {pairing}",
        ),
    )
    return {
        "family": "catalog",
        "parameters": {"d": d},
        "entries": entries,
        "verdicts": verdicts_to_json(verdicts),
        "assumptions": ["entries marked 'catalog' cite classical facts and are not recomputed here"],
    }


def cmd_kollar(args: argparse.Namespace) -> dict:
    """Pullback vanishing criterion.

    When the symplectic class is pulled back through a map to a space
    without spheres, it kills every spherical class; if either hypothesis
    fails, nothing follows.
    """
    failed = []
    if not args.omega_pullback:
        failed.append("the symplectic class is not given as a pullback from the target")
    if not args.target_pi2_trivial:
        failed.append("the target is not known to have trivial pi_2")
    conclusion = "no conclusion" if failed else "omega vanishes on all spherical classes"
    return {
        "family": "kollar",
        "parameters": {"omega_pullback": args.omega_pullback, "target_pi2_trivial": args.target_pi2_trivial},
        "conclusion": conclusion,
        "concluded": not failed,
        "failed_hypotheses": failed,
        "verdicts": [{"name": "criterion evaluated", "pass": True, "evidence": "; ".join(failed) or conclusion}],
    }


def cmd_snf(args: argparse.Namespace) -> dict:
    """Run the exact Smith decomposition on a JSON matrix file."""
    with open(args.matrix) as fh:
        a = matrix_from_json(json.load(fh))
    # snf raises VerificationError unless u*a*v == d, u and v are unimodular
    # and d is a divisor chain (the last two checked by SnfResult), so these
    # verdicts report the checks already run instead of repeating them.
    res = snf(a)
    diag = res.divisors
    checks = (
        Verdict("recomposition u*a*v equals d", True, f"checked {a.rows}x{a.cols} input"),
        Verdict(
            "transforms are unimodular",
            abs(res.det_u) == abs(res.det_v) == 1,
            f"det u = {res.det_u}, det v = {res.det_v}",
        ),
        Verdict("diagonal divisor chain holds", True, f"divisors {list(diag)}"),
    )
    return {
        "family": "snf",
        "parameters": {"matrix": args.matrix},
        "input": matrix_to_json(a),
        "u": matrix_to_json(res.u),
        "d": matrix_to_json(res.d),
        "v": matrix_to_json(res.v),
        "divisors": [encode_int(x) for x in diag],
        "verdicts": verdicts_to_json(checks),
    }


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _check_grid_size(args: argparse.Namespace) -> None:
    if args.command not in ("example2", "kodaira-thurston") or min(args.m1, args.m2, args.d) < 1:
        return
    m1, m2, d = args.m1, args.m2, args.d
    run = f"{args.command} with m1={m1}, m2={m2}, d={d}"
    if d > MAX_DEGREE:
        raise DomainError(f"{run} has degree above the limit of {MAX_DEGREE}")
    spheres = m1 * m2 * d**2 * (d - 1)
    if args.expand and spheres > MAX_LISTED_SPHERES:
        raise DomainError(
            f"{run} --expand lists {spheres} spheres (m1*m2*d^2*(d-1)), above the limit of {MAX_LISTED_SPHERES}"
        )


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a rational like 3/2, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coverhom",
        description=(
            "Exact homological invariants of cyclic branched covers of symplectic "
            "4-manifolds: spherical-class bounds, lifted symplectic and Chern pairings, "
            "Betti numbers, with per-report verification verdicts."
        ),
    )
    p.add_argument("--batch", metavar="FILE", help="run a JSON array of run configurations in order")
    sub = p.add_subparsers(dest="command", metavar="command")
    # Batch entries look up each command's flag defaults here.
    p.commands = sub.choices

    def command(name, run, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        return sp

    def areas(sp, *classes):
        for number, name in enumerate(classes, 1):
            summary = f"symplectic area of the {name} class (rational)"
            sp.add_argument(f"--area{number}", type=_rational, default=Fraction(1), help=summary)

    e2 = command("example2", cmd_example2, "grid branched cover of a product of positive-genus surfaces")
    e2.add_argument("--g1", type=int, default=1, help="genus of the first factor (default 1)")
    e2.add_argument("--g2", type=int, default=1, help="genus of the second factor (default 1)")
    e2.add_argument("--m1", type=int, default=1, help="multiplicity of the first surface family")
    e2.add_argument("--m2", type=int, default=1, help="multiplicity of the second surface family")
    e2.add_argument("-d", type=int, default=2, help="cover degree (at least 2)")
    areas(e2, "horizontal", "vertical")
    e2.add_argument("--kaehler", action="store_true", help="record the holomorphic-smoothing variant")

    kt = command(
        "kodaira-thurston", cmd_kodaira_thurston, "grid branched cover of the symplectic non-Kaehler torus bundle"
    )
    kt.add_argument("--m1", type=int, default=1, help="number of fiber families is m1*d")
    kt.add_argument("--m2", type=int, default=1, help="number of section copies is m2*d")
    kt.add_argument("-d", type=int, default=2, help="cover degree (at least 2)")
    areas(kt, "section", "fiber")

    tw = command("tower7", cmd_tower7, "two-stage tower separating the omega and c1 vanishing conditions")
    tw.add_argument("-d", type=int, default=2, help="stage-2 cover degree (at least 2)")

    for sp in (e2, kt, tw):
        sp.add_argument(
            "--expand", action="store_true", help="list every sphere: one pairing row and one lattice vertex each"
        )

    cat = command("catalog", cmd_catalog, "all four combinations of the two vanishing conditions")
    cat.add_argument("-d", type=int, default=2, help="degree used for the live tower witness")

    ko = command("kollar", cmd_kollar, "pullback vanishing criterion")
    for flag, summary in (
        ("--omega-pullback", "the symplectic class is pulled back from the target"),
        ("--target-pi2-trivial", "the target space has trivial pi_2"),
    ):
        ko.add_argument(flag, action=argparse.BooleanOptionalAction, required=True, help=summary)

    sn = command("snf", cmd_snf, "Smith decomposition of a JSON matrix file")
    sn.add_argument("matrix", help="path to a JSON object with rows, cols, entries")

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("table", "json"), default="table")
        sp.add_argument("--out", metavar="PATH", help="write the report to this file instead of stdout")
    return p


def _integer_options(sp: argparse.ArgumentParser) -> set[str]:
    return {action.dest for action in sp._actions if action.type is int}


def _entry_options(sp: argparse.ArgumentParser, index: int, entry: dict) -> list[str]:
    """The command line of one batch entry after its command; keys are the command's option names."""
    argv = []
    for key, value in entry.items():
        if key == "command":
            continue
        option = ("-" if len(key) == 1 else "--") + key.replace("_", "-")
        if key == "matrix" and isinstance(value, str):
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is False:
            # A flag that is off by default has no --no- form.
            if sp.get_default(key) is not False:
                argv.append("--no-" + option.lstrip("-"))
        elif isinstance(value, str) and key in _integer_options(sp):
            raise DomainError(f"batch entry {index}: {key!r} must be a JSON integer, got the string {value!r}")
        elif isinstance(value, (int, str)):
            argv.append(f"{option}={value}")
        else:
            raise DomainError(f"batch entry {index}: {key!r} must be a string, an integer or a boolean")
    return argv


def _batch_runs(parser: argparse.ArgumentParser, path: str) -> list[argparse.Namespace]:
    """Parse every entry of a batch file, so that a bad entry stops the batch before any run."""
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise DomainError("batch file must hold a JSON array of run configurations")
    runs = []
    for index, entry in enumerate(entries):
        command = entry.get("command") if isinstance(entry, dict) else None
        if not isinstance(command, str) or command not in parser.commands:
            raise DomainError(f"batch entry {index} needs a 'command' out of {list(parser.commands)}")
        sp = parser.commands[command]
        argv = _entry_options(sp, index, entry)
        try:
            args = sp.parse_args(argv, argparse.Namespace(command=command))
        except SystemExit:
            raise DomainError(f"batch entry {index} rejected: {command} {' '.join(argv)}") from None
        unknown = set(entry) - set(vars(args))
        if unknown:
            raise DomainError(f"batch entry {index}: unknown keys {sorted(unknown)}")
        runs.append(args)
    return runs


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code == 0 else EXIT_USAGE
    try:
        if args.batch:
            runs = _batch_runs(parser, args.batch)
        elif args.command:
            runs = [args]
        else:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        for run in runs:
            _check_grid_size(run)
        worst = EXIT_PASS
        for run in runs:
            doc = run.run(run)
            text = render_json(doc) if run.format == "json" else render_table(doc)
            if run.out:
                with open(run.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            worst = max(worst, EXIT_PASS if all_pass(doc) else EXIT_VERIFY_FAIL)
        return worst
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
