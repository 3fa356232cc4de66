"""Command-line front end: the argument parser and one function per command.

Each command function takes the parsed arguments and returns the result dict
that `--format json` prints; `reportio` renders it as JSON or as a table.
Exit codes: 0 when every verdict in the result passes, 1 on a verification
failure, 2 on usage or parameter errors.

Every run, on the command line and in `--batch`, is read against its
command's own parser, by one of two routes. A plain command line (each
option once and spelled in full, every value converting and in its choices,
nothing left over) is read straight off the command's option table, built
once from the parser's declared actions. Any other command line goes to
argparse, which reads or refuses it. argparse thus stays the one declaration
of every option, type, choice and default, and writes every refusal, usage
block and `--help` text; the plain route refuses nothing itself. The
top-level parser reads only a command line that does not start with a
command name: `--batch`, `--help`, no command, an unknown or abbreviated
one, or a leading `--`.

Only this module and `errors` load at start, so `--help`, usage errors and a
malformed `--batch` file exit before the exact-arithmetic layers are
imported. `main` imports them once every run has been parsed and checked,
and the command functions reach library functions through the layer
modules (`cover.build_tower7`), so that a replaced module attribute applies.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Sequence

from .errors import ECHOED, DomainError, VerificationError, digit_limit, digits, echoed_int

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


def cmd_example2(args: argparse.Namespace) -> dict:
    from . import cover, homology, reportio

    cfg = homology.SurfaceConfig(args.g1, args.g2, args.m1, args.m2, args.d, (args.area1, args.area2))
    return reportio.report_to_dict(cover.product_family_report(cfg, kaehler=args.kaehler))


def cmd_kodaira_thurston(args: argparse.Namespace) -> dict:
    from . import cover, homology, reportio

    cfg = homology.SurfaceConfig(1, 1, args.m1, args.m2, args.d, (args.area1, args.area2))
    return reportio.report_to_dict(cover.kodaira_thurston_family_report(cfg))


def cmd_tower7(args: argparse.Namespace) -> dict:
    from . import cover, reportio

    stages = [reportio.report_to_dict(s) for s in cover.build_tower7(args.d)]
    return {"family": "tower7", "parameters": {"d": args.d}, "stages": stages}


def _pairings_text(signature: tuple[str, str]) -> str:
    """A live report's (omega, c1) signature in words."""
    zero = " and ".join(name for name, s in zip(("omega", "c1"), signature) if s == "zero")
    nonzero = " and ".join(name for name, s in zip(("omega", "c1"), signature) if s == "nonzero")
    parts = []
    if zero:
        parts.append(f"all {zero} pairings exactly 0")
    if nonzero:
        parts.append(f"some {nonzero} pairing nonzero")
    return ", ".join(parts)


def _tower_text(signatures: list[tuple[str, str]], pairing: int, d: int) -> str:
    """The tower's c1 and omega findings in words, from the signatures of its two live stages."""
    if signatures[1][1] == "zero":
        c1 = "c1 pairings zero at stage 2"
    else:
        c1 = f"lifted-sphere chern pairing {pairing} = 2*(1-{d})"
    nonzero = " and ".join(str(k) for k, s in enumerate(signatures, 1) if s[0] == "nonzero")
    omega = f"omega pairings nonzero at stage {nonzero}" if nonzero else "omega pairings zero at both stages"
    return f"{c1}, {omega}"


def cmd_catalog(args: argparse.Namespace) -> dict:
    """All four combinations of the two vanishing conditions, with witnesses."""
    from . import cover, homology, reportio

    d = args.d
    live = cover.product_family_report(homology.SurfaceConfig(g1=1, g2=1, m1=1, m2=1, d=2))
    stage1, stage2 = cover.build_tower7(d)
    pairing = stage2.cover.spherical_generators[0].c1_pairing
    grid = live.signature
    tower = [stage1.signature, stage2.signature]
    # (name, omega on pi, c1 on pi, witness, source): "computed" entries are
    # recomputed live, "catalog" entries are classical facts.
    rows = [
        (
            "grid branched cover of the 4-torus",
            *grid,
            f"recomputed live: spherical bound {live.pi_lower_bound}, {_pairings_text(grid)}",
            "computed",
        ),
        (
            "K3 surface",
            "nonzero",
            "zero",
            "catalog fact: simply connected, so spherical classes span all of H2; "
            "c1 = 0 while the symplectic form has positive total area",
            "catalog",
        ),
        (
            "simply connected Kaehler surface other than K3",
            "nonzero",
            "nonzero",
            "catalog fact: the projective plane, for instance; both classes pair "
            "nontrivially with H2, which is spanned by spherical classes",
            "catalog",
        ),
        (
            "two-stage branched-cover tower",
            *tower[1],
            f"recomputed live: {_tower_text(tower, pairing, d)}",
            "computed",
        ),
    ]
    keys = ("name", "omega_on_pi", "c1_on_pi", "witness", "source")
    entries = [dict(zip(keys, row)) for row in rows]
    signatures = sorted((e["omega_on_pi"], e["c1_on_pi"]) for e in entries)
    wanted = [("nonzero", "nonzero"), ("nonzero", "zero"), ("zero", "nonzero"), ("zero", "zero")]
    verdicts = (
        cover.Verdict(
            "each of the four vanishing signatures has exactly one entry",
            signatures == wanted,
            f"signatures {signatures}",
        ),
        cover.Verdict(
            "live witness for (zero, zero) verified",
            live.passed,
            f"grid cover report {'passed' if live.passed else 'FAILED'}",
        ),
        cover.Verdict(
            "live witness for (zero, nonzero) verified",
            stage1.passed and stage2.passed,
            f"tower reports {'passed' if stage1.passed and stage2.passed else 'FAILED'}; pairing {pairing}",
        ),
    )
    return {
        "family": "catalog",
        "parameters": {"d": d},
        "entries": entries,
        "verdicts": reportio.verdicts_to_json(verdicts),
        "assumptions": ["entries marked 'catalog' cite classical facts and are not recomputed here"],
    }


def cmd_kollar(args: argparse.Namespace) -> dict:
    """Pullback vanishing criterion (`cover.pullback_criterion`) on hypotheses given by the flags."""
    from . import cover, reportio

    failed = cover.pullback_criterion(args.omega_pullback, args.target_pi2_trivial)
    conclusion = "no conclusion" if failed else "omega vanishes on all spherical classes"
    # The hypotheses are taken as given, so the verdict restates the criterion and checks nothing.
    verdict = cover.Verdict(
        "restates the criterion: both hypotheses give the conclusion, a failed one gives none",
        True,
        f"hypotheses taken as given, not checked: {'; '.join(failed) or conclusion}",
    )
    return {
        "family": "kollar",
        "parameters": {"omega_pullback": args.omega_pullback, "target_pi2_trivial": args.target_pi2_trivial},
        "conclusion": conclusion,
        "concluded": not failed,
        "failed_hypotheses": failed,
        "verdicts": reportio.verdicts_to_json((verdict,)),
    }


def cmd_snf(args: argparse.Namespace) -> dict:
    """Run the exact Smith decomposition on a JSON matrix file."""
    from . import cover, intlinalg, reportio

    a = reportio.matrix_from_json(_read_json(args.matrix, "matrix file"))
    reportio.check_snf_budget(a)
    # snf raises VerificationError unless u*a*v == d, u and v are unimodular
    # and d is a divisor chain, so the verdict restates the checks already
    # run instead of repeating them.
    res = intlinalg.snf(a)
    diag = res.divisors
    checks = (
        cover.Verdict(
            "restates the checks snf ran: u*a*v equals d, u and v unimodular, divisor chain",
            True,
            f"{a.rows}x{a.cols} input; det u = {res.det_u}, det v = {res.det_v}; "
            f"divisors [{', '.join(map(reportio.decimal, diag))}]",
        ),
    )
    return {
        "family": "snf",
        "parameters": {"matrix": args.matrix},
        "input": reportio.matrix_to_json(a),
        "u": reportio.matrix_to_json(res.u),
        "d": reportio.matrix_to_json(res.d),
        "v": reportio.matrix_to_json(res.v),
        "divisors": [reportio.encode_int(x) for x in diag],
        "verdicts": reportio.verdicts_to_json(checks),
    }


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _check_grid_size(args: argparse.Namespace) -> None:
    # The one size bound. A report's cost grows with the digits of its
    # parameters, not their values. Every integer a grid report prints, the
    # Euler characteristic the largest, is at most 8*d^3*(m1+g1+1)*(m2+g2+1)
    # in absolute value; tower7 and catalog print none above stage 2's Euler
    # characteristic 8*d. Its exact digit count is held against the
    # interpreter's digit limit, or its default when the limit is off.
    if args.command in ("tower7", "catalog"):
        names, largest = "d gives", 8 * args.d
    elif args.command in ("example2", "kodaira-thurston") and min(args.m1, args.m2, args.d) >= 1:
        g1, g2 = getattr(args, "g1", 1), getattr(args, "g2", 1)
        names = "g1, g2, m1, m2 and d give" if args.command == "example2" else "m1, m2 and d give"
        largest = 8 * args.d**3 * (args.m1 + abs(g1) + 1) * (args.m2 + abs(g2) + 1)
    else:
        return
    size, limit = digits(largest), digit_limit()
    if size > limit:
        raise DomainError(
            f"{args.command}: {names} report integers of up to {size} digits, "
            f"above the limit of {limit} digits for printing an integer"
        )


def _bounded_int(literal: str) -> int:
    """A JSON integer literal, refused past the digit limit as json refuses it while the limit is on."""
    if len(literal) - literal.startswith("-") > digit_limit():
        raise ValueError("integer literal above the digit limit")
    return int(literal)


def _read_json(path: str, what: str):
    """The JSON document in a file; malformed content is a usage error that names the file."""
    import json

    what = f"{what} {path if len(path) <= ECHOED else _echoed(path)}"
    # With the interpreter's digit limit off, json reads an integer literal of
    # any length; its default limit then bounds them here.
    bounded = {"parse_int": _bounded_int} if sys.get_int_max_str_digits() == 0 else {}
    try:
        with open(path) as fh:
            return json.load(fh, **bounded)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DomainError(f"{what} nests its JSON too deeply to read") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} is not text: {exc.reason}") from None
    except ValueError:
        # The other ValueError json.load raises: an integer literal past the digit limit.
        limit = digit_limit()
        raise DomainError(f"{what} holds an integer above the limit of {limit} digits for reading one") from None


class _Integer(argparse.Action):
    """Stores an int option. A refused value is echoed only while it is short.

    A longer one gets a one-line usage error that gives its length instead:
    argparse would echo it in full after the usage block, and a type function
    cannot name its option.
    """

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = int(text)
        except ValueError:
            if len(text) <= ECHOED:
                raise argparse.ArgumentError(self, f"invalid int value: {text!r}") from None
            digits = text.strip().lstrip("+-")
            if digits.isdigit():
                limit = digit_limit()
                found = f"an integer of {len(digits)} digits, above the limit of {limit} digits for reading one"
            else:
                found = f"invalid int value of {len(text)} characters"
            raise DomainError(f"argument {option_string}: {found}") from None
        setattr(namespace, self.dest, value)


def _echoed(text: str) -> str:
    """text quoted, or only its length once it is longer than ECHOED characters."""
    return repr(text) if len(text) <= ECHOED else f"<{len(text)} characters>"


def _rational(text: str):
    """The exact rational that text like 3/2 names; argparse also applies it to the default "1"."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a rational like 3/2, got {_echoed(text)}") from None


def _out_path(text: str) -> str:
    """An --out value; an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got ''")
    return text


def _format(text: str) -> str:
    """A --format value; argparse checks the choice itself unless the value is too long to echo."""
    if len(text) > ECHOED:
        raise argparse.ArgumentTypeError(f"invalid choice: {_echoed(text)} (choose from 'table', 'json')")
    return text


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
            sp.add_argument(f"--area{number}", type=_rational, default="1", help=summary)

    e2 = command("example2", cmd_example2, "grid branched cover of a product of positive-genus surfaces")
    e2.add_argument("--g1", action=_Integer, default=1, help="genus of the first factor (default 1)")
    e2.add_argument("--g2", action=_Integer, default=1, help="genus of the second factor (default 1)")
    e2.add_argument("--m1", action=_Integer, default=1, help="multiplicity of the first surface family")
    e2.add_argument("--m2", action=_Integer, default=1, help="multiplicity of the second surface family")
    e2.add_argument("-d", action=_Integer, default=2, help="cover degree (at least 2)")
    areas(e2, "horizontal", "vertical")
    e2.add_argument("--kaehler", action="store_true", help="record the holomorphic-smoothing variant")

    kt = command(
        "kodaira-thurston", cmd_kodaira_thurston, "grid branched cover of the symplectic non-Kaehler torus bundle"
    )
    kt.add_argument("--m1", action=_Integer, default=1, help="number of fiber families is m1*d")
    kt.add_argument("--m2", action=_Integer, default=1, help="number of section copies is m2*d")
    kt.add_argument("-d", action=_Integer, default=2, help="cover degree (at least 2)")
    areas(kt, "section", "fiber")

    tw = command("tower7", cmd_tower7, "two-stage tower separating the omega and c1 vanishing conditions")
    tw.add_argument("-d", action=_Integer, default=2, help="stage-2 cover degree (at least 2)")

    cat = command("catalog", cmd_catalog, "all four combinations of the two vanishing conditions")
    cat.add_argument("-d", action=_Integer, default=2, help="degree used for the live tower witness")

    ko = command("kollar", cmd_kollar, "pullback vanishing criterion")
    for flag, summary in (
        ("--omega-pullback", "the symplectic class is pulled back from the target"),
        ("--target-pi2-trivial", "the target space has trivial pi_2"),
    ):
        ko.add_argument(flag, action=argparse.BooleanOptionalAction, required=True, help=summary)

    sn = command("snf", cmd_snf, "Smith decomposition of a JSON matrix file")
    sn.add_argument("matrix", help="path to a JSON object with rows, cols, entries")

    for sp in sub.choices.values():
        sp.add_argument("--format", type=_format, choices=("table", "json"), default="table")
        summary = "write the report to this file instead of stdout"
        sp.add_argument("--out", type=_out_path, metavar="PATH", help=summary)
    return p


class _Options:
    """A command parser's declared options, read once from its actions (help left out).

    `flags` maps an option that takes no value to its dest and the value its
    action stores, and `valued` maps an option that takes one to its dest,
    conversion and choices; `positional` holds the same for the positional,
    or is None. `defaults` holds what argparse fills in for a run that gives
    nothing, with string defaults converted as argparse converts them.
    """

    def __init__(self, sp: argparse.ArgumentParser):
        actions = [action for action in sp._actions if action.default is not argparse.SUPPRESS]
        self.flags, self.valued, self.positional, defaults = {}, {}, None, {}
        for action in actions:
            convert = int if isinstance(action, _Integer) else action.type or str
            read = (action.dest, convert, action.choices)
            if not action.option_strings:
                self.positional = read
            for option in action.option_strings:
                if action.nargs == 0:
                    stored = argparse.Namespace()
                    action(sp, stored, None, option)
                    self.flags[option] = (action.dest, getattr(stored, action.dest))
                else:
                    self.valued[option] = read
            default = action.default
            defaults[action.dest] = convert(default) if isinstance(default, str) else default
        self.defaults = {**sp._defaults, **defaults}
        self.dests = set(defaults)
        self.required = {action.dest for action in actions if action.required}
        self.integers = {action.dest for action in actions if isinstance(action, _Integer)}


_options = functools.cache(_Options)


def _plain_run(sp: argparse.ArgumentParser, command: str, argv: list[str]) -> argparse.Namespace | None:
    """The run argparse would read from a plain argv, or None for any argv that is not plain.

    Plain means: each option given once, spelled in full, its value in the
    next token or after "=", no value starting with "-", every value
    converting and in its choices, and every required option and the
    positional given. Anything else, "-h" and "--" included, is left to
    argparse, which reads or refuses it and words every refusal.
    """
    table = _options(sp)
    given = {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if table.positional is None:
                return None
            dest, convert, choices = table.positional
            text = token
        else:
            option, equals, text = token.partition("=")
            if option in table.flags and not equals:
                dest, value = table.flags[option]
                if dest in given:
                    return None
                given[dest] = value
                continue
            if option not in table.valued:
                return None
            dest, convert, choices = table.valued[option]
            if not equals:
                text = next(tokens, "-")  # a missing value is refused as one starting with "-"
            if text.startswith("-"):
                return None
        if dest in given:
            return None
        try:
            value = convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not table.required <= given.keys():
        return None
    return argparse.Namespace(command=command, batch=None, **{**table.defaults, **given})


def _entry_options(sp: argparse.ArgumentParser, index: int, entry: dict) -> list[str]:
    """The command line of one batch entry after its command; keys are the command's option names."""
    table = _options(sp)
    unknown = set(entry) - {"command"} - table.dests
    if unknown:
        keys = sorted(unknown)
        shown = ", ".join(_echoed(key) for key in keys[:3]) + (", ..." if len(keys) > 3 else "")
        raise DomainError(f"batch entry {index}: unknown keys [{shown}]")
    flags = {dest for dest, _ in table.flags.values()}
    argv = []
    for key, value in entry.items():
        if key == "command":
            continue
        option = ("-" if len(key) == 1 else "--") + key.replace("_", "-")
        kinds, takes = ((bool, "a boolean") if key in flags else (int, "a JSON integer") if key in table.integers
                        else (str, "a string") if key == "matrix" else ((int, str), "a string or an integer"))
        if not isinstance(value, kinds) or isinstance(value, bool) != (key in flags):
            raise DomainError(f"batch entry {index}: {key!r} must be {takes}, got {_json_echoed(value)}")
        if key == "matrix":
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is False:
            # A flag that is off by default has no --no- form.
            if table.defaults.get(key) is not False:
                argv.append("--no-" + option.lstrip("-"))
        else:
            argv.append(f"{option}={value}")
    return argv


def _json_echoed(value) -> str:
    """A batch value for an error line: its JSON text up to ECHOED characters, else its type and length."""
    import json

    if isinstance(value, str):
        return f"the string {_echoed(value)}"
    # json.dumps meets less nesting than json.load just read; echoed_int is short.
    text = echoed_int(value) if type(value) is int else json.dumps(value)
    kind = "array" if isinstance(value, list) else "object"
    return text if len(text) <= ECHOED else f"an {kind} of length {len(value)}"


class _Refused(Exception):
    """A command parser's reason for refusing a batch entry."""


def _refuse(message: str):
    raise _Refused(message)


def _parse_run(sp: argparse.ArgumentParser, command: str, argv: list[str], error) -> argparse.Namespace:
    """One run of command, parsed by its own parser sp; arguments left over go to error, as argparse words it."""
    args = _plain_run(sp, command, argv)
    if args is not None:
        return args
    args, extras = sp.parse_known_args(argv, argparse.Namespace(command=command, batch=None))
    if extras:
        error("unrecognized arguments: " + " ".join(extras))
    return args


def _batch_runs(parser: argparse.ArgumentParser, path: str) -> list[argparse.Namespace]:
    """Parse every entry of a batch file, so that a bad entry stops the batch before any run."""
    entries = _read_json(path, "batch file")
    if not isinstance(entries, list):
        raise DomainError("batch file must hold a JSON array of run configurations")
    runs = []
    for index, entry in enumerate(entries):
        command = entry.get("command") if isinstance(entry, dict) else None
        if not isinstance(command, str) or command not in parser.commands:
            raise DomainError(f"batch entry {index} needs a 'command' out of {list(parser.commands)}")
        sp = parser.commands[command]
        argv = _entry_options(sp, index, entry)
        # argparse's reason goes into the one error line, without its usage block.
        sp.error = _refuse
        try:
            args = _parse_run(sp, command, argv, _refuse)
        except _Refused as exc:
            raise DomainError(f"batch entry {index} rejected: {command}: {exc}") from None
        finally:
            del sp.error
        runs.append(args)
    return runs


def _error_text(exc: Exception) -> str:
    """str(exc), but with an OSError's file name echoed only while short: str() quotes it in full."""
    if isinstance(exc, OSError) and isinstance(exc.filename, str) and exc.filename2 is None:
        return f"[Errno {exc.errno}] {exc.strerror}: {_echoed(exc.filename)}"
    return str(exc)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in parser.commands:
            args = _parse_run(parser.commands[argv[0]], argv[0], argv[1:], parser.error)
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code == 0 else EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        from . import reportio  # imports every library layer

        worst = EXIT_PASS
        for run in runs:
            doc = run.run(run)
            text = reportio.render_json(doc) if run.format == "json" else reportio.render_table(doc)
            if run.out is not None:
                with open(run.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            worst = max(worst, EXIT_PASS if reportio.all_pass(doc) else EXIT_VERIFY_FAIL)
        return worst
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
