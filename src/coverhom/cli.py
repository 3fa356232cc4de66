"""Command-line front end: the parsers, batch reading, dispatch, the size bound and the error boundary.

Each command function hands its parsed arguments to the layer it reports on,
and that layer's answer to `reportio`, which builds the result dict and
renders it as JSON or as a table. Exit codes: 0 when every verdict in the
result passes, 1 on a verification failure, 2 on usage or parameter errors.

Every run, on the command line and in `--batch`, is read against its
command's own parser. A plain command line (each option once and spelled in
full, every value converting and in its choices, nothing left over) is read
by a walk over the parser's own actions, and a batch entry's keys become
options through the same actions; argparse reads or refuses any other line,
and stays the one declaration of every option and the words of every
refusal, usage block and `--help` text. The top-level parser reads only a
command line that does not start with a command name. Every refusal goes
through `_Parser.error`, which echoes long tokens as `errors` does; `main`
prints it as argparse would.

Only this module and `errors` load at start: `main` imports the library
layers once every run has been parsed and checked, so `--help`, usage errors
and a malformed `--batch` file exit without them. The command functions
reach the layers through their modules (`cover.catalog`), so that a
replaced module attribute applies.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections.abc import Sequence

from .errors import DomainError, VerificationError, admit, digit_limit, digits, echoed, echoed_value, rational

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

    return reportio.tower_to_dict(args.d, cover.build_tower7(args.d))


def cmd_catalog(args: argparse.Namespace) -> dict:
    from . import cover, reportio

    return reportio.catalog_to_dict(args.d, cover.catalog(args.d))


def cmd_kollar(args: argparse.Namespace) -> dict:
    from . import cover, reportio

    hypotheses = (args.omega_pullback, args.target_pi2_trivial)
    return reportio.kollar_to_dict(hypotheses, cover.kollar(*hypotheses))


def cmd_snf(args: argparse.Namespace) -> dict:
    from . import reportio

    return reportio.snf_report(args.matrix, _read_json(args.matrix, "matrix file"))


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _check_grid_size(args: argparse.Namespace) -> None:
    # A report's cost grows with the digits of its parameters, not their
    # values. Every integer a grid report prints, the Euler characteristic the
    # largest, is at most 8*d^3*(m1+g1+1)*(m2+g2+1) in absolute value; tower7
    # and catalog print none above stage 2's Euler characteristic 8*d.
    if args.command in ("tower7", "catalog"):
        names, largest = "d gives", 8 * args.d
    elif args.command in ("example2", "kodaira-thurston") and min(args.m1, args.m2, args.d) >= 1:
        g1, g2 = getattr(args, "g1", 1), getattr(args, "g2", 1)
        names = "g1, g2, m1, m2 and d give" if args.command == "example2" else "m1, m2 and d give"
        largest = 8 * args.d**3 * (args.m1 + abs(g1) + 1) * (args.m2 + abs(g2) + 1)
    else:
        return
    admit(f"{args.command}: {names} report integers of up to", digits(largest), digit_limit(), "digits")


def _read_json(path: str, what: str):
    """The JSON document in a file; malformed content is a usage error that names the file."""
    import json

    what = f"{what} {echoed(path)}"

    def bounded_int(literal: str) -> int:
        admit(f"{what} holds an integer literal of", len(literal) - literal.startswith("-"), digit_limit(), "digits")
        return int(literal)

    # With the interpreter's digit limit off, json reads an integer literal of
    # any length, so bounded_int reads each one; with it on, json's own parser
    # refuses one past the limit, and bounded_int sizes it on a second reading.
    bounded = {"parse_int": bounded_int} if sys.get_int_max_str_digits() == 0 else {}
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text, **bounded)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DomainError(f"{what} nests its JSON too deeply to read") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} is not text: {exc.reason}") from None
    except ValueError:
        # An integer literal past the digit limit: read again, bounded_int refuses it with its size.
        return json.loads(text, parse_int=bounded_int)


def _rational(text: str):
    """The rational a text like 3/2 names, by `errors.rational`; argparse also applies it to the default "1"."""
    try:
        return rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _out_path(text: str) -> str:
    """An --out value; an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got ''")
    return text


# A refusal's message is cut to this many characters, once each long token in
# it is shown by its length.
REFUSAL_CHARS = 300

# A token of a refusal message: a value as argparse quotes it, or a run of
# non-space characters; and an escape, one character of a quoted value.
# re compiles them on the first refusal, not at start.
_TOKEN = r"""(['"])((?:(?!\1)[^\\]|\\.)*)\1|\S+"""
_ESCAPE = r"\\(?:x..|u.{4}|U.{8}|.)"


def _shown(token: re.Match) -> str:
    """A token of a refusal message as argparse wrote it, or `<N characters>` where `echoed` gives that."""
    shown = echoed(re.sub(_ESCAPE, "_", token[2]) if token[1] else token[0])  # an escape is one character
    return shown if shown.startswith("<") else token[0]


class _Refusal(Exception):
    """A parser's refusal of a command line: the parser, and argparse's message within REFUSAL_CHARS."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        message = re.sub(_TOKEN, _shown, message)
        super().__init__(message if len(message) <= REFUSAL_CHARS else message[: REFUSAL_CHARS - 4] + " ...")
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """The top-level parser and, through add_subparsers, each command's: every refusal raises _Refusal."""

    def error(self, message):
        raise _Refusal(self, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
        summary = "write the report to this file instead of stdout"
        sp.add_argument("--out", type=_out_path, metavar="PATH", help=summary)
    return p


@functools.cache
def _defaults(sp: argparse.ArgumentParser) -> dict:
    """What argparse fills in for a run of sp that gives nothing, string defaults converted as argparse does."""
    defaults = {}
    for action in sp._actions:
        if action.default is not argparse.SUPPRESS:
            default = action.default
            defaults[action.dest] = (action.type or str)(default) if isinstance(default, str) else default
    return {**sp._defaults, **defaults}


def _plain_run(sp: argparse.ArgumentParser, command: str, argv: list[str]) -> argparse.Namespace | None:
    """The run argparse would read from a plain argv, or None for any argv that is not plain.

    Plain means: each option given once, spelled in full, its value in the
    next token or after "=", no value starting with "-", every value
    converting and in its choices, and every required option and the
    positional given. Anything else, "-h" and "--" included, is left to
    argparse, which reads or refuses it and words every refusal.
    """
    run = argparse.Namespace(command=command, batch=None, **_defaults(sp))
    given = set()
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            option, equals, text = token.partition("=")
            action = sp._option_string_actions.get(option)
        else:
            option, equals, text = None, "", token
            action = next((action for action in sp._actions if not action.option_strings), None)
        # An unknown option, -h or --help, a second positional, or a repeat.
        if action is None or action.default is argparse.SUPPRESS or action.dest in given:
            return None
        given.add(action.dest)
        if action.nargs == 0:
            if equals:
                return None
            action(sp, run, None, option)  # stores the flag's value
            continue
        if option and not equals:
            text = next(tokens, "-")  # a missing value is refused as one starting with "-"
        if text.startswith("-"):
            return None
        try:
            value = (action.type or str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(run, action.dest, value)
    if any(action.required and action.dest not in given for action in sp._actions):
        return None
    return run


def _entry_options(sp: argparse.ArgumentParser, index: int, entry: dict) -> list[str]:
    """The command line of one batch entry after its command; keys are the dests of the command's actions."""
    actions = {action.dest: action for action in sp._actions if action.default is not argparse.SUPPRESS}
    unknown = set(entry) - {"command"} - actions.keys()
    if unknown:
        keys = sorted(unknown)
        shown = ", ".join(echoed(key) for key in keys[:3]) + (", ..." if len(keys) > 3 else "")
        raise DomainError(f"batch entry {index}: unknown keys [{shown}]")
    argv, positional = [], []
    for key, value in entry.items():
        if key == "command":
            continue
        action = actions[key]
        flag = action.nargs == 0
        kinds, takes = ((bool, "a boolean") if flag else (int, "a JSON integer") if action.type is int
                        else (str, "a string") if not action.option_strings else ((int, str), "a string or an integer"))
        if not isinstance(value, kinds) or isinstance(value, bool) != flag:
            raise DomainError(f"batch entry {index}: {key!r} must be {takes}, got {echoed_value(value)}")
        if not action.option_strings:
            # Last, and after "--" when it would read as an option.
            positional = ["--", value] if value.startswith("-") else [value]
        elif flag:
            # An action's second option string is its --no- form; a flag off by default has none.
            argv += action.option_strings[:1] if value else action.option_strings[1:]
        else:
            argv.append(f"{action.option_strings[0]}={value}")
    return argv + positional


def _parse_run(parser: argparse.ArgumentParser, command: str, argv: list[str]) -> argparse.Namespace:
    """One run of command, read by its own parser; arguments left over are refused as the top-level parser words it."""
    sp = parser.commands[command]
    args = _plain_run(sp, command, argv)
    if args is not None:
        return args
    args, extras = sp.parse_known_args(argv, argparse.Namespace(command=command, batch=None))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def _batch_runs(parser: argparse.ArgumentParser, path: str) -> list[argparse.Namespace]:
    """Parse every entry of a batch file, so that an entry the parsers refuse stops the batch before any entry runs.

    `main`'s size bound also holds before any entry runs. A refusal raised
    while an entry runs (a degree below 2, a missing matrix file) stops the
    batch at that entry, after the entries before it have written.
    """
    entries = _read_json(path, "batch file")
    if not isinstance(entries, list):
        raise DomainError("batch file must hold a JSON array of run configurations")
    runs = []
    for index, entry in enumerate(entries):
        command = entry.get("command") if isinstance(entry, dict) else None
        if not isinstance(command, str) or command not in parser.commands:
            raise DomainError(f"batch entry {index} needs a 'command' out of {list(parser.commands)}")
        argv = _entry_options(parser.commands[command], index, entry)
        try:
            runs.append(_parse_run(parser, command, argv))
        except _Refusal as exc:
            # The reason alone, in one error line without the usage block.
            raise DomainError(f"batch entry {index} rejected: {command}: {exc}") from None
    return runs


def _error_text(exc: Exception) -> str:
    """str(exc), but with an OSError's file name echoed only while short: str() quotes it in full."""
    if isinstance(exc, OSError) and isinstance(exc.filename, str) and exc.filename2 is None:
        return f"[Errno {exc.errno}] {exc.strerror}: {echoed(exc.filename)}"
    return str(exc)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in parser.commands:
            args = _parse_run(parser, argv[0], argv[1:])
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return EXIT_PASS if exc.code == 0 else EXIT_USAGE
    except _Refusal as exc:
        # As argparse prints a refusal: the refusing parser's usage block, then the error line.
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
