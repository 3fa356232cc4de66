"""Command lines on which the plain-command-line walk must agree with argparse,
and long command lines whose refusal must stay within the line bound.

`cli._plain_run` reads a plain command line without argparse and returns
None for any other. Wherever it returns a run, argparse's own reading of the
same command line must be that run: the same attributes, values and types,
and nothing left over. Wherever argparse refuses a command line, the walk
must have returned None.

Each of `LONG_REFUSALS` must exit 2 with nothing on stdout and no stderr
line longer than `LINE_BOUND`.

On each of `AREAS` and `NEAR_MISSES`, `errors.rational` must read the text as
the running `Fraction` does: the same value, or a refusal where `Fraction`
refuses it.

The corpus and the checks need only the standard library, so that they also
run on an interpreter without pytest or hypothesis:

    PYTHONPATH=src python tests/argv_corpus.py
"""

import argparse
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from coverhom import cli, errors

# Command lines the walk reads itself, command name first.
PLAIN = [
    ["example2"],
    ["example2", "--g1", "2", "--g2", "3", "--m1", "2", "--m2", "1", "-d", "3", "--area1", "3/2", "--area2", "5",
     "--kaehler", "--format", "table"],
    ["example2", "--m1=4", "-d=7", "--area1=9/5", "--format=json", "--out=o.txt"],
    ["example2", "--kaehler", "-d", "+3", "--g1", " 4", "--m2", "1_0"],
    ["example2", "--area2", "0.5", "--out", "a=b"],
    ["kodaira-thurston", "--m1", "1", "--m2", "2", "-d", "3", "--area1", "7/3", "--area2", "2", "--format", "table"],
    ["tower7", "-d", "5", "--format", "json"],
    ["catalog", "-d=3"],
    ["kollar", "--omega-pullback", "--no-target-pi2-trivial"],
    ["kollar", "--format=json", "--no-omega-pullback", "--target-pi2-trivial"],
    ["snf", "m.json", "--format", "json"],
    ["snf", "--out", "o.txt", "m.json"],
    ["snf", "--format=table", "d=1.json"],
    ["snf", ""],
]

# One command line of each shape the walk leaves to argparse.
NOT_PLAIN = {
    "repeated option": ["example2", "-d", "3", "-d", "4"],
    "repeated flag": ["example2", "--kaehler", "--kaehler"],
    "flag and its --no- form": ["kollar", "--omega-pullback", "--no-omega-pullback", "--target-pi2-trivial"],
    "abbreviated option": ["example2", "--kaeh"],
    "abbreviated option with a value": ["tower7", "--form", "json"],
    "unknown option": ["example2", "--expand"],
    "option of another command": ["tower7", "--m1", "3"],
    "short help": ["tower7", "-h"],
    "long help": ["snf", "--help"],
    "double dash": ["example2", "--", "-d"],
    "double dash before a positional": ["snf", "--", "m.json"],
    "negative value": ["example2", "-d", "-3"],
    "negative value after =": ["example2", "--m1=-3"],
    "value that is an option": ["example2", "--out", "--kaehler"],
    "missing value": ["example2", "-d"],
    "lone dash": ["snf", "-"],
    "attached short value": ["tower7", "-d5"],
    "flag given =value": ["example2", "--kaehler=yes"],
    "failed integer": ["example2", "--m1", "12x"],
    "integer past the digit limit": ["example2", "--m1", "1" * 5001],
    "failed rational": ["example2", "--area1", "abc"],
    "zero denominator": ["example2", "--area1", "1/0"],
    "empty --out": ["example2", "--out="],
    "failed choice": ["catalog", "--format", "xml"],
    "long failed choice": ["catalog", "--format", "x" * 101],
    "missing required option": ["kollar", "--omega-pullback"],
    "missing positional": ["snf", "--format", "json"],
    "second positional": ["snf", "m.json", "n.json"],
    "stray token": ["tower7", "stray"],
}

# No stderr line of a refusal is longer: cli.REFUSAL_CHARS characters of
# message after a prefix such as "coverhom kodaira-thurston: error: ".
LINE_BOUND = 400

# Command lines whose refusal once echoed each token in full, in error lines
# of 3,043, 3,136, 3,041, 4,540 and 3,100 characters: an unknown option, an
# unknown command, a stray, a stray of 1,500 words and thirty strays.
LONG_REFUSALS = [
    ["--" + "x" * 3000],
    ["x" * 3000],
    ["tower7", "x" * 3000],
    ["tower7", " ".join(["ab"] * 1500)],
    ["tower7"] + ["x" * 101] * 30,
]

# Areas at or just inside the digit limit, each of which runs.
AREAS = ["9" * 4299, "9" * 4300, "1e4299", "1e-4299", "1." + "2" * 4298, "0." + "3" * 4299,
         "7" * 4300 + "/" + "9" * 4300, "1_0" * 2000 + "e299", "+5E4299", ".5e-4298"]

# Texts near the edge of the rational grammar: white space around "/",
# misplaced underscores, signs, letter-d runs and non-ASCII digits.
NEAR_MISSES = [
    "1 / 2", " 3\t/\n4 ", "1 /2", "1/ 2", "1/2 ", " -1/2",
    "1__0", "_1", "1_", "1_/2", "1/_2", "1._5", "1.5_", "1_.5", "1e_5", "1e5_", "1_0e1_0", "1.0_1",
    "+-1", "--1", "- 1", "+.5", "-1/-2", "1/+2", "-0", "+5.", "-.5e-1",
    "1.d", "1.ddd", "1.D", "1.dD", "1.de5", ".d", "1d", "1.5d",
    "\u0669\u0660", "\uff11/\uff12", "\u0663.\u0665e-\u0662", "\u00b2", "\u2155", "1\u00a0/\u00a02",
    "1/0", "0/0", "0e0", "1e", ".e1", ".", "", " ", "1.2.3", "1/2/3", "1/2.5", "1/2e3", "inf", "nan", "0x10",
]


def misread(text):
    """How `errors.rational` and the running `Fraction` differ on text, or None where they agree.

    Where the rule refuses a text by its size, Fraction is not run: it would
    build the integer. Before 3.12, Fraction alone refuses white space around
    "/", so there the rule is held to its reading of the text without it.
    """
    try:
        got = errors.rational(text)
    except errors.DomainError as exc:
        if " needs an integer of " in str(exc):
            return None
        got = None
    try:
        expected = Fraction(re.sub(r"\s*/\s*", "/", text) if sys.version_info < (3, 12) else text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if got != expected or type(got) is not type(expected):
        return f"errors.rational gives {got!r}, Fraction {expected!r}"
    return None


def fields(args):
    """A run's attributes with the type of each value."""
    return {key: (type(value), value) for key, value in vars(args).items()}


def argparse_reading(argv):
    """argparse's reading of a command line, command name first: the run, or None where it refuses it."""
    command, *rest = argv
    sp = cli._parser().commands[command]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            args, extras = sp.parse_known_args(rest, argparse.Namespace(command=command, batch=None))
        except (SystemExit, cli._Refusal):
            return None
    return None if extras else args


def walk(argv):
    """The plain-command-line walk's reading of a command line, command name first."""
    command, *rest = argv
    return cli._plain_run(cli._parser().commands[command], command, rest)


def disagreement(argv):
    """Why the walk and argparse disagree on argv, or None where they agree."""
    walked = walk(argv)
    if walked is None:
        return None
    expected = argparse_reading(argv)
    if expected is None:
        return "the walk read a command line that argparse refuses"
    if fields(walked) != fields(expected):
        return f"the walk read {fields(walked)}, argparse {fields(expected)}"
    return None


def failures():
    """Every way the corpus fails: a plain line not read by the walk, any line on which the two disagree."""
    found = [f"{argv}: not read by the walk" for argv in PLAIN if walk(argv) is None]
    found += [f"{name}: read by the walk" for name, argv in NOT_PLAIN.items() if walk(argv) is not None]
    found += [f"{argv}: {why}" for argv in PLAIN + list(NOT_PLAIN.values()) if (why := disagreement(argv))]
    return found


def refusal(argv):
    """main's exit code, stdout and stderr for argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def unbounded(result):
    """Why a refusal's (exit code, stdout, stderr) breaks the bound, or None where it keeps it."""
    code, out, err = result
    longest = max(map(len, err.splitlines()), default=0)
    if code != 2 or out or not err:
        return f"exit {code} with {len(out)} characters on stdout and {len(err)} on stderr"
    return f"a stderr line of {longest} characters" if longest > LINE_BOUND else None


if __name__ == "__main__":
    problems = failures()
    problems += [f"{len(argv)} tokens of {len(argv[-1])}: {why}" for argv in LONG_REFUSALS
                 if (why := unbounded(refusal(argv)))]
    problems += [f"rational {errors.echoed(text)}: {why}" for text in AREAS + NEAR_MISSES if (why := misread(text))]
    for problem in problems:
        print(problem)
    version = ".".join(map(str, sys.version_info[:3]))
    count = len(PLAIN) + len(NOT_PLAIN) + len(LONG_REFUSALS)
    texts = len(AREAS) + len(NEAR_MISSES)
    print(f"Python {version}: {count} command lines and {texts} rational texts, {'FAILED' if problems else 'ok'}")
    sys.exit(1 if problems else 0)
