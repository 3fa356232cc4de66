"""Golden gate: stdout and exit code of fixed command lines, byte for byte.

Every case runs twice: as a command line, and as an entry of
`golden/batch.json`, whose `out` files must equal the same goldens. Paths
in the cases are relative, so each test runs in a temporary directory that
holds a copy of `tests/golden`.

Regenerate the goldens (only for a deliberate output change, and say why in
the change) from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from coverhom.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLE2_FULL = {
    "g1": 2, "g2": 3, "m1": 2, "m2": 1, "d": 3, "area1": "3/2", "area2": "5", "kaehler": True,
}

# Runs with a chain block, each under the name "<name>_blocks": the block is
# written once, as one pairing row and the chain with its copy count.
GRID_RUNS = {
    "example2_default": {"command": "example2"},
    "example2_full": {"command": "example2", **EXAMPLE2_FULL},
    "kodaira_thurston": {"command": "kodaira-thurston", "m1": 1, "m2": 2, "d": 3},
    "tower7_d2": {"command": "tower7", "d": 2},
    "tower7_d5": {"command": "tower7", "d": 5},
}

# name -> batch entry without "format"; every one runs in both formats.
RUNS = {
    "catalog_d2": {"command": "catalog", "d": 2},
    "catalog_d3": {"command": "catalog", "d": 3},
    **{
        f"kollar_{int(om)}{int(pi2)}": {
            "command": "kollar", "omega_pullback": om, "target_pi2_trivial": pi2,
        }
        for om in (True, False)
        for pi2 in (True, False)
    },
    "snf_3x3": {"command": "snf", "matrix": "tests/golden/snf_3x3.json"},
    "snf_2x3_big": {"command": "snf", "matrix": "tests/golden/snf_2x3_big.json"},
    "snf_0x2": {"command": "snf", "matrix": "tests/golden/snf_0x2.json"},
    "snf_chain12": {"command": "snf", "matrix": "tests/golden/snf_chain12.json"},
    "snf_unimodular7": {"command": "snf", "matrix": "tests/golden/snf_unimodular7.json"},
    "snf_sparse5x8": {"command": "snf", "matrix": "tests/golden/snf_sparse5x8.json"},
    **{f"{name}_blocks": entry for name, entry in GRID_RUNS.items()},
}

CASES = {f"{name}_{fmt}": dict(entry, format=fmt) for name, entry in RUNS.items() for fmt in ("table", "json")}

USAGE_ERRORS = {
    "usage_no_command": [],
    "usage_unknown_command": ["nonsense"],
    "usage_degree_one": ["example2", "-d", "1"],
    "usage_bad_area": ["example2", "--area1", "abc"],
    "usage_kollar_missing_flag": ["kollar", "--omega-pullback"],
}


def case_argv(entry: dict) -> list[str]:
    """The command line that a batch entry stands for."""
    argv = [entry["command"]]
    for key, value in entry.items():
        option = "-d" if key == "d" else "--" + key.replace("_", "-")
        if key == "command":
            continue
        elif key == "matrix":
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is False:
            argv.append("--no-" + key.replace("_", "-"))
        else:
            argv += [option, str(value)]
    return argv


ARGV = {**{name: case_argv(entry) for name, entry in CASES.items()}, **USAGE_ERRORS}


def batch_entries() -> list[dict]:
    return [dict(entry, out=f"out/{name}.out") for name, entry in CASES.items()]


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text()


def golden_codes() -> dict:
    return json.loads((GOLDEN / "codes.json").read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(GOLDEN, tmp_path / "tests" / "golden")
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_batch_file_replays_cases():
    assert json.loads((GOLDEN / "batch.json").read_text()) == batch_entries()


@pytest.mark.parametrize("name", sorted(ARGV))
def test_command_line(name, workdir, capsys):
    code = main(ARGV[name])
    assert capsys.readouterr().out == golden_text(name)
    assert code == golden_codes()[name]


def test_every_golden_file_is_named_by_a_case():
    named = {f"{name}.out" for name in ARGV} | {"batch.json", "codes.json"}
    named |= {Path(entry["matrix"]).name for entry in RUNS.values() if "matrix" in entry}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(named)


def test_batch(workdir, capsys):
    code = main(["--batch", "tests/golden/batch.json"])
    assert capsys.readouterr().out == ""
    assert code == golden_codes()["batch"]
    for name in CASES:
        assert (workdir / "out" / f"{name}.out").read_text() == golden_text(name), name


def regenerate() -> None:
    (GOLDEN / "batch.json").write_text(json.dumps(batch_entries(), indent=1) + "\n")
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(GOLDEN, Path(tmp) / "tests" / "golden")
        (Path(tmp) / "out").mkdir()
        os.chdir(tmp)
        for name, argv in ARGV.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes[name] = main(argv)
            (GOLDEN / f"{name}.out").write_text(out.getvalue())
        codes["batch"] = main(["--batch", "tests/golden/batch.json"])
    (GOLDEN / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
