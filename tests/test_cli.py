import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import unittest.mock
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argv_corpus
import coverhom.cli
import coverhom.cover
import coverhom.intlinalg
from coverhom.cli import build_parser, main
from coverhom.errors import MAX_MATRIX_SIDE, SNF_BUDGET, DomainError, admit, echoed, echoed_value
from coverhom.intlinalg import IntMatrix
from coverhom.reportio import all_pass, check_snf_budget, matrix_from_json, matrix_to_json

from oracles import matmul_rows


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_command(*argv):
    """The result dict of one command, through its command function."""
    args = build_parser().parse_args(list(argv))
    return args.run(args)


def run_batch(capsys, tmp_path, entries):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(entries))
    return run_main(capsys, "--batch", str(path))


class TestExitCodes:
    def test_example2_minimal(self, capsys):
        code, out, _ = run_main(
            capsys, "example2", "--g1", "1", "--g2", "1", "--m1", "1", "--m2", "1", "-d", "2"
        )
        assert code == 0
        assert "result: PASS" in out

    def test_example2_degree_one_usage_error(self, capsys):
        code, _, err = run_main(capsys, "example2", "-d", "1")
        assert code == 2
        assert "error:" in err

    def test_tower_degree_one_usage_error(self, capsys):
        code, _, _ = run_main(capsys, "tower7", "-d", "1")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run_main(capsys, "nonsense")[0] == 2

    def test_no_command(self, capsys):
        assert run_main(capsys)[0] == 2

    def test_bad_area(self, capsys):
        code, _, err = run_main(capsys, "example2", "--area1", "abc")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_main(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", ["example2", "kodaira-thurston", "tower7"])
    def test_expand_flag_is_unknown(self, capsys, command):
        code, out, err = run_main(capsys, command, "--expand")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --expand" in err


class TestExample2Json:
    def test_bound_formula_case(self, capsys):
        code, out, _ = run_main(
            capsys,
            "example2", "--m1", "2", "--m2", "2", "-d", "3", "--g1", "1", "--g2", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "example2"
        assert doc["invariants"]["pi_lower_bound"] == 72
        assert doc["findings"]["omega_on_spherical_classes"] == "zero"
        assert doc["findings"]["c1_on_spherical_classes"] == "zero"
        assert all(v["pass"] for v in doc["verdicts"])
        assert all(p["omega"] == "0/1" and p["c1"] == 0 for p in doc["pairings"])

    def test_deterministic_bytes(self, capsys):
        args = ("example2", "--m1", "2", "--m2", "1", "-d", "2", "--format", "json")
        _, first, _ = run_main(capsys, *args)
        _, second, _ = run_main(capsys, *args)
        assert first == second

    def test_schema_keys(self, capsys):
        _, out, _ = run_main(capsys, "example2", "--format", "json")
        doc = json.loads(out)
        for key in ("family", "parameters", "invariants", "pairings", "verdicts", "assumptions"):
            assert key in doc
        assert set(doc["invariants"]) == {"euler_characteristic", "b1", "pi_lower_bound"}
        for v in doc["verdicts"]:
            assert set(v) == {"name", "pass", "evidence"}
        assert doc["parameters"]["area1"] == "1/1"

    def test_spherical_lattice_serialized(self, capsys):
        _, out, _ = run_main(capsys, "example2", "-d", "5", "--format", "json")
        (block,) = json.loads(out)["spherical_lattice"]["blocks"]
        # One chain of 4 spheres, written as its length and its one vertex.
        assert block == {"chain": {"length": 4, "euler_number": -2, "genus": 0}, "copies": 25}

    def test_spherical_lattice_blocks(self, capsys):
        _, out, _ = run_main(capsys, "example2", "-d", "3", "--format", "json")
        doc = json.loads(out)
        # One block: 9 copies of a chain of 2 spheres, one pairing row for all 18.
        (block,) = doc["spherical_lattice"]["blocks"]
        assert block["copies"] == 9
        assert block["chain"] == {"length": 2, "euler_number": -2, "genus": 0}
        assert doc["pairings"] == [
            {"generator": "double point 1..9, sphere 1..2", "spheres": 18, "omega": "0/1", "c1": 0}
        ]

    @pytest.mark.parametrize("m1, m2, d", [(1, 1, 2), (3, 2, 5), (8, 8, 10), (300, 300, 30)])
    def test_block_row_counts_every_sphere(self, m1, m2, d):
        doc = run_command("example2", "--m1", str(m1), "--m2", str(m2), "-d", str(d))
        assert doc["pairings"][0]["spheres"] == doc["invariants"]["pi_lower_bound"] == m1 * m2 * d * d * (d - 1)

    def test_default_json_does_not_grow_with_the_grid(self, capsys):
        _, out, _ = run_main(capsys, "example2", "--m1", "8", "--m2", "8", "-d", "10", "--format", "json")
        assert len(out.encode()) < 10_000
        _, small, _ = run_main(capsys, "example2", "--m1", "1", "--m2", "1", "-d", "10", "--format", "json")
        assert len(out) - len(small) < 100

    @pytest.mark.parametrize("command", ["example2", "kodaira-thurston"])
    def test_json_grows_only_with_the_digits_of_the_degree(self, capsys, command):
        _, small, _ = run_main(capsys, command, "-d", "10", "--format", "json")
        _, large, _ = run_main(capsys, command, "-d", str(10**6), "--format", "json")
        assert len(large.encode()) - len(small.encode()) <= 300

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_large_grid_runs_in_a_second(self, capsys, fmt):
        start = time.perf_counter()
        code, out, err = run_main(capsys, "example2", "--m1", "300", "--m2", "300", "-d", "30", "--format", fmt)
        assert time.perf_counter() - start < 1
        assert code == 0 and err == ""
        if fmt == "json":
            assert json.loads(out)["invariants"]["pi_lower_bound"] == 2349000000
        else:
            assert "  pi_lower_bound         2349000000\n" in out

    def test_traceability(self, capsys):
        _, out, _ = run_main(capsys, "example2", "--format", "json")
        doc = json.loads(out)
        trace = doc["trace"]
        for claim in (
            "invariants.euler_characteristic",
            "invariants.b1",
            "invariants.pi_lower_bound",
            "pairings[].omega",
            "pairings[].c1",
            "findings.omega_on_spherical_classes",
            "findings.c1_on_spherical_classes",
        ):
            assert claim in trace

    def test_table_and_json_same_numbers(self, capsys):
        _, table, _ = run_main(capsys, "example2", "--m1", "2", "-d", "3")
        _, js, _ = run_main(capsys, "example2", "--m1", "2", "-d", "3", "--format", "json")
        doc = json.loads(js)
        inv = doc["invariants"]
        assert f"euler_characteristic   {inv['euler_characteristic']}" in table
        assert f"pi_lower_bound         {inv['pi_lower_bound']}" in table
        for p in doc["pairings"]:
            assert p["generator"] in table
        for v in doc["verdicts"]:
            assert v["name"] in table

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_main(capsys, "example2", "--format", "json", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["family"] == "example2"

    def test_empty_out_path_refused(self, capsys, tmp_path):
        # An empty path names no file, so nothing is written to stdout either.
        argv = ["kollar", "--omega-pullback", "--target-pi2-trivial"]
        code, out, err = run_main(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err.endswith("\ncoverhom kollar: error: argument --out: must be a file path, got ''\n")
        entry = {"command": "kollar", "omega_pullback": True, "target_pi2_trivial": True, "out": ""}
        message = "error: batch entry 0 rejected: kollar: argument --out: must be a file path, got ''\n"
        assert run_batch(capsys, tmp_path, [entry]) == (2, "", message)

    def test_kaehler_flag_recorded(self, capsys):
        _, out, _ = run_main(capsys, "example2", "--kaehler", "--format", "json")
        doc = json.loads(out)
        assert doc["kaehler"] is True
        assert doc["parameters"]["kaehler"] is True


class TestKodairaThurston:
    def test_betti_and_verdicts(self, capsys):
        code, out, _ = run_main(capsys, "kodaira-thurston", "--m1", "1", "--m2", "1", "-d", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["invariants"]["b1"] == 3
        names = [v["name"] for v in doc["verdicts"]]
        assert "cover first Betti number equals 3; odd b1 rules out Kaehler homotopy type" in names
        assert doc["kaehler"] is False

    def test_parameter_independent(self, capsys):
        code, out, _ = run_main(capsys, "kodaira-thurston", "--m1", "3", "--m2", "2", "-d", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["invariants"]["b1"] == 3

    def test_mutated_relator_hook_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(coverhom.cover, "MONODROMY_RELATORS", ((0, 0, 1, 0),))
        code, out, _ = run_main(capsys, "kodaira-thurston", "--format", "json")
        assert code == 1
        failed = [v["name"] for v in json.loads(out)["verdicts"] if not v["pass"]]
        assert "stored relators span the monodromy relation lattice" in failed


class TestTowerCli:
    def test_pairings(self, capsys):
        for d, expected in ((2, -2), (4, -6)):
            code, out, _ = run_main(capsys, "tower7", "-d", str(d), "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["family"] == "tower7"
            stage2 = doc["stages"][1]
            assert stage2["pairings"][0]["c1"] == expected
            assert stage2["findings"]["c1_on_spherical_classes"] == "nonzero"
            assert stage2["findings"]["omega_on_spherical_classes"] == "zero"

    def test_table_output(self, capsys):
        code, out, _ = run_main(capsys, "tower7", "-d", "2")
        assert code == 0
        assert "== stage 1 ==" in out and "== stage 2 ==" in out
        assert "overall: PASS" in out


class TestCatalogCli:
    def test_four_entries(self, capsys):
        code, out, _ = run_main(capsys, "catalog", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 4
        signatures = {(e["omega_on_pi"], e["c1_on_pi"]) for e in doc["entries"]}
        assert signatures == {
            ("zero", "zero"),
            ("zero", "nonzero"),
            ("nonzero", "zero"),
            ("nonzero", "nonzero"),
        }
        sources = [e["source"] for e in doc["entries"]]
        assert sources.count("computed") == 2
        assert sources.count("catalog") == 2

    def test_configured_degree_pairing(self, capsys):
        code, out, _ = run_main(capsys, "catalog", "-d", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        tower_entry = [e for e in doc["entries"] if e["source"] == "computed"][1]
        assert "-4" in tower_entry["witness"]

    @pytest.mark.parametrize(
        "flag, grid, tower",
        [
            (
                "c1_vanishes_on_pi",
                "recomputed live: spherical bound 4, all omega and c1 pairings exactly 0",
                "recomputed live: c1 pairings zero at stage 2, omega pairings zero at both stages",
            ),
            (
                "omega_vanishes_on_pi",
                "recomputed live: spherical bound 4, all omega and c1 pairings exactly 0",
                "recomputed live: lifted-sphere chern pairing -2 = 2*(1-2), omega pairings zero at both stages",
            ),
        ],
        ids=["c1", "omega"],
    )
    def test_witness_texts_follow_the_live_reports(self, monkeypatch, flag, grid, tower):
        # Patched to always true: the grid report already has both flags true,
        # and the tower's stage 2 has c1 nonzero, so only the c1 patch moves a text.
        before = [e["witness"] for e in run_command("catalog")["entries"]]
        monkeypatch.setattr(coverhom.cover.CoverReport, flag, property(lambda r: True))
        after = [e["witness"] for e in run_command("catalog")["entries"]]
        assert (after[0], after[3]) == (grid, tower)
        assert (after != before) == (flag == "c1_vanishes_on_pi")

    def test_witness_texts_name_what_does_not_vanish(self, monkeypatch):
        monkeypatch.setattr(coverhom.cover.CoverReport, "omega_vanishes_on_pi", property(lambda r: False))
        monkeypatch.setattr(coverhom.cover.CoverReport, "c1_vanishes_on_pi", property(lambda r: False))
        entries = run_command("catalog")["entries"]
        assert entries[0]["witness"] == "recomputed live: spherical bound 4, some omega and c1 pairing nonzero"
        assert entries[3]["witness"] == (
            "recomputed live: lifted-sphere chern pairing -2 = 2*(1-2), omega pairings nonzero at stage 1 and 2"
        )


class TestKollarCli:
    def test_both_hypotheses(self, capsys):
        code, out, _ = run_main(
            capsys, "kollar", "--omega-pullback", "--target-pi2-trivial", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["concluded"] is True
        assert doc["conclusion"] == "omega vanishes on all spherical classes"

    def test_verdict_says_it_restates_the_criterion(self):
        for flags in (("--omega-pullback", "--target-pi2-trivial"), ("--omega-pullback", "--no-target-pi2-trivial")):
            doc = run_command("kollar", *flags)
            (verdict,) = doc["verdicts"]
            assert verdict["name"].startswith("restates the criterion")
            assert verdict["evidence"].startswith("hypotheses taken as given, not checked: ")
            assert verdict["evidence"].endswith("; ".join(doc["failed_hypotheses"]) or doc["conclusion"])

    def test_failed_hypothesis(self, capsys):
        for flags in (
            ("--omega-pullback", "--no-target-pi2-trivial"),
            ("--no-omega-pullback", "--target-pi2-trivial"),
        ):
            code, out, _ = run_main(capsys, "kollar", *flags, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["concluded"] is False
            assert doc["conclusion"] == "no conclusion"
            assert len(doc["failed_hypotheses"]) == 1

    def test_library_level(self):
        assert run_command("kollar", "--omega-pullback", "--target-pi2-trivial")["concluded"]
        assert not run_command("kollar", "--omega-pullback", "--no-target-pi2-trivial")["concluded"]
        assert not run_command("kollar", "--no-omega-pullback", "--target-pi2-trivial")["concluded"]

    def test_missing_flag_is_usage_error(self, capsys):
        assert run_main(capsys, "kollar", "--omega-pullback")[0] == 2

    @pytest.mark.parametrize("omega_pullback", [True, False])
    @pytest.mark.parametrize("target_pi2_trivial", [True, False])
    def test_concluded_is_the_cover_criterion(self, omega_pullback, target_pi2_trivial):
        flags = [
            "--omega-pullback" if omega_pullback else "--no-omega-pullback",
            "--target-pi2-trivial" if target_pi2_trivial else "--no-target-pi2-trivial",
        ]
        doc = run_command("kollar", *flags)
        failed = coverhom.cover.pullback_criterion(omega_pullback, target_pi2_trivial)
        assert doc["concluded"] is (not failed)
        assert doc["failed_hypotheses"] == failed
        assert len(failed) == (not omega_pullback) + (not target_pi2_trivial)


class TestSnfCli:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        big = 2**64 + 3
        matrix = IntMatrix.from_rows([(2, 4), (6, 8), (big, 0)])
        path.write_text(json.dumps(matrix_to_json(matrix)))
        code, out, _ = run_main(capsys, "snf", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # Big entries travel as decimal strings.
        assert any(isinstance(e, str) for e in doc["input"]["entries"])
        u = matrix_from_json(doc["u"])
        d = matrix_from_json(doc["d"])
        v = matrix_from_json(doc["v"])
        assert u.mul(matrix).mul(v).entries == d.entries
        assert all(check["pass"] for check in doc["verdicts"])

    @pytest.mark.parametrize(
        "entries",
        [(), (0, 1, -1), (2**53 - 1, -(2**53) + 1), (2**53 - 1, 2**53), (-(2**53), 5), (3, 10**40, -(10**40))],
    )
    def test_matrix_encoding_matches_per_entry_rule(self, entries):
        encoded = matrix_to_json(IntMatrix(1, len(entries), entries))["entries"]
        assert encoded == [e if -(2**53) < e < 2**53 else str(e) for e in entries]

    def test_table_format(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(IntMatrix.from_rows([(2, 4), (6, 8)]))))
        code, out, _ = run_main(capsys, "snf", str(path))
        assert code == 0
        assert "divisors: [2, 4]" in out

    def test_each_check_runs_once(self, monkeypatch, tmp_path):
        # Recomposition is one packed check inside snf and unimodularity 2
        # determinants, also inside snf; the command reports them, not reruns them.
        calls = {"det": 0, "recompose": 0}
        det, recomposes = coverhom.intlinalg.det, coverhom.intlinalg._recomposes

        def counting_det(m):
            calls["det"] += 1
            return det(m)

        def counting_recomposes(u, a, v, d):
            calls["recompose"] += 1
            return recomposes(u, a, v, d)

        monkeypatch.setattr(coverhom.intlinalg, "det", counting_det)
        monkeypatch.setattr(coverhom.cli, "det", counting_det, raising=False)
        monkeypatch.setattr(coverhom.intlinalg, "_recomposes", counting_recomposes)
        path = tmp_path / "m.json"
        matrix = IntMatrix.from_rows([(2, 4, 4), (-6, 6, 12), (10, -4, -16)])
        path.write_text(json.dumps(matrix_to_json(matrix)))
        doc = run_command("snf", str(path))
        assert all_pass(doc)
        assert calls == {"det": 2, "recompose": 1}

    def test_failed_library_check_exits_one(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(IntMatrix.from_rows([(2, 4), (6, 8)]))))
        monkeypatch.setattr(coverhom.intlinalg, "det", lambda m: 2)
        code, out, err = run_main(capsys, "snf", str(path))
        assert code == 1 and out == ""
        assert err == "error: smith decomposition failed its own check: transforms must be unimodular\n"

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"rows\": 2, \"cols\": 2, \"entries\": [1, 2, 3]}")
        assert run_main(capsys, "snf", str(path))[0] == 2
        path.write_text("not json")
        assert run_main(capsys, "snf", str(path))[0] == 2
        assert run_main(capsys, "snf", str(tmp_path / "missing.json"))[0] == 2

    def test_float_entry_rejected(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{\"rows\": 1, \"cols\": 1, \"entries\": [1.5]}")
        assert run_main(capsys, "snf", str(path))[0] == 2

    @staticmethod
    def decomposed(capsys, tmp_path, rows, cols):
        """(d, divisors) as ints from `snf --format json`, after checking u*a*v == d by the triple loop."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": len(rows), "cols": cols, "entries": [x for r in rows for x in r]}))
        code, out, err = run_main(capsys, "snf", str(path), "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)

        def listed(m):
            return [[int(x) for x in m["entries"][i * m["cols"] : (i + 1) * m["cols"]]] for i in range(m["rows"])]

        u, d, v = listed(doc["u"]), listed(doc["d"]), listed(doc["v"])
        assert matmul_rows(matmul_rows(u, rows, cols), v, cols) == d
        return d, [int(x) for x in doc["divisors"]]

    @pytest.mark.parametrize("n", [24, 28, 40])
    def test_dense_random_matrix_decomposes(self, capsys, tmp_path, n):
        # Entries in [-9, 9] drawn row-major from random.Random(0). Elimination
        # by Bezout combinations grows the transforms of the 24x24 and 28x28
        # past the interpreter's 4,300-digit string limit.
        rng = random.Random(0)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d, divisors = self.decomposed(capsys, tmp_path, rows, n)
        assert [d[i][i] for i in range(n)] == divisors and all(divisors)

    @pytest.mark.parametrize("shape", [(1, MAX_MATRIX_SIDE), (MAX_MATRIX_SIDE, 1), (MAX_MATRIX_SIDE, MAX_MATRIX_SIDE)])
    def test_largest_shape_runs(self, capsys, tmp_path, shape):
        rng = random.Random(1)
        rows = [[rng.randint(-9, 9) for _ in range(shape[1])] for _ in range(shape[0])]
        self.decomposed(capsys, tmp_path, rows, shape[1])

    @pytest.mark.parametrize(
        "rows, cols",
        [(1, MAX_MATRIX_SIDE + 1), (MAX_MATRIX_SIDE + 1, 1), (0, 10**6), (2**70, 0)],
        ids=["wide", "tall", "empty-wide", "huge-rows"],
    )
    def test_shape_past_the_limit_is_refused_before_any_work(self, capsys, tmp_path, rows, cols):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": [1] * min(rows * cols, 100)}))
        code, out, err = run_main(capsys, "snf", str(path))
        assert (code, out) == (2, "")
        size, unit = (rows, "rows") if rows > MAX_MATRIX_SIDE else (cols, "columns")
        assert err == f"error: matrix has {size} {unit}, above the limit of {MAX_MATRIX_SIDE} {unit}\n"

    @pytest.mark.parametrize(
        "rows, cols, below, inside",
        [
            (8, 8, 10**1450, True),
            (64, 64, 100, True),
            (64, 1, 2**600, True),
            (8, 8, 10**1480, False),
            (64, 64, 200, False),
            (16, 16, 10**300, False),
            (2, 64, 10**4200, False),
        ],
        ids=["8x8-1450-digits", "64x64-2-digits", "64x1-600-bits", "8x8-1480-digits", "64x64-3-digits",
             "16x16-300-digits", "2x64-4200-digits"],
    )
    def test_answer_size_budget(self, capsys, tmp_path, rows, cols, below, inside):
        # Entries uniform in (-below, below). n^2 * bits(H) is recomputed here
        # from the whole product of the squared norms of the rows, or of the
        # columns of a tall matrix. The first five inputs lie within 8% of the
        # budget. The 16x16 took 4 s and the 2x64 over a minute before the budget.
        rng = random.Random(1)
        entries = [rng.randrange(1 - below, below) for _ in range(rows * cols)]
        if rows <= cols:
            lines = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
        else:
            lines = [entries[j::cols] for j in range(cols)]
        squares = math.prod(sum(x * x for x in line) for line in lines)
        size = max(rows, cols) ** 2 * math.isqrt(squares).bit_length()
        assert (size <= SNF_BUDGET) == inside
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
        start = time.perf_counter()
        code, out, err = run_main(capsys, "snf", str(path), "--format", "json")
        elapsed = time.perf_counter() - start
        if inside:
            assert (code, err) == (0, "") and elapsed < 20
        else:
            assert (code, out) == (2, "") and elapsed < 2
            assert err.startswith(
                f"error: snf: a {rows}x{cols} matrix, with n = max(rows, cols) and H = the product of its row or "
                "column norms, gives n^2*bits(H) of at least "
            )
            assert err.endswith(f" bits, above the limit of {SNF_BUDGET} bits\n")

    def test_budget_holds_to_the_bit(self):
        # A 1x1 matrix [x] has n = 1 and H = |x|, so its bound is the bit length of x.
        check_snf_budget(IntMatrix(1, 1, (2 ** (SNF_BUDGET - 1),)))
        message = f"of at least {SNF_BUDGET + 1} bits, above the limit of {SNF_BUDGET} bits$"
        with pytest.raises(DomainError, match=message):
            check_snf_budget(IntMatrix(1, 1, (-(2**SNF_BUDGET),)))

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_divisor_past_the_digit_limit_is_written_in_full(self, capsys, tmp_path, fmt):
        # diag(10^3000 + 1, 10^3000 + 3): coprime, so the divisors are 1 and the
        # product 10^6000 + 4*10^3000 + 3, whose 6,001 digits pass the limit.
        big = 10**3000
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [big + 1, 0, 0, big + 3]}))
        code, out, err = run_main(capsys, "snf", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        product = "1" + "0" * 2999 + "4" + "0" * 2999 + "3"
        if fmt == "json":
            doc = json.loads(out)
            assert doc["divisors"] == [1, product]
            assert doc["d"]["entries"] == [1, 0, 0, product]
            assert doc["verdicts"][0]["evidence"].endswith(f"divisors [1, {product}]")
        else:
            assert f"divisors: [1, {product}]\n" in out
            assert f"divisors [1, {product}]\nresult: PASS\n" in out


VALID_RUNS = [
    ["example2", "--m1", "2", "--area1", "3/2", "--kaehler"],
    ["kodaira-thurston", "--format", "json"],
    ["tower7", "-d", "3"],
    ["catalog"],
    ["kollar", "--omega-pullback", "--no-target-pi2-trivial"],
    ["snf", "m.json", "--format", "json"],
]

REFUSED_RUNS = [
    ["example2", "--expand"],
    ["example2", "--batch", "x"],
    ["tower7", "stray"],
    ["snf", "m.json", "extra", "--also"],
    ["example2", "--m1", "12x"],
    ["example2", "--m1", "1" * 5001],
    ["example2", "--area1", "abc"],
    ["catalog", "--format", "xml"],
    ["kollar", "--omega-pullback"],
    ["tower7", "-h"],
    ["example2", "--", "-d"],
    ["--kaeh"],
    ["exa"],
    ["--"],
]


class TestCommandParser:
    """A command line is read by its command's own parser, as the top-level parser would read it."""

    @pytest.fixture(autouse=True)
    def matrix_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(json.dumps({"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}))

    @staticmethod
    def top_level(argv):
        """The run's fields as the top-level parser reads argv, or (exit code, stdout, stderr) as argparse refuses it."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return vars(build_parser().parse_args(argv))
            except SystemExit as exc:
                code = 0 if exc.code == 0 else 2
            except coverhom.cli._Refusal as exc:
                # argparse's own error method prints the refusal and exits.
                with pytest.raises(SystemExit) as exited:
                    argparse.ArgumentParser.error(exc.parser, str(exc))
                code = exited.value.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", VALID_RUNS + REFUSED_RUNS, ids=lambda argv: " ".join(argv)[:40])
    def test_same_result_as_the_top_level_parser(self, capsys, monkeypatch, argv):
        runs = []
        check = coverhom.cli._check_grid_size
        monkeypatch.setattr(coverhom.cli, "_check_grid_size", lambda run: check(runs.append(vars(run)) or run))
        result = run_main(capsys, *argv)
        expected = self.top_level(argv)
        if argv in VALID_RUNS:
            assert runs == [expected] and result[0] == 0 and result[2] == ""
        else:
            assert runs == [] and result == expected

    def test_dash_dash_equals_read_by_the_command_parser(self, capsys):
        # The line is the same on Python 3.11 to 3.13; the top-level parser of
        # 3.11 and 3.12 would refuse it as --help or --batch, options example2 lacks.
        code, out, err = run_main(capsys, "example2", "--=x")
        assert (code, out) == (2, "")
        assert err.startswith("usage: coverhom example2 ")
        assert err.splitlines()[-1] == (
            "coverhom example2: error: ambiguous option: --=x could match "
            "--help, --g1, --g2, --m1, --m2, --area1, --area2, --kaehler, --format, --out"
        )

    @pytest.mark.parametrize("argv", VALID_RUNS, ids=lambda argv: argv[0])
    def test_command_line_skips_the_top_level_parser(self, capsys, monkeypatch, argv):
        def refused(*args, **kwargs):
            raise AssertionError("the top-level parser read a command line")

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(coverhom.cli._parser(), name, refused)
        assert run_main(capsys, *argv)[0] == 0


# An odd token for any place on a command line: an option that is not plain,
# or a value that converts to nothing, starts with "-" or is out of range.
ODD_TOKENS = [
    "-h", "--help", "--", "-", "--kaeh", "--m", "-d5", "--no-kaehler", "--expand", "-x", "--format=",
    "-3", "+3", " 4", "1_0", "12x", "", "-1/2", "1/0", "0.5", "xml", "a=b", "x" * 101, "1" * 5001,
]

# A value each option converts and accepts.
GOOD_VALUES = {"area1": "3/2", "area2": "5", "format": "json", "out": "o.txt", "matrix": "m.json"}


def declared(command):
    """A command's declared actions, --help left out, as its parser holds them."""
    sp = coverhom.cli._parser().commands[command]
    return [action for action in sp._actions if action.default is not argparse.SUPPRESS]


def option_strings(command, flags):
    """The option strings of a command's flags, or of its options that take a value."""
    return sorted(option for action in declared(command) if (action.nargs == 0) == flags
                  for option in action.option_strings)


@st.composite
def command_lines(draw):
    """A command line of one command, from its own option strings: plain and odd values, = forms, repeats, strays."""
    command = draw(st.sampled_from(sorted(coverhom.cli._parser().commands)))
    actions = coverhom.cli._parser().commands[command]._option_string_actions

    def good(option):
        return st.just(GOOD_VALUES.get(actions[option].dest, "3"))

    def any_value(option):
        return st.one_of(good(option), st.sampled_from(ODD_TOKENS))

    option = st.sampled_from(option_strings(command, flags=False))
    items = [st.sampled_from(ODD_TOKENS + ["m.json"]).map(lambda token: [token])]
    for value in (good, any_value):
        items.append(option.flatmap(lambda o, value=value: value(o).map(lambda v: [o, v])))
        items.append(option.flatmap(lambda o, value=value: value(o).map(lambda v: [f"{o}={v}"])))
    flags = option_strings(command, flags=True)
    if flags:
        items.append(st.sampled_from(flags).map(lambda flag: [flag]))
    chosen = draw(st.lists(st.one_of(items), max_size=5))
    return [command] + [token for item in chosen for token in item]


# One command line of each shape the benchmark runs: a grid report of each
# family, a matrix file, and a --batch entry, whose options take the --key=value form.
BENCHMARK_RUNS = [
    ["example2", "--g1", "2", "--g2", "1", "--m1", "3", "--m2", "2", "-d", "7",
     "--area1", "3/2", "--area2", "5/4", "--kaehler", "--format", "table"],
    ["kodaira-thurston", "--m1", "2", "--m2", "3", "-d", "6", "--area1", "1/5", "--area2", "9/2", "--format", "json"],
    ["snf", "m.json", "--format", "json"],
    ["example2", *coverhom.cli._entry_options(
        coverhom.cli._parser().commands["example2"],
        0,
        {"command": "example2", "m1": 2, "m2": 1, "d": 5, "area1": "7/3", "area2": "4/5", "g1": 3, "g2": 2,
         "kaehler": True, "format": "table", "out": "b0-e1.txt"},
    )],
]


class TestPlainCommandLines:
    """A plain command line is read by the walk as argparse reads it; every other is left to argparse."""

    @pytest.mark.parametrize("argv", argv_corpus.PLAIN + BENCHMARK_RUNS, ids=lambda argv: " ".join(argv)[:40])
    def test_plain_line_read_without_argparse(self, argv):
        assert argv_corpus.walk(argv) is not None
        assert argv_corpus.disagreement(argv) is None

    @pytest.mark.parametrize("argv", argv_corpus.NOT_PLAIN.values(), ids=list(argv_corpus.NOT_PLAIN))
    def test_other_line_left_to_argparse(self, argv):
        assert argv_corpus.walk(argv) is None

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(command_lines())
    def test_walk_reads_only_what_argparse_reads_the_same(self, argv):
        assert argv_corpus.disagreement(argv) is None


def key_entries():
    """For every command and key, batch entries that give the key each value it takes: true and false for a flag,
    a good value otherwise and a path starting with "-" for the matrix, over every key or only the required ones."""
    for command in sorted(coverhom.cli._parser().commands):
        actions = declared(command)
        good = {action.dest: True if action.nargs == 0 else 3 if action.type is int else GOOD_VALUES[action.dest]
                for action in actions}
        required = {action.dest: good[action.dest] for action in actions if action.required}
        for action in actions:
            values = [True, False] if action.nargs == 0 else [good[action.dest]]
            values += ["-m.json"] if not action.option_strings else []
            for base in (good, required):
                for value in values:
                    yield {"command": command, **base, action.dest: value}


class TestBatchKeys:
    """A batch entry's keys become the options of its command's actions, read as argparse reads them."""

    @pytest.mark.parametrize("entry", list(key_entries()), ids=lambda entry: json.dumps(entry)[:60])
    def test_entry_read_as_argparse_reads_its_options(self, entry):
        command = entry["command"]
        argv = [command, *coverhom.cli._entry_options(coverhom.cli._parser().commands[command], 0, entry)]
        assert argv_corpus.disagreement(argv) is None
        # The walk reads every such entry but one whose matrix follows "--".
        assert (argv_corpus.walk(argv) is None) == ("--" in argv)
        run = argv_corpus.argparse_reading(argv)
        for action in declared(command):
            if action.dest in entry:
                value = entry[action.dest]
                assert getattr(run, action.dest) == (value if action.nargs == 0 else (action.type or str)(str(value)))


class TestBatch:
    def test_two_runs_in_order(self, capsys, tmp_path):
        out_file = tmp_path / "kt.json"
        batch = [
            {"command": "example2", "m1": 1, "m2": 1, "d": 2, "format": "json"},
            {"command": "kodaira-thurston", "d": 2, "format": "json", "out": str(out_file)},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        code, out, _ = run_main(capsys, "--batch", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "example2"
        kt = json.loads(out_file.read_text())
        assert kt["invariants"]["b1"] == 3

    def test_bad_entry_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        for doc, reason in (
            ([{"command": "example2", "bogus": 1}], "batch entry 0: unknown keys ['bogus']"),
            ([{"command": "example2", "d": 3, "format": "json", "expand": True}], "unknown keys ['expand']"),
            ([{"command": "example2", "format": "xml"}], "rejected: example2: argument --format: invalid choice"),
            ([{"command": "kollar", "omega_pullback": True}], "the following arguments are required"),
            ({"command": "example2"}, "must hold a JSON array"),
        ):
            path.write_text(json.dumps(doc))
            code, out, err = run_main(capsys, "--batch", str(path))
            assert (code, out) == (2, "")
            # One error line: argparse's reason without its usage block.
            assert err.startswith("error:") and err.count("\n") == 1 and reason in err

    def test_float_area_rejected(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"command": "example2", "area1": 0.5}]))
        assert run_main(capsys, "--batch", str(path))[0] == 2

    @pytest.mark.parametrize("value", [None, [1], {"p": 1}, 0.5])
    def test_other_json_types_rejected(self, capsys, tmp_path, value):
        assert run_batch(capsys, tmp_path, [{"command": "example2", "area1": value}])[0] == 2

    def test_kollar_flags_must_be_booleans(self, capsys, tmp_path):
        entry = {"command": "kollar", "omega_pullback": "no", "target_pi2_trivial": 1}
        code, out, _ = run_batch(capsys, tmp_path, [entry])
        assert code == 2
        assert "conclusion" not in out

    def test_option_of_another_command_rejected(self, capsys, tmp_path):
        assert run_main(capsys, "tower7", "--m1", "3")[0] == 2
        assert run_batch(capsys, tmp_path, [{"command": "tower7", "m1": 3}])[0] == 2

    @pytest.mark.parametrize("key", ["omega", "no_omega_pullback", "help", "batch", "run"])
    def test_only_option_names_are_keys(self, capsys, tmp_path, key):
        entry = {"command": "kollar", "omega_pullback": True, "target_pi2_trivial": True, key: True}
        assert run_batch(capsys, tmp_path, [entry])[0] == 2

    def test_false_flags(self, capsys, tmp_path):
        entries = [
            {"command": "example2", "kaehler": False, "format": "json"},
            {"command": "kollar", "omega_pullback": False, "target_pi2_trivial": True, "format": "json"},
        ]
        code, out, _ = run_batch(capsys, tmp_path, entries)
        assert code == 0
        decoder = json.JSONDecoder()
        example2, end = decoder.raw_decode(out)
        kollar, _ = decoder.raw_decode(out, end + 1)
        assert example2["kaehler"] is False
        assert kollar["parameters"]["omega_pullback"] is False

    @pytest.mark.parametrize(
        "entry, line",
        [
            ({"command": "example2", "d": False}, "'d' must be a JSON integer, got false"),
            ({"command": "example2", "d": True}, "'d' must be a JSON integer, got true"),
            ({"command": "snf", "matrix": True}, "'matrix' must be a string, got true"),
            ({"command": "snf", "matrix": 5}, "'matrix' must be a string, got 5"),
            ({"command": "snf", "matrix": None}, "'matrix' must be a string, got null"),
            ({"command": "example2", "d": None}, "'d' must be a JSON integer, got null"),
            ({"command": "example2", "d": 2.5}, "'d' must be a JSON integer, got 2.5"),
            ({"command": "kollar", "omega_pullback": None}, "'omega_pullback' must be a boolean, got null"),
            ({"command": "example2", "kaehler": 5}, "'kaehler' must be a boolean, got 5"),
            ({"command": "example2", "kaehler": "yes"}, "'kaehler' must be a boolean, got \"yes\""),
            ({"command": "example2", "area1": [1, 2]}, "'area1' must be a string or an integer, got [1, 2]"),
            ({"command": "tower7", "out": {"p": None}}, """'out' must be a string or an integer, got {"p": null}"""),
            # Past ECHOED characters a value is named by its kind and size.
            ({"command": "example2", "area2": [1] * 40},
             "'area2' must be a string or an integer, got an array of length 40"),
            ({"command": "catalog", "format": {str(k): k for k in range(20)}},
             "'format' must be a string or an integer, got an object of length 20"),
            ({"command": "kollar", "target_pi2_trivial": 10**100},
             "'target_pi2_trivial' must be a boolean, got an integer of 101 digits"),
            ({"command": "tower7", "d": "9" * 101}, "'d' must be a JSON integer, got a string of 101 characters"),
        ],
        ids=["d-false", "d-true", "matrix-true", "matrix-int", "matrix-null", "d-null", "d-float", "flag-null",
             "flag-int", "flag-string", "rational-array", "out-object", "long-array", "long-object", "long-int",
             "long-string"],
    )
    def test_booleans_only_for_flags(self, capsys, tmp_path, entry, line):
        # Each key takes one set of JSON types, and the one line for any other value names them.
        # Only kaehler, omega_pullback and target_pi2_trivial take booleans.
        assert run_batch(capsys, tmp_path, [entry]) == (2, "", f"error: batch entry 0: {line}\n")

    @pytest.mark.parametrize(
        "entry",
        [
            {"command": "example2", "d": "3"},
            {"command": "example2", "g1": "2"},
            {"command": "kodaira-thurston", "m2": "1"},
            {"command": "tower7", "d": "2"},
            {"command": "catalog", "d": "2"},
        ],
    )
    def test_integer_options_refuse_strings(self, capsys, tmp_path, entry):
        first = tmp_path / "first.json"
        code, out, err = run_batch(capsys, tmp_path, [{"command": "tower7", "out": str(first)}, entry])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "must be a JSON integer" in err
        assert not first.exists()

    def test_rational_and_text_options_keep_strings(self, capsys, tmp_path):
        out = tmp_path / "e.json"
        entry = {"command": "example2", "d": 3, "area1": "3/2", "area2": "5", "format": "json", "out": str(out)}
        assert run_batch(capsys, tmp_path, [entry])[0] == 0
        assert json.loads(out.read_text())["parameters"]["area1"] == "3/2"

    def test_expand_entry(self, capsys, tmp_path):
        # "expand" is no option of any command, so the batch stops before its first entry writes.
        first = tmp_path / "first.json"
        entries = [
            {"command": "example2", "format": "json", "out": str(first)},
            {"command": "example2", "d": 3, "format": "json", "expand": True},
        ]
        code, out, err = run_batch(capsys, tmp_path, entries)
        assert (code, out) == (2, "")
        assert err == "error: batch entry 1: unknown keys ['expand']\n"
        assert not first.exists()

    def test_whole_file_parsed_before_any_entry_runs(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        entries = [
            {"command": "example2", "format": "json", "out": str(first)},
            {"command": "kollar", "omega_pullback": True},
        ]
        assert run_batch(capsys, tmp_path, entries)[0] == 2
        assert not first.exists()

    @pytest.mark.parametrize("entry, message", [
        ({"command": "example2", "d": 1}, "error: cover degree must be at least 2, got 1\n"),
        ({"command": "snf", "matrix": "missing.json"}, "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    ], ids=["degree", "missing-matrix"])
    def test_refusal_while_an_entry_runs_stops_the_batch_there(self, capsys, tmp_path, monkeypatch, entry, message):
        # The parsers accept the entry; its refusal comes when it runs, after the entries before it wrote.
        monkeypatch.chdir(tmp_path)
        entries = [{"command": "tower7", "d": 3, "out": "o1.txt"}, entry, {"command": "tower7", "out": "o3.txt"}]
        assert run_batch(capsys, tmp_path, entries) == (2, "", message)
        assert (tmp_path / "o1.txt").exists() and not (tmp_path / "o3.txt").exists()

    def test_matrix_path_starting_with_a_dash(self, capsys, tmp_path, monkeypatch):
        # The path goes last, after "--", so that it is not read as an option.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-m.json").write_text(json.dumps({"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}))
        direct = run_main(capsys, "snf", "--format", "json", "--", "-m.json")
        assert direct[0] == 0 and '"matrix": "-m.json"' in direct[1]
        assert run_batch(capsys, tmp_path, [{"command": "snf", "matrix": "-m.json", "format": "json"}]) == direct
        missing = "error: [Errno 2] No such file or directory: '--format=json'\n"
        assert run_batch(capsys, tmp_path, [{"command": "snf", "matrix": "--format=json"}]) == (2, "", missing)


# Characters of a long token: letters, a space, quotes and a backslash as
# argparse quotes them, and "-" and "=" as in options. No digit, so that no
# value converts, and no "/", so that an --out value of 256 or more characters
# names no file that can be made.
LONG_ALPHABET = "ab -='\"\\\u00e9"


def long_tokens(min_size):
    """Tokens of min_size to 5,000 characters, each a short piece repeated."""
    pieces = st.text(LONG_ALPHABET, min_size=1, max_size=6)
    return st.builds(lambda piece, size: (piece * size)[:size], pieces, st.integers(min_size, 5000))


def refused_areas():
    """Area values that need an integer past the 4,300-digit limit, each written in a few to 6,000 characters.

    Exponents of either sign from 4,300 to 10^7 or of 4,301 to 6,000 digits,
    runs of 4,301 to 6,000 digits, decimals of as many places, "/" forms with a
    long numerator or denominator, and digits grouped by underscores.
    """
    short = st.integers(1, 30).map(lambda k: "7" * k)
    run = st.integers(4301, 6000).map(lambda k: "9" * k)
    exponent = st.one_of(st.integers(4300, 10**7).map(str), run)
    return st.one_of(
        st.tuples(short, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), exponent).map("".join),
        st.tuples(short, st.just("."), short, st.just("e-"), exponent).map("".join),
        run,
        run.map(lambda digits: "0." + digits),
        st.tuples(run, short).map("/".join),
        st.tuples(short, run).map("/".join),
        st.integers(1434, 2000).map(lambda k: "_".join(["999"] * k)),
    )


AREA_COMMANDS = st.sampled_from(["example2", "kodaira-thurston"])


@st.composite
def long_command_lines(draw):
    """A command line with long tokens: unknown options, a command, strays, many at once, or an option's value."""
    parser = coverhom.cli._parser()
    command = draw(st.sampled_from(sorted(parser.commands)))
    valued = option_strings(command, flags=False)
    token, value = long_tokens(101), long_tokens(256)
    return draw(st.one_of(
        token.map(lambda t: ["--" + t]),
        st.tuples(token, token).map(lambda t: [command, f"--{t[0]}={t[1]}"]),
        token.map(lambda t: [t]),
        st.lists(token, min_size=1, max_size=40).map(lambda ts: [command, *ts]),
        st.tuples(st.sampled_from(valued), value).map(lambda ov: [command, *ov]),
        st.tuples(st.sampled_from(valued), value).map(lambda ov: [command, f"{ov[0]}={ov[1]}"]),
        st.tuples(AREA_COMMANDS, st.sampled_from(["--area1", "--area2"]), refused_areas()).map(list),
    ))


@st.composite
def long_batch_entries(draw):
    """A batch entry with long strings: the command, unknown keys, or the value of one of a command's keys."""
    parser = coverhom.cli._parser()
    command = draw(st.sampled_from(sorted(parser.commands)))
    keys = sorted(action.dest for action in declared(command))
    token, value = long_tokens(101), long_tokens(256)
    return draw(st.one_of(
        token.map(lambda t: {"command": t}),
        st.lists(token, min_size=1, max_size=40).map(lambda ts: {"command": command, **dict.fromkeys(ts, 1)}),
        st.tuples(st.sampled_from(keys), value).map(lambda kv: {"command": command, kv[0]: kv[1]}),
        st.tuples(AREA_COMMANDS, st.sampled_from(["area1", "area2"]), refused_areas()).map(
            lambda t: {"command": t[0], t[1]: t[2]}),
    ))


# The measured refusals of matrix files that once broke the one-line bound:
# an error line of 8,040 characters, the interpreter's digit-limit message,
# and a negative entry count.
NEGATIVE_ROWS = '{"rows": -%s, "cols": 2, "entries": [1]}' % ("9" * 4000)
NEGATIVE_SHAPE = '{"rows": -%s, "cols": -%s, "entries": [1]}' % ("9" * 4000, "9" * 4000)
NEGATIVE_COUNT = '{"rows": -3, "cols": 2, "entries": [1]}'


def integer_literals(max_digits):
    """JSON integer literals: small ones, and runs of nines up to max_digits, past the digit limit too."""
    long = st.builds(lambda sign, size: sign + "9" * size, st.sampled_from(["", "-"]), st.integers(1, max_digits))
    return st.one_of(st.integers(-3, 70).map(str), long)


def value_literals(max_digits):
    """JSON literals of every kind: integers, decimal strings, other strings, long ones, and the rest."""
    strings = st.one_of(st.text(max_size=12), long_tokens(101), st.integers(1, max_digits).map(lambda k: "7" * k))
    scalars = st.one_of(
        integer_literals(max_digits),
        strings.map(json.dumps),
        st.sampled_from(["true", "false", "null", "2.5", "-0.0", "1e400", "NaN", "-Infinity"]),
    )
    containers = st.lists(scalars, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
    return st.one_of(scalars, containers, containers.map(lambda array: '{"k": %s}' % array))


@st.composite
def matrix_files(draw):
    """The text of a matrix file: a shape its entries fill, small enough to run, or any shape and entries at all."""
    entry = st.one_of(st.integers(-9, 9).map(str), value_literals(4400))
    if draw(st.booleans()):
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        shape = {"rows": str(rows), "cols": str(cols)}
        entries = "[" + ", ".join(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))) + "]"
    else:
        shape = {key: draw(integer_literals(5000)) for key in ("rows", "cols")}
        if draw(st.integers(0, 3)) == 0:
            shape[draw(st.sampled_from(sorted(shape)))] = draw(value_literals(5000))
        arrays = st.lists(entry, max_size=8).map(lambda items: "[" + ", ".join(items) + "]")
        entries = draw(st.one_of(value_literals(5000), arrays))
    fields = {**shape, "entries": entries}
    kept = draw(st.sets(st.sampled_from(sorted(fields)), min_size=2)) if draw(st.integers(0, 9)) == 0 else fields
    return "{" + ", ".join(f'"{key}": {fields[key]}' for key in sorted(kept)) + "}"


# Path components: ".", a folder, names with spaces and quotes, names of up to
# 100 characters of any kind, control characters included, and long names.
# Never "..", and the path never starts with "/", so that each path stays
# within the folder it is run in.
PATH_PARTS = st.one_of(
    st.sampled_from([".", "a", "out.txt", "x y", "it's"]),
    st.text(st.characters(codec="utf-8", exclude_characters="/"), min_size=1, max_size=100),
    st.builds(lambda piece, size: (piece * size)[:size], st.text("\x01\x1b\x7f\t\n\\\u200b", min_size=1,
                                                                 max_size=3), st.integers(1, 100)),
    long_tokens(101),
).filter(lambda part: part != "..")


def out_paths():
    """An --out path of one to four components, at most 5,000 characters in all."""
    return st.lists(PATH_PARTS, min_size=1, max_size=4).map("/".join).filter(lambda path: len(path) <= 5000)


def broken_contract(result):
    """Why a run's (exit code, stdout, stderr) breaks the refusal contract, or None where it keeps it.

    The run exits 0 or 1, or it exits 2 with nothing on stdout, no stderr line
    longer than LINE_BOUND, exactly one error line, and no traceback.
    """
    code, _, err = result
    if code in (0, 1):
        return None
    errors = [line for line in err.splitlines() if "error: " in line]
    if len(errors) != 1 or "Traceback" in err:
        return f"{len(errors)} error lines in {err[:400]!r}"
    return argv_corpus.unbounded(result)


# The most seconds one refused command line or batch file may take. The
# slowest of the 506 examples below took 4.2 ms (median 0.42 ms), in-process
# under Python 3.11.7 on a shared 2-vCPU host; the bound leaves a wide margin
# for such a host. Before rationals were sized, `--area1 1e2000000` took 0.59 s
# and `--area1 1e20000000` 21 s.
REFUSAL_SECONDS = 0.25


class TestRefusalBound:
    """Every refusal exits 2 with one error line, and no stderr line longer than LINE_BOUND.

    The inputs are long command lines, batch entries, `snf` matrix files and
    `--out` paths. A matrix file or an --out path may also be read and run: the
    run then exits 0 or 1. A refused command line or batch entry, area values
    past the digit limit among them, also takes less than REFUSAL_SECONDS. A
    matrix file is not timed: a 6x6 matrix of 3,400-digit entries passes the
    snf budget and runs for seconds (ROADMAP item 4), so the matrix files that
    run are kept to 3x3.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(long_command_lines())
    @example(argv_corpus.LONG_REFUSALS[0])
    @example(argv_corpus.LONG_REFUSALS[1])
    @example(argv_corpus.LONG_REFUSALS[2])
    @example(argv_corpus.LONG_REFUSALS[3])
    @example(argv_corpus.LONG_REFUSALS[4])
    @example(["\\" * 300])
    def test_command_line(self, argv):
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            start = time.perf_counter()
            result = argv_corpus.refusal(argv)
            elapsed = time.perf_counter() - start
        assert argv_corpus.unbounded(result) is None and elapsed < REFUSAL_SECONDS

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(long_batch_entries())
    def test_batch_entry(self, entry):
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            with open("batch.json", "w") as fh:
                json.dump([entry], fh)
            start = time.perf_counter()
            result = argv_corpus.refusal(["--batch", "batch.json"])
            elapsed = time.perf_counter() - start
        assert argv_corpus.unbounded(result) is None and elapsed < REFUSAL_SECONDS
        assert result[2].startswith("error: ") and result[2].count("\n") == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrix_files(), st.sampled_from(["table", "json"]))
    @example(NEGATIVE_ROWS, "table")
    @example(NEGATIVE_SHAPE, "table")
    @example(NEGATIVE_COUNT, "table")
    def test_matrix_file(self, text, fmt):
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            with open("m.json", "w") as fh:
                fh.write(text)
            assert broken_contract(argv_corpus.refusal(["snf", "--format", fmt, "m.json"])) is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(out_paths(), st.sampled_from(["option", "equals", "batch"]))
    @example("\x01" * 95 + "/x", "option")  # once a line of 428 characters: each \x01 quoted as four
    def test_out_path(self, path, form):
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            os.mkdir("a")
            if form == "batch":
                with open("batch.json", "w") as fh:
                    entry = {"command": "kollar", "omega_pullback": True, "target_pi2_trivial": True, "out": path}
                    json.dump([entry], fh)
                argv = ["--batch", "batch.json"]
            else:
                argv = ["tower7", *(["--out", path] if form == "option" else [f"--out={path}"])]
            assert broken_contract(argv_corpus.refusal(argv)) is None

    def test_parent_cases_bounded_by_length(self, capsys):
        # Each long token is given by its length; the two lines of many tokens are cut.
        lines = [run_main(capsys, *argv)[2].splitlines()[-1] for argv in argv_corpus.LONG_REFUSALS]
        assert lines[0] == "coverhom: error: unrecognized arguments: <3002 characters>"
        # Python 3.13 no longer quotes the choices.
        assert lines[1].startswith("coverhom: error: argument command: invalid choice: <3000 characters> (choose ")
        assert lines[2] == "coverhom: error: unrecognized arguments: <3000 characters>"
        for line in lines[3:]:
            assert line.startswith("coverhom: error: unrecognized arguments: ") and line.endswith(" ...")
            assert len(line) == len("coverhom: error: ") + coverhom.cli.REFUSAL_CHARS


class TestRationalLimit:
    """An area is read by `errors.rational`, and refused past the digit limit before it is built."""

    @pytest.mark.parametrize(
        "area, size",
        [("1e5000", 5001), ("1e2000000", 2000001), ("1e20000000", 20000001), ("1e-2000000", 2000001)],
    )
    def test_long_exponent_refused_in_milliseconds(self, capsys, tmp_path, area, size):
        # Each once built 10**exponent while its command line was read, for 0.04 s, 0.58 s and 21 s (the
        # first three), and then exited 2 with the interpreter's bare digit-limit line.
        line = f"argument --area1: rational '{area}' needs an integer of {size} digits, above the limit of 4300 digits"
        start = time.perf_counter()
        code, out, err = run_main(capsys, "example2", "--area1", area)
        assert time.perf_counter() - start < REFUSAL_SECONDS
        assert (code, out) == (2, "") and err.splitlines()[-1] == f"coverhom example2: error: {line}"
        start = time.perf_counter()
        result = run_batch(capsys, tmp_path, [{"command": "example2", "area1": area}])
        assert time.perf_counter() - start < REFUSAL_SECONDS
        assert result == (2, "", f"error: batch entry 0 rejected: example2: {line}\n")

    @pytest.mark.parametrize(
        "area, shown, size",
        [
            ("9" * 4301, "<4301 characters>", 4301),
            ("1e4300", "'1e4300'", 4301),
            ("1e-4300", "'1e-4300'", 4301),
            ("0." + "7" * 4300, "<4302 characters>", 4301),
            ("1/" + "7" * 4301, "<4303 characters>", 4301),
            ("1_0" * 2200 + "e+300", "<6605 characters>", 4400 + 300),
            ("1e" + "9" * 4301, "<4303 characters>", 4301),
            ("\u0669" * 4301, "<4301 characters>", 4301),
            ("9" * 4301 + "e-1", "<4304 characters>", 4301),
        ],
        ids=["digits", "exponent", "negative-exponent", "decimal", "denominator", "underscores", "exponent-digits",
             "arabic-indic-digits", "digits-and-negative-exponent"],
    )
    def test_each_form_sized_to_the_digit(self, capsys, area, shown, size):
        # The numerator and the denominator before cancelling, or an exponent by its own digits.
        code, out, err = run_main(capsys, "kodaira-thurston", f"--area2={area}")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (f"coverhom kodaira-thurston: error: argument --area2: rational {shown} "
                                        f"needs an integer of {size} digits, above the limit of 4300 digits")

    @pytest.mark.parametrize(
        "area",
        argv_corpus.AREAS,
        ids=["4299-nines", "4300-nines", "exponent", "negative-exponent", "decimal", "places", "fraction",
             "underscores", "signed", "point-first"],
    )
    def test_area_within_the_limit_runs(self, capsys, area):
        code, out, err = run_main(capsys, "example2", "--area1", area, "-d", "1000", "--m1", "50", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["parameters"]["area1"] == coverhom.reportio.encode_fraction(Fraction(area))

    def test_rule_reads_the_corpus_as_fraction_does(self):
        texts = argv_corpus.AREAS + argv_corpus.NEAR_MISSES
        assert [f"{echoed(text)}: {why}" for text in texts if (why := argv_corpus.misread(text))] == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.from_regex(coverhom.errors._RATIONAL, fullmatch=True),
                     st.lists(st.sampled_from(argv_corpus.NEAR_MISSES), max_size=4).map("".join)))
    def test_rule_reads_as_fraction_does(self, text):
        # Texts of the rule's own grammar, and runs of near misses. The same value as the running Fraction, or a
        # refusal where it refuses; before 3.12, Fraction alone refuses white space around "/" (argv_corpus.misread).
        assert argv_corpus.misread(text) is None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.from_regex(r"[-+]?(\d{1,3}(_\d{1,3}){0,2})?(/\d{1,4}|(\.\d{0,4})?([eE][-+]?\d{1,2})?)", fullmatch=True),
           st.integers(1, 8))
    @example("1_239e-1", 3)  # once admitted: a negative exponent was taken off the numerator's digits
    def test_admitted_text_builds_no_longer_integer(self, text, limit):
        # Held to a limit of `limit` digits, a text the rule admits gives a rational of no more digits.
        with unittest.mock.patch.object(coverhom.errors, "digit_limit", lambda: limit):
            try:
                value = coverhom.errors.rational(text)
            except DomainError:
                return
        assert max(len(str(abs(value.numerator))), len(str(value.denominator))) <= limit


class TestErrorBoundary:
    HUGE = "1" + "0" * 5000

    def assert_one_line_usage_error(self, result):
        code, _, err = result
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_huge_integer_in_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [%s]}' % self.HUGE)
        self.assert_one_line_usage_error(run_main(capsys, "snf", str(path)))

    @pytest.mark.parametrize(
        "entry, fragment",
        [
            (list(range(100000)), "entry 1 must be an integer or a decimal string, got an array of length 100000"),
            ({"n": 1}, 'got {"n": 1}'),
            ("x" * 100000, "got a string of 100000 characters"),
            ("12x", 'got "12x"'),
            ("1_0", 'got "1_0"'),
            ("  12  ", 'got "  12  "'),
            ("+12", 'got "+12"'),
            ("-", 'got "-"'),
            ("", 'got ""'),
            ("\u0661\u0662", 'got "\\u0661\\u0662"'),
            ("\uff11\uff12", 'got "\\uff11\\uff12"'),
            (True, "got true"),
            (None, "got null"),
            (0.5, "got 0.5"),
        ],
        ids=["long-array", "object", "long-string", "bad-digits", "underscore", "white-space", "plus-sign",
             "sign-only", "empty", "arabic-indic-digits", "fullwidth-digits", "bool", "null", "float"],
    )
    def test_bad_matrix_entry_is_named_by_index_and_type(self, capsys, tmp_path, entry, fragment):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [0, entry]}))
        result = run_main(capsys, "snf", str(path))
        self.assert_one_line_usage_error(result)
        assert len(result[2].encode()) <= 300
        assert fragment in result[2]

    def test_huge_integer_in_batch_file(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text('[{"command": "example2", "m1": %s}]' % self.HUGE)
        self.assert_one_line_usage_error(run_main(capsys, "--batch", str(path)))

    @pytest.mark.parametrize(
        "command, text, fragment",
        [
            ("--batch", '[{"command": "example2", "m1": 1%s}]' % ("0" * 5000),
             "'{path}' holds an integer literal of 5001 digits, above the limit of 4300 digits\n"),
            ("snf", '{"rows": 1, "cols": 1, "entries": [1%s]}' % ("0" * 5000),
             "'{path}' holds an integer literal of 5001 digits, above the limit of 4300 digits\n"),
            ("snf", '{"rows": 1, "cols": 1, "entries": ["1%s"]}' % ("0" * 5000), "5001 digits, above the limit"),
            ("--batch", '[{"command": "kollar"', "'{path}' is not valid JSON: Expecting"),
            ("snf", '{"rows": 1, "cols"', "'{path}' is not valid JSON: Expecting"),
            ("snf", "[" * 100000, "'{path}' nests its JSON too deeply"),
            ("snf", "\xff[", "'{path}' is not"),
        ],
        ids=["batch-digits", "matrix-digits", "matrix-string-digits", "batch-truncated", "matrix-truncated",
             "matrix-deep", "matrix-not-utf8"],
    )
    def test_json_input_errors_name_the_file(self, capsys, tmp_path, command, text, fragment):
        path = tmp_path / "input.json"
        path.write_bytes(text.encode("latin-1"))
        code, out, err = run_main(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 300
        assert fragment.format(path=path) in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("d", [10**6, 10**30])
    @pytest.mark.parametrize("command", ["example2", "kodaira-thurston"])
    def test_huge_degree_runs_in_bounded_time(self, capsys, tmp_path, command, d):
        # The chain is one vertex and a length, ranked by its continuant: no degree limit.
        bound = str(d * d * (d - 1))
        start = time.perf_counter()
        code, out, err = run_main(capsys, command, "-d", str(d))
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "") and bound in out and "result: PASS" in out
        start = time.perf_counter()
        code, out, err = run_batch(capsys, tmp_path, [{"command": command, "d": d, "format": "json"}])
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "") and json.loads(out)["invariants"]["pi_lower_bound"] == bound

    @pytest.mark.parametrize("command", ["example2", "kodaira-thurston"])
    def test_degree_past_the_digit_limit_refused(self, capsys, tmp_path, command):
        d = 10**1440
        start = time.perf_counter()
        result = run_main(capsys, command, "-d", str(d))
        assert time.perf_counter() - start < 0.5
        self.assert_one_line_usage_error(result)
        assert len(result[2].encode()) < 300 and "give report integers of up to" in result[2]
        # The same run as a batch entry stops the batch before the first entry writes.
        first = tmp_path / "first.json"
        result = run_batch(capsys, tmp_path, [{"command": "example2", "out": str(first)}, {"command": command, "d": d}])
        self.assert_one_line_usage_error(result)
        assert "give report integers of up to" in result[2]
        assert not first.exists()

    @pytest.mark.parametrize("command", ["tower7", "catalog"])
    def test_tower_degree_past_the_digit_limit_refused(self, capsys, tmp_path, command):
        # d has 4,300 digits, within the limit; stage 2's Euler characteristic 8*d has 4,301.
        d = "9" * 4300
        start = time.perf_counter()
        result = run_main(capsys, command, "-d", d)
        assert time.perf_counter() - start < 0.5
        self.assert_one_line_usage_error(result)
        assert result[2].startswith(f"error: {command}: d gives report integers of up to ")
        assert f"limit of {sys.get_int_max_str_digits()} digits" in result[2] and len(result[2]) < 200
        # The same run as the second batch entry stops the batch before the first entry writes.
        first = tmp_path / "first.json"
        result = run_batch(capsys, tmp_path, [{"command": "example2", "out": str(first)}, {"command": command, "d": int(d)}])
        self.assert_one_line_usage_error(result)
        assert result[2].startswith(f"error: {command}: d gives report integers of up to ")
        assert not first.exists()
        # A degree whose report stays within the limit runs.
        d = 10**4000
        code, out, err = run_main(capsys, command, "-d", str(d))
        assert (code, err) == (0, "") and str(d) in out
        # At the limit: 8*d has exactly as many digits as may be printed, and one more refuses the run.
        limit = sys.get_int_max_str_digits()
        d = (10**limit - 1) // 8
        code, out, err = run_main(capsys, command, "-d", str(d))
        assert (code, err) == (0, "") and str(d) in out
        result = run_main(capsys, command, "-d", str(d + 1))
        self.assert_one_line_usage_error(result)
        assert f"report integers of up to {limit + 1} digits, above the limit of {limit} digits" in result[2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["example2", "-d", HUGE], "error: example2: g1, g2, m1, m2 and d give report integers of up to "),
            (["tower7", "-d", HUGE], "error: tower7: d gives report integers of up to "),
            (["snf", "m.json"], "error: matrix entry 0: integer string of 5001 digits, "),
            (["snf", "literal.json"], "error: matrix file 'literal.json' holds an integer literal of 300000 digits, "),
            (["--batch", "batch.json"], "error: batch file 'batch.json' holds an integer literal of 300000 digits, "),
            (["--batch", "area.json"], "error: batch entry 0 rejected: example2: argument --area1: rational "),
        ],
        ids=["example2", "tower7", "snf", "snf-literal", "batch-literal", "batch-area"],
    )
    def test_bounds_hold_with_the_digit_limit_off(self, tmp_path, argv, message):
        # With the interpreter's limit off, its default still bounds the digits read and printed,
        # JSON integer literals of 300,000 digits and an area of 4,301 digits included.
        (tmp_path / "m.json").write_text(json.dumps({"rows": 1, "cols": 1, "entries": [self.HUGE]}))
        literal = "9" * 300_000
        (tmp_path / "literal.json").write_text(f'{{"rows": 1, "cols": 1, "entries": [{literal}]}}')
        (tmp_path / "batch.json").write_text(f'[{{"command": "example2", "d": {literal}}}]')
        (tmp_path / "area.json").write_text(json.dumps([{"command": "example2", "area1": "9" * 4301}]))
        src = os.path.dirname(os.path.dirname(coverhom.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="0")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "coverhom", *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
        )
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
        assert f"above the limit of {sys.int_info.default_max_str_digits} digits" in proc.stderr

    def test_bounds_accept_every_listable_grid(self, capsys):
        # The sphere count m1*m2*d^2*(d-1) has no limit of its own: 201,898 and 200,004 spheres.
        assert run_main(capsys, "example2", "-d", "59")[0] == 0
        assert run_main(capsys, "kodaira-thurston", "--m1", "50001", "-d", "2")[0] == 0
        # Nor has the degree.
        assert run_main(capsys, "example2", "-d", "101")[0] == 0

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("m1, m2", [(1, 1), (10**6, 10**6), (10**12, 1)])
    def test_large_multiplicities_run_in_bounded_time(self, capsys, tmp_path, m1, m2, fmt):
        # Branch components are counted, not listed, so no multiplicity limit is needed.
        bound = str(m1 * m2 * 4)
        start = time.perf_counter()
        code, out, err = run_main(capsys, "example2", "--m1", str(m1), "--m2", str(m2), "-d", "2", "--format", fmt)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "") and bound in out
        entries = [{"command": c, "m1": m1, "m2": m2, "d": 2, "format": fmt} for c in ("example2", "kodaira-thurston")]
        start = time.perf_counter()
        code, out, err = run_batch(capsys, tmp_path, entries)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "") and out.count(bound) >= 2

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_multiplicities_past_int_str_limit_refused(self, capsys, fmt):
        # 3,001 digits each: the bound m1*m2*d^2*(d-1) has 6,002, past the 4,300-digit str() limit.
        big = str(10**3000)
        start = time.perf_counter()
        result = run_main(capsys, "example2", "--m1", big, "--m2", big, "-d", "2", "--format", fmt)
        assert time.perf_counter() - start < 0.5
        self.assert_one_line_usage_error(result)
        # The message gives sizes, not values.
        assert len(result[2].encode()) < 300 and "set_int_max_str_digits" not in result[2]
        assert "give report integers of up to 6002 digits" in result[2]
        # One such multiplicity alone stays within the limit.
        code, out, err = run_main(capsys, "example2", "--m1", big, "-d", "101", "--format", fmt)
        assert (code, err) == (0, "") and str(10**3000 * 101 * 101 * 100) in out

    @pytest.mark.parametrize(
        "entry, names",
        [
            ({"command": "example2", "m1": 10**3000, "m2": 10**3000}, "g1, g2, m1, m2 and d"),
            ({"command": "example2", "g1": 10**3000, "g2": 10**3000}, "g1, g2, m1, m2 and d"),
            ({"command": "kodaira-thurston", "m1": 10**3000, "m2": 10**3000}, "m1, m2 and d"),
        ],
    )
    def test_report_past_int_str_limit_refused_before_batch_runs(self, capsys, tmp_path, entry, names):
        first = tmp_path / "first.json"
        result = run_batch(capsys, tmp_path, [{"command": "example2", "out": str(first)}, entry])
        self.assert_one_line_usage_error(result)
        assert names in result[2]
        assert f"limit of {sys.get_int_max_str_digits()} digits" in result[2]
        assert "set_int_max_str_digits" not in result[2]
        assert not first.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--m1", "1" * 5001), ("-d", "x" * 5001)],
        ids=["digits", "characters"],
    )
    def test_long_integer_option_named_by_its_length(self, capsys, option, value):
        # Past the digit limit int() refuses the value, and argparse's refusal gives its length.
        code, out, err = run_main(capsys, "example2", option, value)
        assert (code, out) == (2, "")
        assert err.startswith("usage: coverhom example2 [-h]")
        assert err.endswith(f"\ncoverhom example2: error: argument {option}: invalid int value: <5001 characters>\n")
        assert len(err.encode()) < 400

    @pytest.mark.parametrize("command", ["example2", "kodaira-thurston", "tower7", "catalog"])
    def test_long_refused_degree_named_by_its_digits(self, capsys, tmp_path, command):
        d = -int("9" * 4000)
        word = "tower" if command in ("tower7", "catalog") else "cover"
        message = f"error: {word} degree must be at least 2, got a negative integer of 4000 digits\n"
        assert run_main(capsys, command, "-d", str(d)) == (2, "", message)
        assert run_batch(capsys, tmp_path, [{"command": command, "d": d}]) == (2, "", message)
        # A short one is echoed.
        assert run_main(capsys, command, "-d", "-5")[2] == f"error: {word} degree must be at least 2, got -5\n"

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("", "''"),
            ("m.json", "'m.json'"),
            ("x" * 100, repr("x" * 100)),
            ("x" * 101, "<101 characters>"),
            ("it's", '"it\'s"'),
            ("\\" * 50, repr("\\" * 50)),
            ("\\" * 51, "<51 characters>"),
            ("\x01" * 25, repr("\x01" * 25)),
            ("\x01" * 26, "<26 characters>"),
            ("\u00e9" * 100, repr("\u00e9" * 100)),
            ("\u00e9" * 100000, "<100000 characters>"),
        ],
        ids=["empty", "short", "at-bound", "past-bound", "quote", "backslashes-at-bound", "backslashes-past-bound",
             "control-at-bound", "control-past-bound", "letters-at-bound", "long"],
    )
    def test_echoed_quotes_short_text_and_sizes_long_text(self, text, shown):
        # The quoted form is bounded, an escape counted in full; N counts the text's characters.
        assert echoed(text) == shown

    def test_echoed_value_gives_json_text_or_kind_and_size(self):
        # The JSON text up to ECHOED characters, quotes and an int's sign included.
        table = [
            (0, "0"),
            (10**100 - 1, "9" * 100),
            (-(10**99 - 1), "-" + "9" * 99),
            (10**100, "an integer of 101 digits"),
            (-(10**99), "a negative integer of 100 digits"),
            (True, "true"),
            (None, "null"),
            (2.5, "2.5"),
            ("yes", '"yes"'),
            ("\u0661", '"\\u0661"'),
            ("x" * 98, '"' + "x" * 98 + '"'),
            ("x" * 99, "a string of 99 characters"),
            ([1, 2], "[1, 2]"),
            ([10] + [1] * 32, "[10, " + ", ".join(["1"] * 32) + "]"),
            ([10] + [1] * 33, "an array of length 34"),
            ({"p": None}, '{"p": null}'),
            ({str(k): k for k in range(20)}, "an object of length 20"),
        ]
        # A long int is sized by its digits, never through str() past the digit limit.
        for k in (101, 333, 1000, 4300, 5000, 20000):
            table += [(10**k - 1, f"an integer of {k} digits"), (-(10**k), f"a negative integer of {k + 1} digits")]
        # Powers of two sit at the ends of the bit-length estimate.
        for b in range(333, 14000, 97):
            table += [(n, f"an integer of {len(str(n))} digits") for n in (2**b - 1, 2**b, 2**b + 1)]
        for value, shown in table:
            assert echoed_value(value) == shown

    @pytest.mark.parametrize(
        "value, shown",
        [
            (2.5, "2.5"),
            (True, "True"),
            (Fraction(3, 2), "Fraction(3, 2)"),
            ("x", "'x'"),
            (10**99, "1" + "0" * 99),
            (10**100, "<int of 101 digits>"),
            (-(10**99), "<int of 100 digits>"),
            (Fraction(10**5000, 3), "<Fraction of 5001/1 digits>"),
            (Fraction(1, 10**5000), "<Fraction of 1/5001 digits>"),
            ([1] * 50, "<list>"),
        ],
        ids=["float", "bool", "fraction", "text", "int-at-bound", "int-past-bound", "negative-past-bound",
             "fraction-past-digit-limit", "denominator-past-digit-limit", "list"],
    )
    def test_echoed_shows_a_short_repr_and_sizes_a_long_value(self, value, shown):
        # A number is sized by its digits before any repr(), which raises past the digit limit.
        assert echoed(value) == shown

    def test_admit_words_every_size_refusal_alike(self):
        admit("matrix has", 64, 64, "rows")
        for size, shown in [(65, "65"), (10**200, "an integer of 201 digits")]:
            with pytest.raises(DomainError) as caught:
                admit("matrix has", size, 64, "rows")
            assert str(caught.value) == f"matrix has {shown} rows, above the limit of 64 rows"

    def test_short_bad_integer_option_keeps_the_parser_message(self, capsys):
        code, out, err = run_main(capsys, "example2", "--m1", "12x")
        assert (code, out) == (2, "")
        assert err.startswith("usage: coverhom example2 [-h]")
        assert err.endswith("\ncoverhom example2: error: argument --m1: invalid int value: '12x'\n")

    def test_failed_internal_check_is_verification_failure(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(IntMatrix.from_rows([(2, 4), (6, 8)]))))
        # snf checks that u*a*v equals d; a check that finds them apart fails the run.
        monkeypatch.setattr(coverhom.intlinalg, "_recomposes", lambda u, a, v, d: False)
        code, out, err = run_main(capsys, "snf", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "does not recompose" in err


    @pytest.mark.parametrize("option", ["--area1", "--format"])
    def test_long_option_value_named_by_its_length(self, capsys, option):
        code, out, err = run_main(capsys, "example2", option, "x" * 5000)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000 and "<5000 characters>" in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["\\" * 300], "<300 characters>"),
            (["catalog", "--format", "\x01" * 101], "<101 characters>"),
            (["catalog", "--format", "\\" * 100], repr("\\" * 100)),
        ],
        ids=["backslashes", "control-characters", "backslashes-at-bound"],
    )
    def test_quoted_value_sized_by_its_characters(self, capsys, argv, shown):
        # argparse quotes a value by repr; each escape in it is one character of the value.
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert f": invalid choice: {shown} (choose from " in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "text, line",
        [
            (NEGATIVE_ROWS, "error: matrix dimensions must be nonnegative\n"),
            (NEGATIVE_SHAPE, "error: matrix dimensions must be nonnegative\n"),
            (NEGATIVE_COUNT, "error: matrix dimensions must be nonnegative\n"),
            ('{"rows": 1, "cols": 1, "entries": %s}' % ([7] * 100000),
             "error: 1x1 matrix needs 1 entries, got 100000\n"),
        ],
        ids=["negative-rows", "negative-shape", "negative-count", "too-many-entries"],
    )
    def test_matrix_shape_checked_once(self, capsys, tmp_path, text, line):
        # IntMatrix checks the shape, then the entry count; the reader checks neither again.
        path = tmp_path / "m.json"
        path.write_text(text)
        assert run_main(capsys, "snf", str(path)) == (2, "", line)

    @pytest.mark.parametrize(
        "option, fragment",
        [("--area1", "must be a rational like 3/2, got 'abc'"), ("--format", "invalid choice: 'abc' (choose from ")],
    )
    def test_short_bad_option_value_is_echoed(self, capsys, option, fragment):
        # The error line is the running argparse's own: Python 3.13 no longer quotes the choices.
        sp = coverhom.cli._parser().commands["example2"]
        action = next(action for action in sp._actions if option in action.option_strings)
        with pytest.raises(argparse.ArgumentError) as refused:
            sp._get_values(action, ["abc"])
        code, out, err = run_main(capsys, "example2", option, "abc")
        assert (code, out) == (2, "")
        assert err.startswith("usage: coverhom example2 [-h]")
        assert err.endswith(f"\ncoverhom example2: error: {refused.value}\n") and fragment in err

    @pytest.mark.parametrize(
        "key, shown",
        [
            ("area1", "<100000 characters>"),
            ("area2", "<100000 characters>"),
            ("format", "<100000 characters>"),
            ("d", "a string of 100000 characters"),
        ],
        ids=["area1", "area2", "format", "d"],
    )
    def test_long_batch_value_named_by_its_length(self, capsys, tmp_path, key, shown):
        # argparse refuses the first three; a string for d is refused as a JSON value.
        result = run_batch(capsys, tmp_path, [{"command": "example2", key: "x" * 100000}])
        self.assert_one_line_usage_error(result)
        assert len(result[2].encode()) < 300 and shown in result[2]

    @pytest.mark.parametrize("where", ["out", "batch-out", "matrix"])
    def test_long_file_name_named_by_its_length(self, capsys, tmp_path, where):
        name = "x" * (100000 if where == "batch-out" else 5000)
        if where == "out":
            result = run_main(capsys, "example2", "--out", name)
        elif where == "batch-out":
            result = run_batch(capsys, tmp_path, [{"command": "example2", "out": name}])
        else:
            result = run_main(capsys, "snf", name)
        self.assert_one_line_usage_error(result)
        assert len(result[2].encode()) < 300
        assert result[2].startswith("error: [Errno ") and result[2].endswith(f": <{len(name)} characters>\n")

    def test_long_path_of_a_malformed_file_named_by_its_length(self, capsys, tmp_path):
        folder = tmp_path / ("a" * 60) / ("b" * 60)
        folder.mkdir(parents=True)
        path = folder / "m.json"
        path.write_text("[")
        result = run_main(capsys, "snf", str(path))
        self.assert_one_line_usage_error(result)
        assert result[2].startswith(f"error: matrix file <{len(str(path))} characters> is not valid JSON")

    def test_short_file_name_reads_as_before(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["snf", "missing.json"], ["example2", "--out", "no/such/dir.txt"]):
            code, out, err = run_main(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 2] No such file or directory: {argv[-1]!r}\n"

    @pytest.mark.parametrize(
        "keys, shown",
        [
            (["x" * 100000], "[<100000 characters>]"),
            ([f"k{i}" for i in range(10000)], "['k0', 'k1', 'k10', ...]"),
            (["zz", "aa"], "['aa', 'zz']"),
            (["\x01" * 100, "\x02" * 100, "\x03" * 100], "[<100 characters>, <100 characters>, <100 characters>]"),
        ],
        ids=["long-key", "many-keys", "short-keys", "escaped-keys"],
    )
    def test_unknown_batch_keys_echoed_briefly(self, capsys, tmp_path, keys, shown):
        result = run_batch(capsys, tmp_path, [{"command": "example2", **dict.fromkeys(keys, 1)}])
        self.assert_one_line_usage_error(result)
        assert result[2] == f"error: batch entry 0: unknown keys {shown}\n"


class TestLibraryCommands:
    def test_cmd_example2(self):
        doc = run_command("example2", "--m1", "2", "--m2", "2", "-d", "3")
        assert all_pass(doc)
        assert doc["invariants"]["pi_lower_bound"] == 72

    def test_cmd_tower7(self):
        doc = run_command("tower7", "-d", "3")
        assert all_pass(doc)
        assert doc["stages"][1]["pairings"][0]["c1"] == -4

    def test_cmd_catalog(self):
        doc = run_command("catalog", "-d", "2")
        assert all_pass(doc)
        assert len(doc["entries"]) == 4
        assert all(v["pass"] for v in doc["verdicts"])

    def test_cmd_snf_missing_path(self, capsys, tmp_path):
        assert run_main(capsys, "snf")[0] == 2
        with pytest.raises(OSError):
            run_command("snf", str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "argv",
        [["example2", "-d", "3"], ["kodaira-thurston", "--m1", "2", "-d", "3"], ["tower7", "-d", "3"], ["catalog"]],
    )
    def test_reports_build_without_smith_form(self, monkeypatch, argv):
        # Only the snf command runs a Smith decomposition.
        def refused(a):
            raise AssertionError("snf called by a report")

        monkeypatch.setattr(coverhom.intlinalg, "snf", refused)
        assert not hasattr(coverhom.cover, "snf")
        assert all_pass(run_command(*argv))

    def test_failed_stage_verdict_fails_result(self):
        doc = run_command("tower7", "-d", "2")
        assert all_pass(doc)
        doc["stages"][1]["verdicts"][0]["pass"] = False
        assert not all_pass(doc)


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "coverhom", "example2", "-d", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["invariants"]["pi_lower_bound"] == 4
