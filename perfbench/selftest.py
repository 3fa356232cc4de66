"""Smoke-size self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

For every workload it makes a tiny untraced run and two tiny traced runs
with the same seed, and asserts that every metric is present with its unit,
that no job failed, and that the traced counts repeat exactly. It then
checks that BENCHMARK.json names the same metrics as run.py, that the
compare mode reads the recorded runs, that an output check rejects a wrong
report, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

JOBS = 3


def _run(workload: str, trace: int, record: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--jobs", str(JOBS), "--record", record],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def _is_count(name: str) -> bool:
    return not name.endswith("_s")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        record = os.path.join(scratch, "runs.jsonl")
        for workload in workloads.WORKLOADS:
            code, res = _run(workload, 0, record)
            assert code == 0 and res is not None, f"{workload}: untraced run failed"
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= JOBS, res
            assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END), res["metrics"]
            assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]
            traced = []
            for _ in range(2):
                code, res = _run(workload, 1, record)
                assert code == 0 and res is not None and res["correct"], f"{workload}: traced run failed"
                assert {k: v["unit"] for k, v in res["metrics"].items()} == {n: u for n, u, _ in run.PER_LAYER}
                traced.append({k: v["value"] for k, v in res["metrics"].items() if _is_count(k)})
            assert traced[0] == traced[1], f"{workload}: traced counts differ between runs"
            print(f"ok  {workload}")

        import compare

        assert compare.main(record, record, os.path.join(ROOT, "BENCHMARK.json")) == 0

        # A wrong invariant in a generated job's report must be caught.
        job = workloads.pass_jobs("grid-covers", 7, 0, scratch, 1)[0]
        good = {"invariants": {"euler_characteristic": 0, "b1": None, "pi_lower_bound": 0},
                "verdicts": [{"name": "v", "pass": True}],
                "findings": {"omega_on_spherical_classes": "zero", "c1_on_spherical_classes": "zero"}}
        good["invariants"].update(checks._expected_grid(job["outputs"][0]))
        assert checks.check_output(dict(job["outputs"][0], format="json"), json.dumps(good)) is None
        good["invariants"]["pi_lower_bound"] += 1
        assert checks.check_output(dict(job["outputs"][0], format="json"), json.dumps(good)) is not None
        print("ok  compare mode and output checks")

        # Without the package sources the benchmark must refuse, printing no result.
        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, res = _run("grid-covers", 0, os.path.join(scratch, "bare.jsonl"), cwd=bare)
        assert code != 0 and res is None, "benchmark ran without the package sources"
        print("ok  refuses to run without src/coverhom")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
