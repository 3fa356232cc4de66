"""One benchmark run inside a fresh interpreter: import, run passes, check.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. Jobs go
to `coverhom.cli.main(argv)` one after another (a closed loop with one
client). Each job's standard output is caught in memory and saved to a file
after its timer stops; checks read those files only after the last pass, so
they inflate no measured figure. Peak memory is read after pass 0.

Every time is reported scaled to a reference speed (see speed.py); the raw
seconds are kept beside the scaled ones.

Untraced runs (`--trace 0`) run passes 0, 1, 2, ... until `--seconds` have
passed. Traced runs repeat pass 0 untraced for half of `--seconds`, then run
pass 0 once more with every public function of the package wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import checks
import workloads
from speed import Speedometer


def _write_inputs(jobs: list[dict]) -> None:
    for job in jobs:
        for path, text in job["files"].items():
            with open(path, "w") as fh:
                fh.write(text)


def _run_pass(cli, jobs: list[dict], pass_dir: str, meter: Speedometer | None, tracer=None) -> list[dict]:
    """Run every job once; return one record per job with its start, latency and exit.

    The reference task runs between jobs (never inside a timed call), unless
    meter is None.

    The records name the pass's job file instead of holding the jobs, so the
    worker's own memory does not grow with the number of passes.
    """
    jobs_path = os.path.join(pass_dir, "jobs.json")
    if not os.path.exists(jobs_path):
        with open(jobs_path, "w") as fh:
            json.dump(jobs, fh)
    records = []
    for i, job in enumerate(jobs):
        if meter:
            meter.sample()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except Exception:
                code = None
                error = traceback.format_exc().strip().splitlines()[-1]
            latency = time.perf_counter() - start
        stdout_path = os.path.join(pass_dir, f"j{i}.stdout")
        with open(stdout_path, "w") as fh:
            fh.write(out.getvalue())
        if error is None and code != 0:
            error = f"exit {code}: {err.getvalue().strip()[:200]}"
        records.append({"jobs": jobs_path, "index": i, "entries": len(job["outputs"]), "batch": job["argv"][0] == "--batch",
                        "code": code, "start": start, "latency": latency, "error": error, "stdout": stdout_path})
    if meter:
        meter.sample(force=True)
    return records


def _check_outputs(job: dict, record: dict) -> list[str]:
    """One reason per output of the job that fails its check."""
    reasons = []
    for spec in job["outputs"]:
        path = spec["out"] or record["stdout"]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError:
            text = None
        reason = checks.check_output(spec, text)
        if reason:
            reasons.append(f"{spec['command']}: {reason}")
    return reasons


def _output_bytes(jobs: list[dict], records: list[dict]) -> int:
    total = 0
    for job, rec in zip(jobs, records):
        for spec in job["outputs"]:
            path = spec["out"] or rec["stdout"]
            if os.path.exists(path):
                total += os.path.getsize(path)
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args()

    start = time.perf_counter()
    import coverhom.cli as cli

    import_end = time.perf_counter()
    meter = Speedometer()

    def make_pass(index: int) -> tuple[list[dict], str]:
        pass_dir = os.path.join(args.work, f"p{index}")
        os.makedirs(pass_dir, exist_ok=True)
        jobs = workloads.pass_jobs(args.workload, args.seed, index, pass_dir, args.jobs)
        _write_inputs(jobs)
        return jobs, pass_dir

    passes: list[list[dict]] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    t0 = time.perf_counter()
    index = 0
    first = None
    while not passes or time.perf_counter() - t0 < budget:
        if args.trace:
            first = first or make_pass(0)
            jobs, pass_dir = first
        else:
            jobs, pass_dir = make_pass(index)
        if passes:
            passes.append(_run_pass(cli, jobs, pass_dir, meter))
        else:
            # Peak memory is read after pass 0, which runs before any
            # reference task: the task's few megabytes would otherwise set
            # the peak on workloads whose jobs need less.
            passes.append(_run_pass(cli, jobs, pass_dir, None))
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for _ in range(3):
                meter.sample(force=True)
        index += 1

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        jobs, pass_dir = first
        traced = _run_pass(cli, jobs, pass_dir, meter, tracer)

    # Scale every time to the reference machine (see speed.py).
    for rec in [r for p in passes for r in p] + (traced if args.trace else []):
        rec["scaled"] = rec["latency"] * meter.scale(rec["start"], rec["start"] + rec["latency"])
    walls = [sum(r["scaled"] for r in p) for p in passes]
    executed = [r for p in passes for r in p]
    result = {
        "pass_walls": walls,
        "raw_pass_walls": [sum(r["latency"] for r in p) for p in passes],
        "latencies": [r["scaled"] for r in executed],
        "reference_s": statistics.median(meter.samples),
    }
    if args.trace:
        executed.extend(traced)
        scale = meter.scale(traced[0]["start"], traced[-1]["start"] + traced[-1]["latency"])
        layers = {k: v * scale if k.endswith("_s") else v for k, v in tracer.layer_metrics().items()}
        layers["cli.import_s"] = (import_end - start) * meter.scale(start, import_end)
        layers["trace.wall_s"] = sum(r["scaled"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        layers["reportio.bytes_out"] = _output_bytes(jobs, traced)
        layers["cli.batch.entries"] = sum(r["entries"] for r in traced if r["batch"])
        layers["cli.exit_nonzero"] = sum(1 for r in traced if r["code"] not in (0, None))
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_kb"] = peak_rss_kb

    # Outputs on disk are the last ones each job wrote; check each distinct job
    # once. Every entry of a job that raised or exited nonzero counts as failed.
    checked: dict[tuple[str, int], list[str]] = {}
    loaded: dict[str, list[dict]] = {}
    attempted = failed = 0
    reasons: list[str] = []
    for rec in executed:
        n = rec["entries"]
        if rec["error"] is not None:
            why = [rec["error"]]
            bad = n
        else:
            key = (rec["jobs"], rec["index"])
            if key not in checked:
                if rec["jobs"] not in loaded:
                    loaded.clear()
                    with open(rec["jobs"]) as fh:
                        loaded[rec["jobs"]] = json.load(fh)
                checked[key] = _check_outputs(loaded[rec["jobs"]][rec["index"]], rec)
            why = checked[key]
            bad = len(why)
        attempted += n
        failed += bad
        reasons.extend(why[: max(0, 5 - len(reasons))])
    result.update(attempted=attempted, failed=failed, reasons=reasons)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
