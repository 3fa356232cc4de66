"""coverhom benchmark: one run of one workload, or a comparison of two result files.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-covers --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run measures set-up (median of cold starts of `python -m coverhom --help`,
half before and half after the worker), and starts one fresh worker process (worker.py) that feeds the
seeded jobs to `coverhom.cli.main` and checks every output. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. `--record FILE` also appends the run to a JSON-lines file
that `--compare` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import speed  # noqa: E402
from speed import Speedometer  # noqa: E402

COLD_STARTS = 8  # before the worker, and as many again after it
RUN_LIMIT_S = 150

# End-to-end metrics: (name, unit). All are better when lower. fail_frac is
# printed with them but is not in BENCHMARK.json: it is 0 on correct code,
# and the result's `failed` / `attempted` carry the same figure.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics from the traced run: (name, unit, better).
PER_LAYER = (
    [(f"intlinalg.{g}.{k}", u, "lower") for g in ("snf", "det", "mul", "rank", "lattice")
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("intlinalg.snf.max_bits", "bits", "lower"),
        ("intlinalg.snf.divisor_bits", "bits", "lower"),
        ("intlinalg.snf.bits_ratio", "ratio", "higher"),
        ("plumbing.chain_graphs", "count", "lower"),
        ("plumbing.vertices_built", "count", "lower"),
        ("plumbing.self_s", "s", "lower"),
        ("homology.spherical_generators", "count", "lower"),
        ("homology.smooth.self_s", "s", "lower"),
        ("homology.models.self_s", "s", "lower"),
        ("cover.lift.calls", "count", "lower"),
        ("cover.lift.self_s", "s", "lower"),
        ("cover.build.calls", "count", "lower"),
        ("cover.build.self_s", "s", "lower"),
        ("cover.report.self_s", "s", "lower"),
        ("reportio.json.self_s", "s", "lower"),
        ("reportio.to_dict.self_s", "s", "lower"),
        ("reportio.table.self_s", "s", "lower"),
        ("reportio.bytes_out", "bytes", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.parser.self_s", "s", "lower"),
        ("cli.batch.entries", "count", "higher"),
        ("cli.exit_nonzero", "count", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    + [(f"{m}.raised", "count", "lower") for m in ("intlinalg", "plumbing", "homology", "cover", "reportio", "cli")]
)


def _child_env(root: str) -> dict:
    """Environment for the program: the checkout's src first, no -O."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONOPTIMIZE", None)
    return env


def cold_starts(root: str, env: dict, meter: Speedometer) -> list[tuple[float, float, float]]:
    """(seconds, start, end) of fresh interpreters that import coverhom.cli and build its parser.

    Reference tasks run around each start, so its time can be scaled.
    """
    times = []
    for _ in range(COLD_STARTS):
        for _ in range(2):
            meter.sample(force=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "coverhom", "--help"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"`python -m coverhom --help` exited {proc.returncode}: {proc.stderr.decode()[:200]}")
        for _ in range(2):
            meter.sample(force=True)
        times.append((end - start, start, end))
    return times


def nearest_rank(values: list[float], percent: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_once(args, root: str) -> dict:
    env = _child_env(root)
    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        meter = Speedometer()
        setup = [] if args.trace else cold_starts(root, env, meter)
        result_path = os.path.join(work, "result.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", work, "--result", result_path,
        ]
        if args.jobs:
            cmd += ["--jobs", str(args.jobs)]
        if args.trace:
            cmd += ["--spans", os.path.join(base, f"spans-{args.workload}.json")]
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        if not args.trace:
            setup += cold_starts(root, env, meter)
        with open(result_path) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    tail, beyond = nearest_rank(raw["latencies"], tail_pct)
    fail_frac = raw["failed"] / raw["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: {len(raw['pass_walls'])} passes, "
          f"{len(raw['latencies'])} jobs, p{tail_pct} has {beyond} jobs beyond it")
    print(f"  reference task: {raw['reference_s'] * 1000:.3f} ms median in the worker, "
          f"{speed.NOMINAL_S * 1000:g} ms on the reference machine")
    if setup:
        print("  cold starts, raw s: " + " ".join(f"{t:.3f}" for t, _, _ in setup))
    print("  pass walls, raw s: " + " ".join(f"{w:.3f}" for w in raw["raw_pass_walls"]))
    print("  pass walls, scaled s: " + " ".join(f"{w:.3f}" for w in raw["pass_walls"]))
    for reason in raw["reasons"]:
        print(f"  failed: {reason}")
    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(t * meter.scale(a, b) for t, a, b in setup),
            "wall_s": statistics.median(raw["pass_walls"]),
            "job_p50_s": statistics.median(raw["latencies"]),
            "job_tail_s": tail,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<34} {fail_frac:.6g} ratio ({raw['failed']} of {raw['attempted']} jobs)")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, help="jobs per pass (smoke runs); default: the workload's own")
    ap.add_argument("--record", metavar="FILE", help="append this run to a JSON-lines result file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two result files")
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    if not args.workload:
        ap.error("--workload is required")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coverhom", "cli.py")):
        print("error: run from the root of a coverhom checkout (no src/coverhom/cli.py here)", file=sys.stderr)
        return 2
    try:
        result = run_once(args, root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
