"""Seeded job lists for the three benchmark workloads.

A run executes passes; pass k of a workload is generated from
``random.Random(f"{workload}:{seed}:{k}")``, so a seed fixes every pass's
jobs exactly. Each pass is stratified (a fixed mix of sizes and kinds, with
random parameters inside each stratum), so that pass cost varies little
from seed to seed while the inputs themselves change.

A job is a dict:

- ``argv``: the arguments handed to ``coverhom.cli.main``;
- ``files``: input files (path -> text) written before the pass;
- ``outputs``: one spec per report the job emits, with the parameters the
  checks need and ``out`` (the file the program writes, or None for stdout).
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("grid-covers", "snf-dense", "batch-small")

# Jobs in one pass, and the latency percentile reported as job_tail_s.
# A run makes at least five passes at the committed run length, so each
# percentile has at least ten jobs beyond it (see README.md).
PASS_JOBS = {"grid-covers": 24, "snf-dense": 400, "batch-small": 70}
TAIL_PERCENTILE = {"grid-covers": 90, "snf-dense": 98, "batch-small": 90}

# grid-covers: sphere counts m1*m2*d^2*(d-1), log-spaced over one pass.
GRID_SPHERES = (200, 7200)
GRID_WINDOW = 1.06

# snf-dense: dense matrices stop at 12 rows and columns. `snf` dies with a
# traceback once a transform entry passes the interpreter's 4300-digit
# int-to-str limit (14284 bits). Random [-9, 9] matrices reach that in about
# one case in 200 at 17x17 and one in 10^5 at 14x14; at 12x12 the largest of
# 51,000 samples had 3820 bits.
SNF_DIMS = range(8, 13)
SNF_ENTRY = 9


def _area(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}/{rng.randint(1, 5)}"


def _grid_combos():
    return sorted(
        (m1 * m2 * d * d * (d - 1), m1, m2, d)
        for m1 in range(1, 5)
        for m2 in range(1, 5)
        for d in range(5, 11)
    )


def _grid_spec(rng: random.Random, command: str, m1: int, m2: int, d: int, fmt: str) -> dict:
    spec = {"command": command, "m1": m1, "m2": m2, "d": d, "format": fmt}
    spec["area1"], spec["area2"] = _area(rng), _area(rng)
    if command == "example2":
        spec["g1"], spec["g2"] = rng.randint(1, 3), rng.randint(1, 3)
        spec["kaehler"] = rng.random() < 0.3
    return spec


def _spec_argv(spec: dict) -> list[str]:
    """Command-line form of a single-command spec."""
    argv = [spec["command"]]
    for key in ("g1", "g2", "m1", "m2"):
        if key in spec:
            argv += [f"--{key}", str(spec[key])]
    if "d" in spec:
        argv += ["-d", str(spec["d"])]
    for key in ("area1", "area2"):
        if key in spec:
            argv += [f"--{key}", spec[key]]
    if spec.get("kaehler"):
        argv.append("--kaehler")
    if spec["command"] == "snf":
        argv.append(spec["matrix"])
    return argv + ["--format", spec["format"]]


def _single(spec: dict, files: dict | None = None) -> dict:
    return {"argv": _spec_argv(spec), "files": files or {}, "outputs": [dict(spec, out=None)]}


def grid_covers(rng: random.Random, workdir: str, n_jobs: int) -> list[dict]:
    """example2 and kodaira-thurston jobs; every job installs 200-7200 spheres."""
    combos = _grid_combos()
    lo, hi = GRID_SPHERES
    n = PASS_JOBS["grid-covers"]
    targets = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)][:n_jobs]
    jobs = []
    for i, target in enumerate(targets):
        near = [c for c in combos if abs(math.log(c[0] / target)) <= math.log(GRID_WINDOW)]
        near = near or sorted(combos, key=lambda c: abs(math.log(c[0] / target)))[:2]
        _, m1, m2, d = rng.choice(near)
        command = "kodaira-thurston" if i % 3 == 2 else "example2"
        fmt = "json" if i % 2 == 0 else "table"
        jobs.append(_single(_grid_spec(rng, command, m1, m2, d, fmt)))
    rng.shuffle(jobs)
    return jobs


def _dense(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-SNF_ENTRY, SNF_ENTRY) for _ in range(cols)] for _ in range(rows)]


def _rank_deficient(rng: random.Random, n: int, drop: int) -> list[list[int]]:
    rows = _dense(rng, n - drop, n)
    for _ in range(drop):
        a, b = rng.sample(range(len(rows)), 2)
        s = rng.choice((-1, 1))
        rows.append([x + s * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return rows


def chain_matrix(d: int) -> list[list[int]]:
    """Intersection matrix of the chain of d-1 spheres of square -2."""
    n = d - 1
    return [[-2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def _matrix_text(rows: list[list[int]], cols: int) -> str:
    return json.dumps({"rows": len(rows), "cols": cols, "entries": [x for r in rows for x in r]})


def _snf_matrices(rng: random.Random, count: int) -> list[tuple[list[list[int]], int]]:
    """(rows, column count) of a stratified mix: 70% dense square, 10% each
    rectangular, rank-deficient and chain matrices."""
    dims = list(SNF_DIMS)
    out = []
    for i in range(count):
        kind = i % 10
        n = dims[(i // 10) % len(dims)] if kind < 7 else rng.choice(dims)
        if kind < 7:
            out.append((_dense(rng, n, n), n))
        elif kind == 7:
            cols = min(n + rng.choice((-3, -2, -1, 1, 2, 3)), max(dims))
            cols = n - 1 if cols == n else cols
            out.append((_dense(rng, n, cols), cols))
        elif kind == 8:
            out.append((_rank_deficient(rng, n, rng.randint(1, 3)), n))
        else:
            d = rng.randint(2, 30)
            out.append((chain_matrix(d), d - 1))
    return out


def snf_dense(rng: random.Random, workdir: str, n_jobs: int) -> list[dict]:
    """`snf MATRIX.json --format json` jobs on mostly dense random matrices."""
    jobs = []
    for i, (rows, cols) in enumerate(_snf_matrices(rng, n_jobs)):
        path = os.path.join(workdir, f"m{i}.json")
        spec = {"command": "snf", "matrix": path, "format": "json", "entries": rows, "cols": cols}
        jobs.append(_single(spec, {path: _matrix_text(rows, cols)}))
    rng.shuffle(jobs)
    return jobs


# Commands in one batch file; 20 entries.
BATCH_MIX = (
    ("example2",) * 5
    + ("kodaira-thurston",) * 3
    + ("tower7",) * 3
    + ("catalog",) * 2
    + ("kollar",) * 4
    + ("snf",) * 3
)
_KOLLAR_FLAGS = ((True, True), (True, False), (False, True), (False, False))
# (m1, m2, d) of the eight example2 / kodaira-thurston entries of every batch,
# dealt out in random order, so that batches cost about the same.
_BATCH_GRIDS = ((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3), (1, 1, 4), (1, 2, 4), (2, 1, 4), (2, 2, 4))


def _batch_entry(rng: random.Random, command: str, drawn, out: str, matrix_path: str) -> tuple[dict, dict]:
    """One batch entry (as written to the batch file) and its output spec.

    `drawn` is the entry's share of the batch's stratified values: its
    (m1, m2, d) for grid commands, its flag pair for kollar.
    """
    fmt = "json" if rng.random() < 0.2 else "table"
    if command in ("example2", "kodaira-thurston"):
        spec = _grid_spec(rng, command, *drawn, fmt)
    elif command in ("tower7", "catalog"):
        spec = {"command": command, "d": rng.randint(2, 9), "format": fmt}
    elif command == "kollar":
        om, pi2 = drawn
        spec = {"command": command, "omega_pullback": om, "target_pi2_trivial": pi2, "format": fmt}
    else:
        rows_n, cols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _dense(rng, rows_n, cols)
        spec = {"command": "snf", "matrix": matrix_path, "format": fmt, "entries": rows, "cols": cols}
    entry = {k: v for k, v in spec.items() if k not in ("entries", "cols")}
    entry["out"] = out
    return entry, dict(spec, out=out)


def batch_small(rng: random.Random, workdir: str, n_jobs: int) -> list[dict]:
    """`--batch FILE` jobs, each a file of 20 small entries over all six commands."""
    jobs = []
    for j in range(n_jobs):
        commands = list(BATCH_MIX)
        rng.shuffle(commands)
        pools = {"kollar": list(_KOLLAR_FLAGS), "grid": list(_BATCH_GRIDS)}
        for pool in pools.values():
            rng.shuffle(pool)
        entries, outputs, files = [], [], {}
        for k, command in enumerate(commands):
            out = os.path.join(workdir, f"b{j}-e{k}.txt")
            matrix_path = os.path.join(workdir, f"b{j}-m{k}.json")
            pool = pools.get("grid" if command in ("example2", "kodaira-thurston") else command)
            entry, spec = _batch_entry(rng, command, pool.pop() if pool else None, out, matrix_path)
            if command == "snf":
                files[matrix_path] = _matrix_text(spec["entries"], spec["cols"])
            entries.append(entry)
            outputs.append(spec)
        batch_path = os.path.join(workdir, f"b{j}.json")
        files[batch_path] = json.dumps(entries)
        jobs.append({"argv": ["--batch", batch_path], "files": files, "outputs": outputs})
    return jobs


_GENERATORS = {"grid-covers": grid_covers, "snf-dense": snf_dense, "batch-small": batch_small}


def pass_jobs(workload: str, seed: int, index: int, workdir: str, n_jobs: int | None = None) -> list[dict]:
    """Jobs of pass `index` for a workload and seed; input files go under workdir."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    n = PASS_JOBS[workload] if n_jobs is None else n_jobs
    return _GENERATORS[workload](rng, workdir, n)
