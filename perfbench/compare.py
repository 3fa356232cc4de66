"""Compare two result files (parent and change) made with `run.py --record`.

For each (end-to-end metric, workload) pair it prints each side's median
and quartiles, the change's wins over the runs paired by seed, and one
verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ by more than
  the parent's quartile distance;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound, and either both sides' spreads are within the bound
  or every change run is worse than every parent run;
- unchanged: the change's median is within the bound and both spreads are
  within the bound, or every change run is better than every parent run;
- unresolved: anything else.

`fail_frac` (failed / attempted over all runs of a workload) is compared
too: any rise is a regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: {seed: [result, ...]}} for the untraced runs in a JSON-lines file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]][rec["seed"]].append(rec["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse = sign * (cm - pm) / pm if pm else 0.0
    spread_ok = (p3 - p1) <= bound * abs(pm) and (c3 - c1) <= bound * abs(cm)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (pm - cm) > (p3 - p1):
        return "improved", wins
    if worse > bound and (spread_ok or all_worse):
        return "regressed", wins
    if (worse <= bound and spread_ok) or all_better:
        return "unchanged", wins
    return "unresolved", wins


def main(parent_path: str, change_path: str, benchmark_path: str) -> int:
    with open(benchmark_path) as fh:
        spec = json.load(fh)
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<12} {'metric':<12} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} {'wins':<7} verdict")
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for s in parent[workload] for r in parent[workload][s]]
            c = [r["metrics"][name]["value"] for s in change[workload] for r in change[workload][s]]
            pairs = [
                (pr["metrics"][name]["value"], cr["metrics"][name]["value"])
                for s in seeds
                for pr, cr in zip(parent[workload][s], change[workload][s])
            ]
            v, wins = verdict(p, c, pairs, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            print(f"{workload:<12} {name:<12} {_fmt(quartiles(p)):<32} {_fmt(quartiles(c)):<32} "
                  f"{wins}/{len(pairs):<5} {v}")
        fail = []
        for side in (parent, change):
            results = [r for rs in side[workload].values() for r in rs]
            fail.append((sum(r["failed"] for r in results), sum(r["attempted"] for r in results)))
        (pf, pa), (cf, ca) = fail
        v = "regressed" if cf / ca > pf / pa else "unchanged"
        regressed |= v == "regressed"
        print(f"{workload:<12} {'fail_frac':<12} {f'{pf}/{pa}':<32} {f'{cf}/{ca}':<32} {'':<7} {v}")
    return 1 if regressed else 0
