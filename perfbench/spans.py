"""Span tracing around the public functions of the coverhom modules.

Used only by the traced run. `Tracer.install` replaces every public
module-level function of the package, in every coverhom module namespace
that binds it, with a wrapper that records a span (function, start, end,
parent span, job). `IntMatrix.mul` is wrapped the same way, and the
constructors of `SphericalGenerator` and `PlumbingVertex` are counted.
Spans stay in typed arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("intlinalg", "plumbing", "homology", "cover", "reportio", "cli")

# Per-layer metric group of each wrapped function; `<module>.self_s` for a
# module sums all of its functions.
GROUPS = {
    "intlinalg.snf": "intlinalg.snf",
    "intlinalg.det": "intlinalg.det",
    "intlinalg.IntMatrix.mul": "intlinalg.mul",
    "intlinalg.rank": "intlinalg.rank",
    "intlinalg.abelianized_b1": "intlinalg.lattice",
    "intlinalg.in_row_lattice": "intlinalg.lattice",
    "intlinalg.same_row_lattice": "intlinalg.lattice",
    "homology.grid_immersion": "homology.smooth",
    "homology.smooth_double_points": "homology.smooth",
    "homology.branch_class": "homology.smooth",
    "homology.product_base_model": "homology.models",
    "homology.kodaira_thurston_model": "homology.models",
    "cover.lift_omega_pairing": "cover.lift",
    "cover.lift_chern_pairing": "cover.lift",
    "cover.build_cyclic_cover": "cover.build",
    "cover.product_family_report": "cover.report",
    "cover.kodaira_thurston_family_report": "cover.report",
    "cover.build_tower7": "cover.report",
    "cover.riemann_hurwitz_euler": "cover.report",
    "cover.complement_euler": "cover.report",
    "cover.pi_dimension_bound": "cover.report",
    "cover.kodaira_thurston_cover_b1": "cover.report",
    "reportio.render_json": "reportio.json",
    "reportio.render_report_table": "reportio.table",
    "cli.build_parser": "cli.parser",
}
for _name in ("report_to_dict", "verdicts_to_json", "matrix_to_json", "matrix_from_json",
              "encode_int", "encode_fraction", "encode_value", "decode_int"):
    GROUPS[f"reportio.{_name}"] = "reportio.to_dict"


def _group(name: str) -> str | None:
    if name in GROUPS:
        return GROUPS[name]
    return "cli.main" if name.startswith("cli.") else None


def _bits(n: int) -> int:
    return abs(n).bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.raised: Counter = Counter()
        self.constructed: Counter = Counter()
        self.snf_bits: list[tuple[int, int]] = []  # (largest transform entry, largest divisor) per call

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        module = name.split(".", 1)[0]
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[module] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, fn):
        counter = self.constructed

        @functools.wraps(fn)
        def counted(obj, *args, **kwargs):
            counter[key] += 1
            return fn(obj, *args, **kwargs)

        return counted

    def _record_snf(self, res) -> None:
        transform = max((_bits(x) for m in (res.u, res.v) for x in m.entries), default=0)
        self.snf_bits.append((transform, max((_bits(x) for x in res.divisors), default=0)))

    def install(self) -> None:
        """Wrap the package's public functions; call after importing coverhom.cli."""
        mods = {m: sys.modules[f"coverhom.{m}"] for m in MODULES}
        namespaces = list(mods.values()) + [sys.modules["coverhom"]]
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                after = self._record_snf if (short, attr) == ("intlinalg", "snf") else None
                wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj, after)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(ns, attr, wrappers[id(obj)])
        matrix = mods["intlinalg"].IntMatrix
        mul = self.wrap("intlinalg.IntMatrix.mul", matrix.mul)
        matrix.mul = mul
        matrix.__matmul__ = mul
        for cls, key in ((mods["homology"].SphericalGenerator, "homology.spherical_generators"),
                         (mods["plumbing"].PlumbingVertex, "plumbing.vertices_built")):
            cls.__post_init__ = self._count(key, cls.__post_init__)

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus the durations of its children."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every span recorded so far."""
        calls: Counter = Counter()  # per group
        fn_calls: Counter = Counter()  # per function
        self_s: Counter = Counter()  # per group and per module
        for nid, st in zip(self.span_name, self.self_times()):
            name = self.names[nid]
            fn_calls[name] += 1
            self_s[name.split(".", 1)[0]] += st
            group = _group(name)
            if group:
                calls[group] += 1
                self_s[group] += st
        out = {}
        for group in ("intlinalg.snf", "intlinalg.det", "intlinalg.mul", "intlinalg.rank",
                      "intlinalg.lattice", "cover.lift", "cover.build"):
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        out["cli.main.calls"] = fn_calls["cli.main"]
        for group in ("homology.smooth", "homology.models", "cover.report", "reportio.json",
                      "reportio.to_dict", "reportio.table", "cli.main", "cli.parser"):
            out[f"{group}.self_s"] = self_s[group]
        out["plumbing.chain_graphs"] = fn_calls["plumbing.milnor_fiber_2_2_d"]
        out["plumbing.vertices_built"] = self.constructed["plumbing.vertices_built"]
        out["plumbing.self_s"] = self_s["plumbing"]
        out["homology.spherical_generators"] = self.constructed["homology.spherical_generators"]
        transform = [t for t, _ in self.snf_bits]
        divisor = [d for _, d in self.snf_bits]
        out["intlinalg.snf.max_bits"] = max(transform, default=0)
        out["intlinalg.snf.divisor_bits"] = max(divisor, default=0)
        out["intlinalg.snf.bits_ratio"] = sum(divisor) / sum(transform) if sum(transform) else 0.0
        for module in MODULES:
            out[f"{module}.raised"] = self.raised[module]
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns: names, then per-span name id, parent, job, start, end."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "job": self.span_job.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )
