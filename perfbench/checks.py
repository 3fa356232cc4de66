"""Output checks that use the benchmark's own arithmetic, never the package's.

Every check takes one output spec (see workloads.py) and the text the
program wrote for it, and returns None when the output is right or a
one-line reason when it is not. Grid reports are read only through the
`invariants`, `verdicts` and `findings` fields (or their table lines), so the
checks do not depend on how the spherical lattice is listed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def frac_rank_det(rows: list[list[int]]) -> tuple[int, int | None]:
    """Rank, and determinant for square input, by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    det = Fraction(1)
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        lead = m[r]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c] / lead[c]
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], lead[c:])]
        r += 1
        if r == n_rows:
            break
    if n_rows != n_cols:
        return r, None
    if r < n_rows:
        det = Fraction(0)
    return r, int(det)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _ints(values) -> list[int]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ValueError(f"non-integer entry {v!r}")
        out.append(int(v))
    return out


def _matrix(obj) -> list[list[int]]:
    rows, cols = obj["rows"], obj["cols"]
    flat = _ints(obj["entries"])
    if len(flat) != rows * cols:
        raise ValueError("matrix entry count disagrees with its shape")
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def check_snf_parts(spec: dict, a, u, d, v, divisors: list[int]) -> str | None:
    rows = spec["entries"]
    if a != rows:
        return "echoed input differs from the generated matrix"
    n_rows, n_cols = len(rows), spec["cols"]
    if len(u) != n_rows or len(v) != n_cols or len(d) != n_rows or any(len(r) != n_cols for r in d):
        return "transform or diagonal factor has the wrong shape"
    if any(d[i][j] != (divisors[i] if i == j else 0) for i in range(n_rows) for j in range(n_cols)):
        return "middle factor is not diag(divisors)"
    if len(divisors) != min(n_rows, n_cols):
        return f"{len(divisors)} divisors for a {n_rows}x{n_cols} input"
    if any(x < 0 for x in divisors):
        return "negative divisor"
    for x, y in zip(divisors, divisors[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            return f"divisor chain broken at {x}, {y}"
    if matmul(matmul(u, rows), v) != d:
        return "u*a*v differs from d"
    rank, det = frac_rank_det(rows)
    if sum(1 for x in divisors if x) != rank:
        return f"{sum(1 for x in divisors if x)} nonzero divisors but rank {rank}"
    if det is not None:
        prod = 1
        for x in divisors:
            prod *= x
        if prod != abs(det):
            return f"divisor product {prod} differs from |det a| = {abs(det)}"
    return None


def _verdicts_pass(verdicts) -> str | None:
    if not verdicts:
        return "no verdicts"
    failed = [v["name"] for v in verdicts if v["pass"] is not True]
    return f"verdict failed: {failed[0]}" if failed else None


def _expected_grid(spec: dict) -> dict:
    m1, m2, d = spec["m1"], spec["m2"], spec["d"]
    if spec["command"] == "example2":
        g1, g2 = spec["g1"], spec["g2"]
    else:
        g1 = g2 = 1
    chi_base = (2 - 2 * g1) * (2 - 2 * g2)
    chi_branch = m1 * d * (2 - 2 * g2) + m2 * d * (2 - 2 * g1) - 2 * m1 * m2 * d * d
    return {
        "euler_characteristic": d * chi_base - (d - 1) * chi_branch,
        "b1": 3 if spec["command"] == "kodaira-thurston" else None,
        "pi_lower_bound": m1 * m2 * d * d * (d - 1),
    }


def _compare_invariants(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key} is {got.get(key)!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# Table parsing: only the lines the checks need.

_VERDICT = re.compile(r"^  (PASS|FAIL)  (.*?) \| ")
_INVARIANT = re.compile(r"^  (euler_characteristic|b1|pi_lower_bound|omega_on_spherical_classes|c1_on_spherical_classes)\s+(.*)$")


def _table_fields(lines: list[str]) -> tuple[dict, list[dict], str | None]:
    fields, verdicts, result = {}, [], None
    for line in lines:
        m = _INVARIANT.match(line)
        if m and m.group(1) not in fields:
            raw = m.group(2).strip()
            fields[m.group(1)] = None if raw == "(not determined)" else int(raw) if re.fullmatch(r"-?\d+", raw) else raw
            continue
        m = _VERDICT.match(line)
        if m:
            verdicts.append({"name": m.group(2), "pass": m.group(1) == "PASS"})
        elif line.startswith("result: "):
            result = line[len("result: ") :]
    return fields, verdicts, result


def _grid_report_check(fields: dict, verdicts, want: dict, findings: dict) -> str | None:
    return (
        _verdicts_pass(verdicts)
        or _compare_invariants(fields, want)
        or _compare_invariants(findings, {"omega_on_spherical_classes": "zero", "c1_on_spherical_classes": "zero"})
    )


def check_grid(spec: dict, text: str) -> str | None:
    want = _expected_grid(spec)
    if spec["format"] == "json":
        obj = json.loads(text)
        return _grid_report_check(obj["invariants"], obj["verdicts"], want, obj["findings"])
    fields, verdicts, result = _table_fields(text.splitlines())
    if result != "PASS":
        return f"table result line is {result!r}"
    return _grid_report_check(fields, verdicts, want, fields)


def check_tower(spec: dict, text: str) -> str | None:
    d = spec["d"]
    # Stage 1: the 2-fold grid cover of the 4-torus (m1 = m2 = 1): chi = 8,
    # four double points with one sphere each. Stage 2: d-fold cover
    # branched over two tori (chi 0), with one witness sphere whose Chern
    # pairing is nonzero.
    want = [
        ({"euler_characteristic": 8, "b1": None, "pi_lower_bound": 4}, ("zero", "zero")),
        ({"euler_characteristic": 8 * d, "b1": None, "pi_lower_bound": 1}, ("zero", "nonzero")),
    ]
    if spec["format"] == "json":
        stages = json.loads(text)["stages"]
        parts = [(s["invariants"], s["verdicts"], s["findings"]) for s in stages]
    else:
        lines = text.splitlines()
        if lines[-1:] != ["overall: PASS"]:
            return "tower table does not end in 'overall: PASS'"
        cut = lines.index("== stage 2 ==")
        parts = []
        for chunk in (lines[:cut], lines[cut:]):
            fields, verdicts, result = _table_fields(chunk)
            if result != "PASS":
                return f"tower stage result line is {result!r}"
            parts.append((fields, verdicts, fields))
    if len(parts) != 2:
        return f"{len(parts)} tower stages"
    for (fields, verdicts, findings), (inv, (om, c1)) in zip(parts, want):
        bad = (
            _verdicts_pass(verdicts)
            or _compare_invariants(fields, inv)
            or _compare_invariants(findings, {"omega_on_spherical_classes": om, "c1_on_spherical_classes": c1})
        )
        if bad:
            return bad
    return None


_ALL_SIGNATURES = {("zero", "zero"), ("zero", "nonzero"), ("nonzero", "zero"), ("nonzero", "nonzero")}


def check_catalog(spec: dict, text: str) -> str | None:
    if spec["format"] == "json":
        obj = json.loads(text)
        signatures = [(e["omega_on_pi"], e["c1_on_pi"]) for e in obj["entries"]]
        verdicts = obj["verdicts"]
    else:
        lines = text.splitlines()
        if lines[-1:] != ["result: PASS"]:
            return "catalog table does not end in 'result: PASS'"
        start = lines.index(next(line for line in lines if line.startswith("---"))) + 1
        signatures = []
        for line in lines[start:]:
            if not line:
                break
            cells = re.split(r"\s{2,}", line.strip())
            signatures.append((cells[1], cells[2]))
        _, verdicts, _ = _table_fields(lines)
    if len(signatures) != 4 or set(signatures) != _ALL_SIGNATURES:
        return f"catalog signatures {signatures}"
    return _verdicts_pass(verdicts)


def check_kollar(spec: dict, text: str) -> str | None:
    om, pi2 = spec["omega_pullback"], spec["target_pi2_trivial"]
    concluded = om and pi2
    n_failed = (not om) + (not pi2)
    if spec["format"] == "json":
        obj = json.loads(text)
        got = (obj["concluded"], len(obj["failed_hypotheses"]))
    else:
        lines = text.splitlines()
        conclusion = next((line for line in lines if line.startswith("conclusion: ")), "")
        got = (
            conclusion == "conclusion: omega vanishes on all spherical classes",
            sum(1 for line in lines if line.startswith("  failed hypothesis: ")),
        )
    if got != (concluded, n_failed):
        return f"kollar gave (concluded, failed hypotheses) = {got}, expected {(concluded, n_failed)}"
    return None


def _table_matrix(lines: list[str], key: str, stop: str) -> list[list[int]]:
    start = lines.index(f"{key}:") + 1
    out = []
    for line in lines[start:]:
        if line.startswith(stop):
            break
        if line.strip() == "(empty)":
            continue
        out.append([int(x) for x in line.split()])
    return out


def check_snf(spec: dict, text: str) -> str | None:
    if spec["format"] == "json":
        obj = json.loads(text)
        bad = _verdicts_pass(obj["verdicts"])
        if bad:
            return bad
        a, u, d, v = (_matrix(obj[k]) for k in ("input", "u", "d", "v"))
        divisors = _ints(obj["divisors"])
    else:
        lines = text.splitlines()
        if lines[-1:] != ["result: PASS"]:
            return "snf table does not end in 'result: PASS'"
        a = _table_matrix(lines, "input", "u:")
        u = _table_matrix(lines, "u", "d:")
        d = _table_matrix(lines, "d", "v:")
        v = _table_matrix(lines, "v", "divisors:")
        line = next(line for line in lines if line.startswith("divisors: "))
        divisors = _ints(re.findall(r"-?\d+", line[len("divisors: ") :]))
    return check_snf_parts(spec, a, u, d, v, divisors)


_CHECKS = {
    "example2": check_grid,
    "kodaira-thurston": check_grid,
    "tower7": check_tower,
    "catalog": check_catalog,
    "kollar": check_kollar,
    "snf": check_snf,
}


def check_output(spec: dict, text: str | None) -> str | None:
    """None when `text` is a correct report for `spec`, else the reason."""
    if text is None:
        return "no output"
    try:
        return _CHECKS[spec["command"]](spec, text)
    except (KeyError, ValueError, IndexError, StopIteration, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
