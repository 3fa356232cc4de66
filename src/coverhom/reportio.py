"""Report serialization: every command's result dict, as JSON or as an ASCII table.

Rationals serialize as "p/q" strings. Integers serialize as JSON numbers
while they fit in 53 bits and as decimal strings beyond that, so exactness
survives any reader. Key order is fixed, so identical runs produce
byte-identical JSON. Tables are rendered from the same dict and nothing else.
A grid cover's chain block is written once unless the caller asks for the
per-sphere listing (`report_to_dict(..., expand=True)`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cover import CoverReport
from .errors import DimensionError, DomainError
from .homology import ChainBlock
from .intlinalg import IntMatrix
from .plumbing import PlumbingGraph

__all__ = [
    "encode_int",
    "encode_fraction",
    "encode_value",
    "matrix_to_json",
    "matrix_from_json",
    "report_to_dict",
    "render_json",
    "render_table",
    "all_pass",
    "verdicts_to_json",
]

_SAFE = 2**53


def encode_int(n: int) -> int | str:
    return n if -_SAFE < n < _SAFE else str(n)


def decode_int(value) -> int:
    if isinstance(value, bool):
        raise DomainError(f"integer entry required, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value, 10)
    raise DomainError(f"integer entry required, got {value!r}")


def encode_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def encode_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return encode_fraction(value)
    if isinstance(value, int):
        return encode_int(value)
    return value


def matrix_to_json(m: IntMatrix) -> dict:
    entries = m.entries
    # One range test for the whole matrix; entry by entry only when some entry needs a string.
    if not entries or (-_SAFE < min(entries) and max(entries) < _SAFE):
        listed = list(entries)
    else:
        listed = [encode_int(e) for e in entries]
    return {"rows": m.rows, "cols": m.cols, "entries": listed}


def matrix_from_json(obj) -> IntMatrix:
    if not isinstance(obj, dict):
        raise DomainError("matrix JSON must be an object with rows, cols, entries")
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        entries = obj["entries"]
    except KeyError as missing:
        raise DomainError(f"matrix JSON lacks key {missing}") from None
    if not isinstance(rows, int) or not isinstance(cols, int) or isinstance(rows, bool) or isinstance(cols, bool):
        raise DomainError("rows and cols must be integers")
    if not isinstance(entries, list):
        raise DomainError("entries must be an array")
    try:
        decoded = tuple(decode_int(e) for e in entries)
    except ValueError as exc:
        raise DomainError(f"bad matrix entry: {exc}") from None
    if len(decoded) != rows * cols:
        raise DimensionError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(decoded)}")
    return IntMatrix(rows, cols, decoded)


def _chains_to_json(chain: PlumbingGraph, copies: int, labels: list[str]) -> dict:
    """`copies` disjoint copies of a chain, one vertex per sphere: copy p has vertices p*n..p*n+n-1."""
    n = len(chain)
    kinds = [(v.euler_number, v.genus) for v in chain.vertices] * copies
    return {
        "vertices": [
            {"euler_number": e, "genus": g, "label": label} for (e, g), label in zip(kinds, labels)
        ],
        "edges": [[i + p * n, j + p * n] for p in range(copies) for i, j in chain.edges],
    }


def _block_json(block: ChainBlock | None, expand: bool) -> tuple[list[dict], dict | None]:
    """Pairing rows and spherical lattice of a chain block.

    By default the block is one pairing row for all its spheres and one
    `blocks` entry (the chain once, with its copy count). With `expand`, it
    is written out sphere by sphere: one pairing row and one lattice vertex
    per sphere, labelled "double point p, sphere s".
    """
    if block is None:
        return [], None
    omega, c1 = encode_fraction(block.template.omega_pairing), encode_int(block.template.c1_pairing)
    if expand:
        labels = block.labels()
        rows = [{"generator": label, "omega": omega, "c1": c1} for label in labels]
        return rows, _chains_to_json(block.chain, block.copies, labels)
    row = {
        "generator": f"double point 1..{block.copies}, sphere 1..{len(block.chain)}",
        "spheres": encode_int(block.spheres),
        "omega": omega,
        "c1": c1,
    }
    chain = _chains_to_json(block.chain, 1, [v.label for v in block.chain.vertices])
    return [row], {"blocks": [{"chain": chain, "copies": encode_int(block.copies)}]}


def verdicts_to_json(verdicts) -> list[dict]:
    return [{"name": v.name, "pass": v.passed, "evidence": v.evidence} for v in verdicts]


def report_to_dict(r: CoverReport, expand: bool = False) -> dict:
    """The report's result dict; `expand` writes its chain block out sphere by sphere."""
    pairings, lattice = _block_json(r.chain_block, expand)
    pairings += [
        {"generator": g.label, "omega": encode_fraction(g.omega_pairing), "c1": encode_int(g.c1_pairing)}
        for g in r.spherical_generators
    ]
    return {
        "family": r.family,
        "parameters": {k: encode_value(v) for k, v in r.parameters},
        "invariants": {
            "euler_characteristic": encode_int(r.cover_euler),
            "b1": None if r.cover_b1 is None else encode_int(r.cover_b1),
            "pi_lower_bound": encode_int(r.pi_lower_bound),
        },
        "findings": {
            "omega_on_spherical_classes": "zero" if r.omega_vanishes_on_pi else "nonzero",
            "c1_on_spherical_classes": "zero" if r.c1_vanishes_on_pi else "nonzero",
        },
        "pairings": pairings,
        "spherical_lattice": lattice,
        "verdicts": verdicts_to_json(r.verdicts),
        "assumptions": list(r.assumptions),
        "kaehler": r.kaehler,
        "trace": {k: v for k, v in r.trace},
    }


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "(not determined)"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _table_rows(columns, rows) -> list[str]:
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for r in rows:
        out.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return out


def all_pass(doc: dict) -> bool:
    """Whether every verdict of a result passes, including those of its stages."""
    return all(v["pass"] for v in doc.get("verdicts", ())) and all(all_pass(s) for s in doc.get("stages", ()))


def _word(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _verdict_lines(doc: dict, before_result: tuple[str, ...] = ()) -> list[str]:
    lines = ["verdicts:"]
    for v in doc["verdicts"]:
        lines.append(f"  {_word(v['pass'])}  {v['name']} | {v['evidence']}")
    return [*lines, *before_result, f"result: {_word(all_pass(doc))}"]


def _report_lines(doc: dict) -> list[str]:
    lines = [f"family: {doc['family']}"]
    lines.append("parameters: " + " ".join(f"{k}={_fmt(v)}" for k, v in doc["parameters"].items()))
    lines.append("")
    lines.append("invariants:")
    for k, v in doc["invariants"].items():
        lines.append(f"  {k:<22} {_fmt(v)}")
    for k, v in doc["findings"].items():
        lines.append(f"  {k:<30} {v}")
    lines.append("")
    pair_rows = [[p["generator"], p["omega"], _fmt(p["c1"])] for p in doc["pairings"]]
    lines.extend(_table_rows(("generator", "omega", "c1"), pair_rows))
    lines.append("")
    assumptions = ("", "assumptions:", *(f"  - {a}" for a in doc["assumptions"]), "")
    return lines + _verdict_lines(doc, assumptions)


def _tower_lines(doc: dict) -> list[str]:
    lines = [f"tower7: two-stage branched-cover tower (stage-2 degree d={doc['parameters']['d']})", ""]
    for number, stage in enumerate(doc["stages"], 1):
        lines += [f"== stage {number} ==", *_report_lines(stage), ""]
    return lines + [f"overall: {_word(all_pass(doc))}"]


def _catalog_lines(doc: dict) -> list[str]:
    entries = doc["entries"]
    lines = [f"catalog: vanishing signatures of (omega, c1) on spherical classes (d={doc['parameters']['d']})", ""]
    rows = [[e["name"], e["omega_on_pi"], e["c1_on_pi"], e["source"]] for e in entries]
    lines.extend(_table_rows(("name", "omega", "c1", "source"), rows))
    lines += ["", *(f"  {e['name']}: {e['witness']}" for e in entries), ""]
    return lines + _verdict_lines(doc, ("",))


def _kollar_lines(doc: dict) -> list[str]:
    p = doc["parameters"]
    return [
        "kollar: pullback vanishing criterion",
        f"  symplectic class is a pullback: {'yes' if p['omega_pullback'] else 'no'}",
        f"  target has trivial pi_2:        {'yes' if p['target_pi2_trivial'] else 'no'}",
        f"conclusion: {doc['conclusion']}",
        *(f"  failed hypothesis: {h}" for h in doc["failed_hypotheses"]),
    ]


def _matrix_lines(m: dict) -> list[str]:
    cols = m["cols"]
    rows = [[str(x) for x in m["entries"][i * cols : (i + 1) * cols]] for i in range(m["rows"])]
    if not rows:
        return ["  (empty)"]
    widths = [max(len(r[j]) for r in rows) for j in range(cols)]
    return ["  " + "  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows]


def _snf_lines(doc: dict) -> list[str]:
    lines = [f"snf: {doc['parameters']['matrix']}"]
    for key in ("input", "u", "d", "v"):
        lines += [f"{key}:", *_matrix_lines(doc[key])]
    return lines + [f"divisors: {doc['divisors']}"] + _verdict_lines(doc)


_TABLES = {"tower7": _tower_lines, "catalog": _catalog_lines, "kollar": _kollar_lines, "snf": _snf_lines}


def render_table(doc: dict) -> str:
    """ASCII table of any command's result; example2 and kodaira-thurston share one layout."""
    return "\n".join(_TABLES.get(doc["family"], _report_lines)(doc)) + "\n"
