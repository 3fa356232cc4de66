"""Report serialization: every command's result dict, and that dict as JSON or as an ASCII table.

Each command's result dict is made here, from what the layer it reports on
returns; `snf_report` also runs `snf` on a matrix document.

Rationals serialize as "p/q" strings. Integers serialize as JSON numbers
while they fit in 53 bits and as decimal strings beyond that, so exactness
survives any reader; a string holds every digit, also past the interpreter's
limit on int-to-str conversion. Key order is fixed, so identical runs produce
byte-identical JSON. Tables are rendered from the same dict and nothing else.
A grid cover's chain block is written once: one pairing row for all its
spheres, and the chain once with its copy count.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from . import intlinalg
from .cover import CoverReport
from .errors import MAX_MATRIX_SIDE, SNF_BUDGET, DomainError, admit, digit_limit, digits, echoed_value
from .homology import ChainBlock
from .intlinalg import IntMatrix, Verdict
from .plumbing import LinearChain

__all__ = [
    "decimal",
    "encode_int",
    "encode_fraction",
    "encode_value",
    "matrix_to_json",
    "matrix_from_json",
    "check_snf_budget",
    "report_to_dict",
    "tower_to_dict",
    "catalog_to_dict",
    "kollar_to_dict",
    "snf_report",
    "render_json",
    "render_table",
    "all_pass",
    "verdicts_to_json",
]

_SAFE = 2**53


def decimal(n: int) -> str:
    """str(n), in full also past the interpreter's digit limit: a longer n is split on a power of ten."""
    try:
        return str(n)
    except ValueError:
        pass
    k = digits(n) // 2
    high, low = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + decimal(high) + decimal(low).zfill(k)


def encode_int(n: int) -> int | str:
    return n if -_SAFE < n < _SAFE else decimal(n)


def decode_int(value, index: int) -> int:
    """Matrix entry `index`: a JSON integer, or a decimal string as `decimal` writes it.

    A decimal string is an optional "-" and ASCII digits, nothing else: no
    sign "+", underscore, white space or other script's digits.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        unsigned = value[1:] if value.startswith("-") else value
        if unsigned.isascii() and unsigned.isdigit():
            admit(f"matrix entry {index}: integer string of", len(unsigned), digit_limit(), "digits")
            return int(value)
    raise DomainError(f"matrix entry {index} must be an integer or a decimal string, got {echoed_value(value)}")


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
    admit("matrix has", rows, MAX_MATRIX_SIDE, "rows")
    admit("matrix has", cols, MAX_MATRIX_SIDE, "columns")
    if not isinstance(entries, list):
        raise DomainError("entries must be an array")
    if set(map(type, entries)) <= {int}:
        decoded = tuple(entries)
    else:
        decoded = tuple(decode_int(e, i) for i, e in enumerate(entries))
    return IntMatrix(rows, cols, decoded)


def check_snf_budget(a: IntMatrix) -> None:
    """Refuse a matrix whose bound n^2 * bits(H) passes SNF_BUDGET, before any elimination.

    H grows line by line, so a matrix far past the budget is refused after its first lines.
    """
    n = max(a.rows, a.cols)
    if a.rows <= a.cols:
        lines = (a.entries[i * a.cols : (i + 1) * a.cols] for i in range(a.rows))
    else:
        lines = (a.entries[j :: a.cols] for j in range(a.cols))
    subject = (f"snf: a {a.rows}x{a.cols} matrix, with n = max(rows, cols) and H = the product of its row or column "
               "norms, gives n^2*bits(H) of at least")
    squares = 1
    for line in lines:
        squares *= sum(x * x for x in line) or 1
        # H = sqrt(squares), and bits(isqrt(s)) == (bits(s) + 1) // 2 for every s >= 1.
        admit(subject, n * n * ((squares.bit_length() + 1) // 2), SNF_BUDGET, "bits")


def _chain_to_json(chain: LinearChain) -> dict:
    v = chain.vertex
    return {
        "length": encode_int(chain.length), "euler_number": encode_int(v.euler_number), "genus": encode_int(v.genus)
    }


def _block_json(block: ChainBlock | None) -> tuple[list[dict], dict | None]:
    """One pairing row for all the spheres of a chain block, and its `blocks` lattice entry."""
    if block is None:
        return [], None
    row = {
        "generator": f"double point 1..{block.copies}, sphere 1..{block.chain.length}",
        "spheres": encode_int(block.spheres),
        "omega": encode_fraction(block.template.omega_pairing),
        "c1": encode_int(block.template.c1_pairing),
    }
    return [row], {"blocks": [{"chain": _chain_to_json(block.chain), "copies": encode_int(block.copies)}]}


def verdicts_to_json(verdicts) -> list[dict]:
    return [{"name": v.name, "pass": v.passed, "evidence": v.evidence} for v in verdicts]


def report_to_dict(r: CoverReport) -> dict:
    pairings, lattice = _block_json(r.cover.chain_block)
    pairings += [
        {"generator": g.label, "omega": encode_fraction(g.omega_pairing), "c1": encode_int(g.c1_pairing)}
        for g in r.cover.spherical_generators
    ]
    return {
        "family": r.family,
        "parameters": {k: encode_value(v) for k, v in r.parameters},
        "invariants": {
            "euler_characteristic": encode_int(r.cover.euler_characteristic),
            "b1": None if r.cover.b1 is None else encode_int(r.cover.b1),
            "pi_lower_bound": encode_int(r.pi_lower_bound),
        },
        "findings": dict(zip(("omega_on_spherical_classes", "c1_on_spherical_classes"), r.signature)),
        "pairings": pairings,
        "spherical_lattice": lattice,
        "verdicts": verdicts_to_json(r.verdicts),
        "assumptions": list(r.assumptions),
        "kaehler": r.cover.kaehler,
        "trace": {k: v for k, v in r.trace},
    }


def tower_to_dict(d: int, stages: tuple[CoverReport, CoverReport]) -> dict:
    """The tower7 result, from `cover.build_tower7(d)`."""
    return {"family": "tower7", "parameters": {"d": d}, "stages": [report_to_dict(s) for s in stages]}


def catalog_to_dict(d: int, catalog: tuple) -> dict:
    """The catalog result, from the entries, verdicts and assumptions of `cover.catalog(d)`."""
    entries, verdicts, assumptions = catalog
    keys = ("name", "omega_on_pi", "c1_on_pi", "witness", "source")
    entries = [dict(zip(keys, entry)) for entry in entries]
    return {"family": "catalog", "parameters": {"d": d}, "entries": entries,
            "verdicts": verdicts_to_json(verdicts), "assumptions": list(assumptions)}


def kollar_to_dict(hypotheses: tuple[bool, bool], kollar: tuple) -> dict:
    """The kollar result, from the conclusion, failed hypotheses and verdict of `cover.kollar(*hypotheses)`."""
    conclusion, failed, verdict = kollar
    parameters = dict(zip(("omega_pullback", "target_pi2_trivial"), hypotheses))
    return {"family": "kollar", "parameters": parameters, "conclusion": conclusion, "concluded": not failed,
            "failed_hypotheses": failed, "verdicts": verdicts_to_json((verdict,))}


def snf_report(path: str, doc) -> dict:
    """The snf result: the exact Smith decomposition of the matrix document doc, read from the file path."""
    a = matrix_from_json(doc)
    check_snf_budget(a)
    # snf raises VerificationError unless u*a*v == d, u and v are unimodular
    # and d is a divisor chain, so the verdict restates those checks. It is
    # read off its module at call time, so that a replaced intlinalg.snf applies.
    res = intlinalg.snf(a)
    divisors = ", ".join(map(decimal, res.divisors))
    evidence = f"{a.rows}x{a.cols} input; det u = {res.det_u}, det v = {res.det_v}; divisors [{divisors}]"
    verdict = Verdict("restates the checks snf ran: u*a*v equals d, u and v unimodular, divisor chain", True, evidence)
    matrices = {key: matrix_to_json(m) for key, m in zip(("input", "u", "d", "v"), (a, res.u, res.d, res.v))}
    return {"family": "snf", "parameters": {"matrix": path}, **matrices,
            "divisors": [encode_int(x) for x in res.divisors], "verdicts": verdicts_to_json((verdict,))}


_key = json.encoder.encode_basestring_ascii
_SCALARS = {str, int, bool, float, type(None)}


@functools.cache
def _flat_encoder(separator: str):
    """json's C encoder, writing items apart by `separator`; called as encoder(value, 0).

    Made once per separator, with the arguments JSONEncoder.iterencode
    passes for json.dumps's defaults, except that it keeps no markers for
    circular references: it only ever gets a scalar or a container of
    scalars, which cannot hold itself, and a marker table kept across calls
    would still hold a container whose encoding raised (an int past the
    string limit), so encoding that container again would report a cycle.
    """
    # markers, default, encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, _key, None, ": ", separator, False, False, True
    )


def _dump(value, outer: str) -> str:
    """value in the layout of json.dumps with an indent of 2, nested at indent `outer`.

    A scalar, or a list or dict whose items are all scalars, such as a
    matrix's entries, is written by one call into json's C encoder with the
    indented item separator. Before Python 3.13, json.dumps with an indent
    takes its pure-Python encoder, one generator step per scalar, and
    JSONEncoder.encode builds a new C encoder on every call.
    """
    inner = outer + "  "
    separator = ",\n" + inner
    if not isinstance(value, (dict, list, tuple)):
        return "".join(_flat_encoder(separator)(value, 0))
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not value:
        return opening + closing
    if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
        body = "".join(_flat_encoder(separator)(value, 0))[1:-1]
    elif is_dict:
        body = separator.join(f"{_key(k)}: {_dump(v, inner)}" for k, v in value.items())
    else:
        body = separator.join(_dump(v, inner) for v in value)
    return opening + "\n" + inner + body + "\n" + outer + closing


def render_json(obj) -> str:
    """obj in the layout of json.dumps with an indent of 2, and a newline."""
    if json.encoder.c_make_encoder is None:  # no _json module, whose encoder _dump calls
        return json.dumps(obj, indent=2) + "\n"
    return _dump(obj, "") + "\n"


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
    if not m["entries"]:  # no rows, or rows with no columns
        return ["  (empty)"]
    rows = [[str(x) for x in m["entries"][i * cols : (i + 1) * cols]] for i in range(m["rows"])]
    widths = [max(len(r[j]) for r in rows) for j in range(cols)]
    return ["  " + "  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows]


def _snf_lines(doc: dict) -> list[str]:
    lines = [f"snf: {doc['parameters']['matrix']}"]
    for key in ("input", "u", "d", "v"):
        lines += [f"{key}:", *_matrix_lines(doc[key])]
    return lines + [f"divisors: [{', '.join(map(str, doc['divisors']))}]"] + _verdict_lines(doc)


_TABLES = {"tower7": _tower_lines, "catalog": _catalog_lines, "kollar": _kollar_lines, "snf": _snf_lines}


def render_table(doc: dict) -> str:
    """ASCII table of any command's result; example2 and kodaira-thurston share one layout."""
    return "\n".join(_TABLES.get(doc["family"], _report_lines)(doc)) + "\n"
