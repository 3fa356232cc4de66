"""`render_json` lays out every document exactly as `json.dumps(indent=2)` does.

The standard library's indented encoder is the oracle: reportio writes the
same bytes itself so that lists of numbers go through json's C encoder.
"""

import json
import json.encoder
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverhom import reportio
from coverhom.cli import build_parser, main
from coverhom.reportio import decimal, render_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# Characters json escapes: quote, backslash, control characters, non-ASCII
# (including a lone surrogate and one outside the basic plane).
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\U0001f600"])
TEXT = st.text(st.one_of(st.characters(), SPECIAL), max_size=12)
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(2**80), 2**80), st.sampled_from([2**53, -(2**53), 2**53 + 1]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT, st.floats())
# Lists of ints and strings take reportio's one-call route; bools in them do not.
FLAT_LISTS = st.lists(st.one_of(INTS, TEXT, st.booleans()), max_size=8)
DOCS = st.recursive(
    st.one_of(SCALARS, FLAT_LISTS, st.lists(INTS, max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


def oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(DOCS)
# Top-level scalars, each written by the cached encoder alone.
@example(None)
@example(True)
@example(2**60 + 1)
@example("é\x00\n\x1f\ud800\U0001f600\"")
@example((1, "a", (2, [3, ()])))
@example({"a": [[], {}, [(), {"b": []}]], "c": {"d": {}}})
# One separator, that of depth 1, for the flat lists and for the scalars
# between them, so its cached encoder is reused across both call sites.
@example([[1, 2], 3, {"k": "v"}, [4, "x"], None])
def test_render_json_matches_the_indented_encoder(doc):
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [{}, [], (), {"a": {}}, {"a": []}, [[]], [[], {}], 0, "x", None, [True, 1], [1, "é"]])
def test_empty_containers_and_edges(doc):
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*_json.out")), ids=lambda p: p.name)
def test_every_json_golden_is_rewritten_byte_for_byte(path):
    text = path.read_text()
    doc = json.loads(text)
    assert render_json(doc) == text == oracle(doc)


def test_every_json_golden_without_the_c_encoder(monkeypatch, capsys):
    # An interpreter without json's C module has json.encoder.c_make_encoder = None; render_json then
    # takes json.dumps. With the C encoder cached by _flat_encoder cleared, no call can reach it.
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    reportio._flat_encoder.cache_clear()
    for path in sorted(GOLDEN.glob("*_json.out")):
        text = path.read_text()
        assert render_json(json.loads(text)) == text, path.name
    assert main(["example2", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "example2_default_blocks_json.out").read_text()


def test_no_pure_python_encoder_on_a_dense_snf_report(tmp_path, monkeypatch):
    rng = random.Random(0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 12, "cols": 12, "entries": [rng.randint(-9, 9) for _ in range(144)]}))
    args = build_parser().parse_args(["snf", str(path), "--format", "json"])
    doc = args.run(args)
    expected = oracle(doc)

    def refused(*args, **kwargs):
        raise RuntimeError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    if sys.version_info < (3, 13):
        # Before 3.13, json.dumps with an indent takes the pure-Python encoder.
        with pytest.raises(RuntimeError):
            json.dumps(doc, indent=2)
    assert render_json(doc) == expected


@pytest.mark.parametrize(
    "n",
    [0, -7, 10**4299, 10**4300, 10**6000 + 4 * 10**3000 + 3, -(10**9000) - 1, 7 * 10**12000 - 1, 3**40000],
    ids=["zero", "negative", "at-limit", "past-limit", "product", "negative-long", "nines", "power"],
)
def test_decimal_writes_every_digit_past_the_limit(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert decimal(n) == expected
