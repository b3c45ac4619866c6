"""The JSON boundary: the report encoder, the report layout and the pinned
example52 and slice-diameter payloads."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipcert import cli
from lipcert.cli import EXAMPLE52_N, example52_function, main
from lipcert.lipschitz import function_to_json
from lipcert.metric import build_example52, build_line, space_to_json
from lipcert.reports import canonical_hash

# `example52 --levels 1 --random-measures 2` at LIPFREE_SEED=0, recorded
# before the report encoder and the literal memo were written.
EXAMPLE52_L1_M2_SHA256 = ("3afb6b50980dad8baf4ecf74e0dff806"
                          "20b20de57b185c2f49c94aff12e9d9d6")
# `slice-diam --alpha 1/2 --normalize` of {(1,0): 1, (3,2): 2} on line:4: the
# LP route with an artificial in phase 1, recorded while each ordered pair
# still had an LP of its own.
SLICE_LINE4_SHA256 = ("e7606d2e1a08439e9e493659d5694977"
                      "14dfb9e16c4d4885b6a59d6a0e537e01")
# The absent `lip-ltp --builtin example52:3 --eps 1/14` payload over the
# six core points with `example52_function`: 3274 violation rows, recorded
# while each row was decided by a one-row call and became two `Fraction`s.
LIP_LTP_L3_SHA256 = ("0955fd55d363d45f401c5c0a993f4a6c"
                     "0ecaf11210f3830ba182519fbc00cf64")
# Pair sets on example52:1 whose eight pairs land on six points, and a
# 1-CM set of four pairs landing on three points whose 2-Lip-LTP search at
# eps = 1/10 fails for all 132 candidates; recorded while check_gamma_cm
# still ran Bellman-Ford on the complete graph of the pairs.
CM_CERTIFIED_PAIRS = [
    ["v2_1", "u2_1"], ["x3", "u3_1"], ["y2", "u3_1"], ["u2_1", "v3_1"],
    ["y2", "v2_1"], ["u1_1", "v1_1"], ["x3", "u1_1"], ["x1", "v1_1"]]
CM_VIOLATED_PAIRS = [
    ["v3_1", "x1"], ["x3", "u2_1"], ["x1", "v1_1"], ["v1_1", "x3"],
    ["u2_1", "v3_1"], ["v1_1", "v3_1"], ["v2_1", "u2_1"], ["y2", "y3"]]
TWO_LIP_LTP_ABSENT_PAIRS = [
    ["y1", "x1"], ["u3_1", "x1"], ["y1", "x2"], ["v1_1", "v2_1"]]
CM_PAYLOAD_SHA256 = {
    "certified": ("bd45ed0588f2d7ef3ce6ba6bc2dbca5f"
                  "2ac68231c5e3836feaf927004c6b7566"),
    "violated": ("bada3bd95ef505d315e6aa37e5c6d19f"
                 "619742fb111a046d184467bcb6fa76e5"),
    "two-lip-ltp": ("c77677ad2d1235de7b3979d83c81c47f"
                    "d81bbd70291afec1447bdb5fd5f3bd4b"),
}

scalars = (st.none() | st.booleans()
           | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text())
trees = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.text(), max_size=5)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


def dumps(obj):
    return json.dumps(obj, indent=2, cls=cli._IndentEncoder)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_indent_encoder_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


# Lists of same-keyed rows, the case the encoder writes from a template:
# keys that hold "%" or "%s", non-ASCII text, and rows that leave the
# template (other keys, another key order, a non-str value, an empty list,
# an int list as in a 2-Lip-LTP cycle, a str where the first row has a
# list, or the reverse).
row_keys = st.sampled_from(
    ["%", "%s", "a%%b", "%(k)s", "100%", "x", "candidate", "\u00e9t\u00e9",
     "\u2603"]) | st.text()
row_text = st.text(max_size=4) | st.sampled_from(["%s", "%", "\u00e9"])
row_strings = st.lists(row_text, min_size=1, max_size=3)
odd_values = (st.none() | st.booleans() | st.integers() | st.just([])
              | st.lists(st.integers(0, 9), min_size=1, max_size=3)
              | st.lists(row_text | st.integers(), min_size=1, max_size=3)
              | st.tuples(row_text) | st.dictionaries(row_text, row_text))


@st.composite
def row_lists(draw):
    keys = draw(st.lists(row_keys, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.booleans()) for _ in keys]  # True: a str value

    def row():
        return {k: draw(row_text if is_str else row_strings)
                for k, is_str in zip(keys, kinds)}
    rows = [row() for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.sampled_from(keys))
        change = draw(st.sampled_from(
            ["reorder", "other key", "drop key", "odd value", "empty list",
             "swap kind", "not a dict"]))
        if not isinstance(rows[i], dict) or k not in rows[i]:
            continue
        if change == "reorder":
            rows[i] = dict(reversed(list(rows[i].items())))
        elif change == "other key":
            rows[i][draw(row_keys)] = draw(row_text)
        elif change == "drop key":
            del rows[i][k]
        elif change == "odd value":
            rows[i][k] = draw(odd_values)
        elif change == "empty list":
            rows[i][k] = []
        elif change == "swap kind":
            rows[i][k] = draw(row_strings if isinstance(rows[i][k], str)
                              else row_text)
        else:
            rows[i] = draw(row_strings)
    return draw(st.sampled_from([rows, {"rows": rows}, [[rows]]]))


@settings(max_examples=500, deadline=None)
@given(row_lists())
def test_indent_encoder_rows_match_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", [[]], [{}], {"a": {}}, {"a": []}, [[], [[]], {}],
    {"é": "\x00\x1f \ud83d", "k": ["\"", "\\", "\n\t"]},
    [2 ** 200, -2 ** 200, 0.1, -0.0, 1e308, math.nan, math.inf, -math.inf],
    {"t": (True, False, None), "n": [1, "1", [1.5, "x"]]},
    [{"%s": ["%"], "é": "%%"}, {"%s": ["a", "b"], "é": "\u2603"}],
    [{"a": ["x"]}, {"a": []}], [{"a": "x"}, {"a": ["x"]}],
    [{"a": "x", "b": "y"}, {"b": "y", "a": "x"}, {"a": "x", "b": "y"}],
    [{"candidate": ["u", "v"], "side": "forward", "cycle": [0, 1]}],
])
def test_indent_encoder_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), [Fraction(1, 2)], {"a": {1, 2}}, {"a": ["x", b"y"]},
    object()])
def test_indent_encoder_refuses_other_values(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def _stdout(capsys, argv):
    code = main(["--format", "json"] + argv)
    return code, capsys.readouterr().out


def test_reports_are_indent_2_json(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": [
        {"from": "2", "to": "1", "weight": "1/2"},
        {"from": "1", "to": "0", "weight": "1/2"}]}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps(space_to_json(build_line(3))))
    f = tmp_path / "f.json"
    f.write_text(json.dumps(function_to_json(
        example52_function(build_example52(1)))))
    for want, argv in (
            (0, ["norm", str(mu), "--metric", str(m)]),
            (2, ["lip-ltp", "--builtin", "example52:1", "--eps", "1/14",
                 "--subset", ",".join(EXAMPLE52_N), "--function", str(f)]),
            (0, ["example52", "--levels", "1", "--random-measures", "2"])):
        code, out = _stdout(capsys, argv)
        assert code == want, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_example52_payload_digest_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("LIPFREE_SEED", "0")
    code, out = _stdout(capsys, ["example52", "--levels", "1",
                                 "--random-measures", "2"])
    assert code == 0
    assert canonical_hash(json.loads(out)["payload"]) == \
        EXAMPLE52_L1_M2_SHA256


def test_lip_ltp_l3_payload_digest_is_pinned(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(function_to_json(
        example52_function(build_example52(3)))))
    code, out = _stdout(capsys, ["lip-ltp", "--builtin", "example52:3",
                                 "--eps", "1/14", "--subset",
                                 ",".join(EXAMPLE52_N), "--function", str(f)])
    assert code == 2
    payload = json.loads(out)["payload"]
    assert len(payload["violations"]) == 3274
    assert canonical_hash(payload) == LIP_LTP_L3_SHA256


def test_slice_lp_payload_digest_is_pinned(capsys, tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": [
        {"from": "1", "to": "0", "weight": "1"},
        {"from": "3", "to": "2", "weight": "2"}]}))
    code, out = _stdout(capsys, ["slice-diam", "--alpha", "1/2",
                                 "--normalize", str(mu),
                                 "--builtin", "line:4"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["method"] == "lp"
    assert canonical_hash(payload) == SLICE_LINE4_SHA256


@pytest.mark.parametrize("name, pairs, argv, want", [
    ("certified", CM_CERTIFIED_PAIRS, ["check-cm", "--gamma", "1/2"], 0),
    ("violated", CM_VIOLATED_PAIRS, ["check-cm", "--gamma", "1/2"], 2),
    ("two-lip-ltp", TWO_LIP_LTP_ABSENT_PAIRS,
     ["two-lip-ltp", "--eps", "1/10"], 2),
])
def test_cm_payload_digests_are_pinned(capsys, tmp_path, name, pairs, argv,
                                       want):
    assert len({y for _, y in pairs}) < len(pairs)
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": pairs}))
    code, out = _stdout(capsys, argv + ["--pairs", str(path),
                                        "--builtin", "example52:1"])
    assert code == want
    assert canonical_hash(json.loads(out)["payload"]) == \
        CM_PAYLOAD_SHA256[name]
