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


@pytest.mark.parametrize("obj", [
    {}, [], (), "", [[]], [{}], {"a": {}}, {"a": []}, [[], [[]], {}],
    {"é": "\x00\x1f \ud83d", "k": ["\"", "\\", "\n\t"]},
    [2 ** 200, -2 ** 200, 0.1, -0.0, 1e308, math.nan, math.inf, -math.inf],
    {"t": (True, False, None), "n": [1, "1", [1.5, "x"]]},
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
