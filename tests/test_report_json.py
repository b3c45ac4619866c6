"""The JSON boundary: the report layout and the pinned example52 and
slice-diameter payloads."""
import json

import pytest

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

def _stdout(capsys, argv):
    code = main(["--format", "json"] + argv)
    return code, capsys.readouterr().out


def test_reports_are_compact_json(tmp_path, capsys):
    """A report is one line of compact JSON, keys in report order."""
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
        assert out == json.dumps(json.loads(out),
                                 separators=(",", ":")) + "\n", argv
        assert out.count("\n") == 1, argv


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
