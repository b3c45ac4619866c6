import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lipcert
from lipcert import cli
from lipcert.cli import EXAMPLE52_N, example52_function, main
from lipcert.lipschitz import function_to_json, slope
from lipcert.metric import (MAX_BUILTIN_POINTS, build_example52, build_line,
                            space_to_json)
from lipcert.monotone import brute_force_cm_oracle
from lipcert.reports import envelope

LINE3_JSON = space_to_json(build_line(3))
DESCENT_PAIRS = {"pairs": [["2", "1"], ["1", "0"]]}
DESCENT_MEASURE = {"atoms": [{"from": "2", "to": "1", "weight": "1/2"},
                             {"from": "1", "to": "0", "weight": "1/2"}]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok_and_failure(files, capsys):
    code, report = run_json(capsys, ["validate", files("m.json", LINE3_JSON)])
    assert code == 0 and report["verdict"] == "ok"
    bad = dict(LINE3_JSON, distances=[["0", "1", "3"], ["1", "0", "1"],
                                      ["3", "1", "0"]])
    code, report = run_json(capsys, ["validate", files("bad.json", bad)])
    assert code == 2
    assert report["payload"]["failure"] == "triangle"


def test_check_cm_exit_codes(files, capsys):
    m = files("m.json", LINE3_JSON)
    good = files("good.json", DESCENT_PAIRS)
    bad = files("bad.json", {"pairs": [["0", "2"], ["2", "0"]]})
    code, report = run_json(capsys, ["check-cm", "--gamma", "1",
                                     "--pairs", good, m])
    assert code == 0 and report["payload"]["kind"] == "cm-certificate"
    code, report = run_json(capsys, ["check-cm", "--gamma", "1/2",
                                     "--pairs", bad, m])
    assert code == 2 and report["payload"]["kind"] == "cm-violation"
    assert report["payload"]["deficit"] == "-2"


def test_reports_are_deterministic(files, capsys):
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    _, first = run_json(capsys, ["witness", "--gamma", "1", "--pairs", p, m])
    _, second = run_json(capsys, ["witness", "--gamma", "1", "--pairs", p, m])
    assert first["payload"] == second["payload"]
    assert first["inputs_sha256"] == second["inputs_sha256"]


def test_norm_and_optimal(files, capsys):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    code, report = run_json(capsys, ["norm", mu, "--metric", m])
    assert code == 0 and report["payload"]["norm"] == "1"
    code, report = run_json(capsys, ["optimal", mu, "--metric", m])
    assert code == 0
    opposite = files("opp.json", {"atoms": [
        {"from": "0", "to": "2", "weight": "1/2"},
        {"from": "2", "to": "0", "weight": "1/2"}]})
    code, report = run_json(capsys, ["optimal", opposite, "--metric", m])
    assert code == 2 and report["payload"]["gap"] == "1"


def test_builtin_spaces_and_missing_metric(files, capsys):
    mu = files("mu.json", DESCENT_MEASURE)
    code, _ = run_json(capsys, ["norm", mu, "--builtin", "line:3"])
    assert code == 0
    code = main(["norm", mu])
    assert code == 1


def test_builtin_above_the_point_cap_is_an_error_line(files, capsys):
    """`--builtin` and `example52 --levels` one step above the cap end
    with exit 1 and an `error:` line, not an allocation."""
    cap = MAX_BUILTIN_POINTS
    levels = (cap - 6) // 6 + 1
    pairs = files("p.json", DESCENT_PAIRS)
    for argv, name in (
            (["check-cm", "--gamma", "1", "--pairs", pairs,
              "--builtin", f"line:{cap + 1}"], f"line:{cap + 1}"),
            (["validate", "--builtin", f"example52:{levels}"],
             f"example52:{levels}"),
            (["example52", "--levels", str(levels)], f"example52:{levels}")):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == \
            f"error: {name} is above {cap} points\n", argv


def test_slice_normalize_flag(files, capsys):
    m = files("m.json", LINE3_JSON)
    half = files("half.json", {"atoms": [
        {"from": "1", "to": "0", "weight": "1/2"}]})
    code = main(["slice-diam", "--alpha", "1/4", half, "--metric", m])
    assert code == 1  # not normalized
    code, report = run_json(capsys, ["slice-diam", "--alpha", "1/4",
                                     "--normalize", half, "--metric", m])
    assert code == 0


def _round_trip_corpus(files, capsys):
    """One JSON report of every payload kind that `verify` replays, as
    (argv, report) pairs."""
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    mu = files("mu.json", DESCENT_MEASURE)
    unit = files("unit.json", {"atoms": [
        {"from": "1", "to": "0", "weight": "1"}]})
    opposite = files("opp.json", {"atoms": [
        {"from": "0", "to": "2", "weight": "1"},
        {"from": "2", "to": "0", "weight": "1"}]})
    ramp = files("ramp.json", {"values": {"0": "0", "1": "1", "2": "2"}})
    runs = [
        ["check-cm", "--gamma", "1", "--pairs", p, m],
        ["witness", "--gamma", "1", "--pairs", p, m],
        ["norm", mu, "--metric", m],
        ["optimal", mu, "--metric", m],
        ["optimal", opposite, "--metric", m],
        ["positivize", mu, "--metric", m],
        ["slice-diam", "--alpha", "1/2", unit, "--metric", m],
        ["ld2p-cert", "--gamma", "1/2", mu, "--metric", m],
        ["sd2p-cert", "--gamma", "1/2", mu, mu, "--metric", m],
        ["prune-cm", "--gamma", "3/4", "--bound", "2", "--pairs", p, mu,
         "--metric", m],
        ["two-lip-ltp", "--eps", "1/2", "--pairs", p, m],
        ["lip-ltp", "--eps", "1/4", "--subset", "0,1,2", "--function", ramp,
         m],
        ["example52", "--levels", "1"],
    ]
    corpus = []
    for argv in runs:
        code, report = run_json(capsys, argv)
        assert code in (0, 2), argv
        corpus.append((argv, report))
    return corpus


def test_verify_round_trips_every_payload(files, capsys, tmp_path):
    for i, (argv, report) in enumerate(_round_trip_corpus(files, capsys)):
        path = tmp_path / f"report{i}.json"
        path.write_text(json.dumps(report))
        assert main(["verify", str(path)]) == 0, argv
        capsys.readouterr()


def test_verify_rejects_every_tampered_envelope_field(files, capsys,
                                                      tmp_path):
    """Each of `verdict`, `exit_code` and `inputs_sha256`, changed on its
    own and then all three at once, gets the report rejected, whatever
    its payload kind: the not-optimal report that claims "optimal" with
    exit 0 replays its payload but not its envelope."""
    for argv, report in _round_trip_corpus(files, capsys):
        flipped = {"verdict": "absent" if report["verdict"] != "absent"
                   else "certificate",
                   "exit_code": 2 - report["exit_code"],
                   "inputs_sha256": "0" * 64}
        edits = [{field: value} for field, value in flipped.items()]
        edits += [{"exit_code": str(report["exit_code"])}, flipped]
        for edit in edits:
            path = tmp_path / "tampered.json"
            path.write_text(json.dumps(dict(report, **edit)))
            assert main(["verify", str(path)]) == 1, (argv, edit)
            err = capsys.readouterr().err
            assert err.startswith("error: report rejected: ") and any(
                field in err for field in edit), (argv, edit)


def test_verify_blames_the_report_not_the_program(files, capsys, tmp_path):
    """A witness raised off the unit ball, and an LD2P certificate whose
    gamma is 2, end with an `error:` line: the report is at fault."""
    m = files("m.json", LINE3_JSON)
    _, witness = run_json(capsys, ["witness", "--gamma", "1", "--pairs",
                                   files("p.json", DESCENT_PAIRS), m])
    witness["payload"]["function"]["values"]["2"] = "3"
    _, ld2p = run_json(capsys, ["ld2p-cert", "--gamma", "1/2",
                                files("mu.json", DESCENT_MEASURE),
                                "--metric", m])
    ld2p["payload"]["gamma"] = "2"
    for report, needle in ((witness, "report rejected: witness escapes the "
                                     "unit ball"),
                           (ld2p, "gamma must lie in (0, 1], got 2")):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err
        assert "this is a bug" not in err


@pytest.mark.parametrize("argv, env, verdict, exit_code", [
    (["validate", "@m"], {}, "ok", 0),
    (["validate", "@triangle"], {}, "invalid-metric", 2),
    (["check-cm", "--gamma", "1", "--pairs", "@p", "@m"], {},
     "certificate", 0),
    (["check-cm", "--gamma", "1/2", "--pairs", "@loop", "@m"], {},
     "violation", 2),
    (["witness", "--gamma", "1", "--pairs", "@p", "@m"], {}, "witness", 0),
    (["witness", "--gamma", "1/2", "--pairs", "@loop", "@m"], {},
     "violation", 2),
    (["norm", "@mu", "--metric", "@m"], {}, "ok", 0),
    (["optimal", "@mu", "--metric", "@m"], {}, "optimal", 0),
    (["optimal", "@opp", "--metric", "@m"], {}, "not-optimal", 2),
    (["positivize", "@mu", "--metric", "@m"], {}, "ok", 0),
    (["slice-diam", "--alpha", "1/2", "@unit", "--metric", "@m"], {},
     "ok", 0),
    (["lip-ltp", "--eps", "1/2", "--subset", "0", "--function", "@zero",
      "@m"], {}, "witness", 0),
    (["lip-ltp", "--eps", "1/4", "--subset", "0,1,2", "--function", "@ramp",
      "@m"], {}, "absent", 2),
    (["two-lip-ltp", "--eps", "1/2", "--pairs", "@one", "@m"], {},
     "witness", 0),
    (["two-lip-ltp", "--eps", "1/2", "--pairs", "@p", "@m"], {}, "absent", 2),
    (["ld2p-cert", "--gamma", "1/2", "@mu", "--metric", "@m"], {},
     "certificate", 0),
    (["ld2p-cert", "--gamma", "9/10", "@atom02", "--metric", "@m"], {},
     "absent", 2),
    (["sd2p-cert", "--gamma", "1/2", "@mu", "@mu", "--metric", "@m"], {},
     "certificate", 0),
    (["sd2p-cert", "--gamma", "9/10", "@atom02", "@atom02", "--metric",
      "@m"], {}, "absent", 2),
    (["prune-cm", "--gamma", "3/4", "--bound", "2", "--pairs", "@p", "@mu",
      "--metric", "@m"], {}, "ok", 0),
    (["example52", "--levels", "1", "--part", "w-d2p"], {}, "absent", 2),
    (["example52", "--levels", "1", "--part", "ld2p", "--random-measures",
      "3"], {}, "certificate", 0),
    (["example52", "--levels", "1", "--part", "ld2p", "--gamma", "9/10",
      "--random-measures", "3"], {"LIPFREE_SEED": "19"}, "absent", 2),
    (["example52", "--levels", "1", "--random-measures", "3"], {},
     "reproduced", 0),
    (["example52", "--levels", "1", "--gamma", "9/10", "--random-measures",
      "3"], {"LIPFREE_SEED": "19"}, "not-reproduced", 2),
    (["verify", "@report"], {}, "verified", 0),
])
def test_verdicts_are_pinned(files, capsys, monkeypatch, argv, env, verdict,
                             exit_code):
    """The (verdict, exit code) of every command and outcome."""
    monkeypatch.delenv("LIPFREE_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    inputs = {"m": files("m.json", LINE3_JSON),
              "triangle": files("t.json", dict(LINE3_JSON, distances=[
                  ["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]])),
              "p": files("p.json", DESCENT_PAIRS),
              "loop": files("loop.json", {"pairs": [["0", "2"], ["2", "0"]]}),
              "one": files("one.json", {"pairs": [["1", "0"]]}),
              "mu": files("mu.json", DESCENT_MEASURE),
              "opp": files("opp.json", {"atoms": [
                  {"from": "0", "to": "2", "weight": "1"},
                  {"from": "2", "to": "0", "weight": "1"}]}),
              "unit": files("unit.json", {"atoms": [
                  {"from": "1", "to": "0", "weight": "1"}]}),
              "atom02": files("atom02.json", {"atoms": [
                  {"from": "0", "to": "2", "weight": "1"}]}),
              "zero": files("zero.json", {"values": {"0": "0", "1": "0",
                                                     "2": "0"}}),
              "ramp": files("ramp.json", {"values": {"0": "0", "1": "1",
                                                     "2": "2"}})}
    _, certificate = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs",
                                       inputs["p"], inputs["m"]])
    inputs["report"] = files("report.json", certificate)
    code, report = run_json(capsys, [inputs[a[1:]] if a.startswith("@")
                                     else a for a in argv])
    assert (code, report["verdict"], report["exit_code"]) == \
        (exit_code, verdict, exit_code)


def test_verify_rejects_tampered_certificate(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    _, report = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs", p, m])
    report["payload"]["potentials"][0] = "100"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 1


THIRDS_JSON = {"points": ["0", "1", "2"], "base": "0",
               "distances": [["0", "1/3", "2/3"], ["1/3", "0", "1/3"],
                             ["2/3", "1/3", "0"]]}


def test_verify_replays_potentials_on_their_own_denominator(files, capsys,
                                                            tmp_path):
    # gamma = 1/2 and L = 3: the potentials live on the scale h * L = 6.
    m = files("m.json", THIRDS_JSON)
    p = files("p.json", DESCENT_PAIRS)
    _, report = run_json(capsys, ["check-cm", "--gamma", "1/2",
                                  "--pairs", p, m])
    potentials = [Fraction(a) for a in report["payload"]["potentials"]]
    assert potentials == [0, Fraction(-1, 6)]
    step = Fraction(1, 7 * 2 * 3)

    def verify_with(values):
        report["payload"]["potentials"] = [str(a) for a in values]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code = main(["verify", str(path)])
        capsys.readouterr()
        return code

    # a_1 <= a_0 + beta_10 is tight, so raising a_1 by 1/42 breaks it.
    assert verify_with([potentials[0], potentials[1] + step]) == 1
    # A common shift stays feasible over the denominator 42.
    assert verify_with([a - step for a in potentials]) == 0


@pytest.mark.parametrize("argv", [
    ["check-cm", "--gamma", "abc", "--pairs", "P", "M"],
    ["witness", "--gamma", "", "--pairs", "P", "M"],
    ["slice-diam", "--alpha", "xyz", "U", "--metric", "M"],
    ["lip-ltp", "--eps", "1/0", "--subset", "0", "--function", "F", "M"],
    ["two-lip-ltp", "--eps", "1/0", "--pairs", "P", "M"],
    ["ld2p-cert", "--gamma", "1/x", "U", "--metric", "M"],
    ["example52", "--levels", "1", "--gamma", "half"],
])
def test_non_numeric_flags_exit_1(files, capsys, argv):
    paths = {"M": files("m.json", LINE3_JSON),
             "P": files("p.json", DESCENT_PAIRS),
             "U": files("u.json", {"atoms": [
                 {"from": "1", "to": "0", "weight": "1"}]}),
             "F": files("f.json", {"values": {"0": "0", "1": "0", "2": "0"}})}
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs a rational" in err


def test_malformed_pair_and_measure_json_exit_1(files, capsys):
    m = files("m.json", LINE3_JSON)
    triple = files("t.json", {"pairs": [["0", "1", "2"]]})
    assert main(["check-cm", "--gamma", "1", "--pairs", triple, m]) == 1
    assert "exactly two labels" in capsys.readouterr().err
    # On one-character labels "21" would unpack into the pair (2, 1).
    string = files("s.json", {"pairs": ["21"]})
    assert main(["check-cm", "--gamma", "1", "--pairs", string, m]) == 1
    assert capsys.readouterr().err.startswith("error: a pair must be a list")
    no_to = files("mu.json", {"atoms": [{"from": "1", "weight": "1"}]})
    assert main(["norm", no_to, "--metric", m]) == 1
    assert "malformed measure atom" in capsys.readouterr().err


def test_zero_distance_rejected_except_by_validate(files, capsys):
    zero = files("z.json", {"points": ["0", "1", "2"], "base": "0",
                            "distances": [["0", "0", "1"], ["0", "0", "1"],
                                          ["1", "1", "0"]]})
    pairs = files("p.json", {"pairs": [["1", "2"]]})
    mu = files("mu.json", {"atoms": [{"from": "2", "to": "1",
                                      "weight": "1"}]})
    assert main(["witness", "--gamma", "1", "--pairs", pairs, zero]) == 1
    assert "positive distance" in capsys.readouterr().err
    assert main(["norm", mu, "--metric", zero]) == 1
    assert "positive distance" in capsys.readouterr().err
    code, report = run_json(capsys, ["validate", zero])
    assert code == 2 and report["payload"]["failure"] == "positivity"


@pytest.mark.parametrize("diagonal", ["-1", "1"])
def test_nonzero_diagonal_rejected_except_by_validate(files, capsys,
                                                      tmp_path, diagonal):
    """d(b, b) != 0 ends in an `error:` line, never in a soundness error,
    whether the space is a command's input or sits in a report."""
    good = {"points": ["a", "b", "c"], "base": "a",
            "distances": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}
    bad = dict(good, distances=[["0", "1", "2"], ["1", diagonal, "1"],
                                ["2", "1", "0"]])
    pairs = files("p.json", {"pairs": [["a", "b"]]})
    for cmd in ("check-cm", "witness"):
        assert main([cmd, "--gamma", "1/2", "--pairs", pairs,
                     files("bad.json", bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d(b,b)" in err, err
    code, report = run_json(capsys, ["check-cm", "--gamma", "1/2", "--pairs",
                                     pairs, files("good.json", good)])
    assert code == 0
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(dict(report, payload=dict(
        report["payload"], space=bad))))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    code, report = run_json(capsys, ["validate", files("bad.json", bad)])
    assert code == 2 and report["payload"]["failure"] == "zero-diagonal"


@pytest.mark.parametrize("atoms", [
    [("y3", "v1_1", Fraction(1, 5)), ("u2_1", "y2", Fraction(3, 5)),
     ("u2_1", "u3_1", Fraction(1, 5))],
    [("y1", "x1", Fraction(1, 3)), ("u3_1", "v2_1", Fraction(1, 3)),
     ("y1", "x2", Fraction(1, 3))],
])
def test_ld2p_absent_at_nine_tenths_on_example52(files, capsys, atoms):
    """At gamma = 9/10 the only support subset heavy enough is the whole
    support A, and no (u, v) makes A + (u, v) and A + (v, u) both 9/10-CM:
    the search exhausts its 132 candidates."""
    mu = files("mu.json", {"atoms": [
        {"from": a, "to": b, "weight": str(w)} for a, b, w in atoms]})
    code, report = run_json(capsys, ["ld2p-cert", "--gamma", "9/10", mu,
                                     "--builtin", "example52:1"])
    payload = report["payload"]
    assert (code, report["verdict"], payload["kind"]) == \
        (2, "absent", "ld2p-absent")
    assert payload["scanned"] == 132 and not payload["truncated"]
    space = build_example52(1)
    support = tuple((a, b) for a, b, _ in atoms)
    gamma = Fraction(9, 10)
    assert not any(
        brute_force_cm_oracle(space, support + ((u, v),), gamma)
        and brute_force_cm_oracle(space, support + ((v, u),), gamma)
        for u, v in space.pairs())


def test_lip_ltp_subcommand(files, capsys):
    m = files("m.json", LINE3_JSON)
    f = files("f.json", {"values": {"0": "0", "1": "0", "2": "0"}})
    code, report = run_json(capsys, ["lip-ltp", "--eps", "1/2",
                                     "--subset", "0", "--function", f, m])
    assert code == 0 and report["payload"]["found"]


def test_example52_parts(capsys):
    code, report = run_json(capsys, ["example52", "--levels", "1",
                                     "--part", "w-d2p"])
    assert code == 2
    rows = {(Fraction(v["lhs"]), Fraction(v["rhs"]))
            for v in report["payload"]["w_d2p"]["violations"]}
    assert (Fraction(65, 28), Fraction(2)) in rows
    assert (Fraction(91, 28), Fraction(3)) in rows
    code, report = run_json(capsys, ["example52", "--levels", "1",
                                     "--part", "ld2p",
                                     "--random-measures", "3"])
    assert code == 0
    assert report["payload"]["ld2p"]["certified"] == \
        report["payload"]["ld2p"]["total"]


def test_example52_seed(capsys, monkeypatch):
    args = ["example52", "--levels", "1", "--part", "ld2p",
            "--random-measures", "4"]
    monkeypatch.setenv("LIPFREE_SEED", "7")
    _, first = run_json(capsys, args)
    _, again = run_json(capsys, args)
    monkeypatch.setenv("LIPFREE_SEED", "8")
    _, other = run_json(capsys, args)
    assert first["payload"]["ld2p"] == again["payload"]["ld2p"]
    assert first["payload"]["ld2p"]["seed"] == 7
    assert [r["measure"] for r in first["payload"]["ld2p"]["runs"]] != \
        [r["measure"] for r in other["payload"]["ld2p"]["runs"]]


def test_emit_proof_writes_derivation(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    proof = tmp_path / "proof.txt"
    code = main(["--format", "json", "--emit-proof", str(proof),
                 "ld2p-cert", "--gamma", "1/2", mu, "--metric", m])
    capsys.readouterr()
    assert code == 0
    text = proof.read_text()
    assert "ld2p-certificate" in text and "<=" in text


def test_emit_proof_to_an_unwritable_path_exits_1(files, capsys, tmp_path):
    """The proof is written before the report, so a directory as its path
    is an error line with nothing on stdout."""
    code = main(["--format", "json", "--emit-proof", str(tmp_path),
                 "check-cm", "--gamma", "1", "--pairs",
                 files("p.json", DESCENT_PAIRS), files("m.json", LINE3_JSON)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_example52_rejects_a_non_integer_seed(capsys, monkeypatch):
    monkeypatch.setenv("LIPFREE_SEED", "abc")
    assert main(["example52", "--levels", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: LIPFREE_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("count", [-1, cli.MAX_RANDOM_MEASURES + 1])
def test_example52_caps_the_random_measures(capsys, monkeypatch, count):
    """The count is refused before any part of the command runs."""
    def no_space(name):
        raise AssertionError("example52 built its space")
    monkeypatch.setattr(cli, "builtin_space", no_space)
    assert main(["example52", "--levels", "1", "--random-measures",
                 str(count)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --random-measures must lie in "
                   f"0..{cli.MAX_RANDOM_MEASURES}, got {count}\n")


def test_verify_names_the_verified_inputs_hash(files, capsys, tmp_path):
    """The verify payload carries the verified report's matched inputs
    hash (null for a bare payload), not its space; a verify report does
    not verify."""
    _, report = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs",
                                  files("p.json", DESCENT_PAIRS),
                                  files("m.json", LINE3_JSON)])
    path = files("report.json", report)
    code, verified = run_json(capsys, ["verify", path])
    assert code == 0
    assert verified["payload"] == {
        "kind": "verify", "summary": verified["payload"]["summary"],
        "report_inputs_sha256": report["inputs_sha256"]}
    _, bare = run_json(capsys, ["verify", files("bare.json",
                                                report["payload"])])
    assert bare["payload"]["report_inputs_sha256"] is None
    assert main(["verify", files("verified.json", verified)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_error_exit_code_on_bad_input(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1


def test_verify_malformed_payload_fields_exit_1(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    p = files("p.json", DESCENT_PAIRS)
    _, norm = run_json(capsys, ["norm", mu, "--metric", m])
    del norm["payload"]["measure"]
    _, cert = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs", p, m])
    cert["payload"]["gamma"] = "abc"
    opposite = files("opp.json", {"pairs": [["0", "2"], ["2", "0"]]})
    _, cycle = run_json(capsys, ["check-cm", "--gamma", "1",
                                 "--pairs", opposite, m])
    cycle["payload"]["cycle"] = [0, 5]
    for report, needle in ((norm, "missing field 'measure'"),
                           (cert, "bad rational literal 'abc'"),
                           (cycle, "index out of range"),
                           ([cert], "does not hold a report object")):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err


def _verify_exits_1(capsys, files, report, needle):
    assert main(["verify", files("tampered.json", report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(needle), err


def test_verify_refuses_a_cm_cycle_entry_that_is_not_a_pair_index(files,
                                                                  capsys):
    """Python would read -12 as pair 120 and True as pair 1; the replay
    refuses both, so the rewritten cycles do not verify."""
    space = build_example52(1)
    every = files("all.json", {"pairs": [list(p) for p in space.pairs()]})
    code, report = run_json(capsys, ["check-cm", "--gamma", "1/2", "--pairs",
                                     every, "--builtin", "example52:1"])
    assert code == 2 and report["payload"]["cycle"] == [120, 131]
    report["payload"]["cycle"] = [-12, -1]
    _verify_exits_1(capsys, files, report,
                    "error: report rejected: cycle entry -12")
    opposite = files("opp.json", {"pairs": [["0", "2"], ["2", "0"]]})
    code, report = run_json(capsys, ["check-cm", "--gamma", "1/2", "--pairs",
                                     opposite, files("m.json", LINE3_JSON)])
    assert code == 2 and sorted(report["payload"]["cycle"]) == [0, 1]
    report["payload"]["cycle"] = [bool(i) for i in report["payload"]["cycle"]]
    _verify_exits_1(capsys, files, report,
                    "error: report rejected: cycle entry False")


def test_verify_refuses_a_two_lip_ltp_cycle_entry_that_is_not_a_pair_index(
        files, capsys):
    """The absent rows index the augmented set, m + 1 pairs here."""
    pairs = [["y1", "x1"], ["u3_1", "x1"], ["y1", "x2"], ["v1_1", "v2_1"]]
    code, report = run_json(capsys, ["two-lip-ltp", "--eps", "1/10",
                                     "--pairs", files("p.json",
                                                      {"pairs": pairs}),
                                     "--builtin", "example52:1"])
    assert code == 2
    row = next(row for row in report["payload"]["failures"]
               if 0 in row["cycle"])
    cycle = row["cycle"]
    row["cycle"] = [i - len(pairs) - 1 for i in cycle]
    _verify_exits_1(capsys, files, report, "error: report rejected: cycle "
                    f"entry {cycle[0] - len(pairs) - 1}")
    row["cycle"] = [False if i == 0 else i for i in cycle]
    _verify_exits_1(capsys, files, report, "error: report rejected:")
    row["cycle"] = cycle
    assert main(["verify", files("intact.json", report)]) == 0


def test_verify_refuses_a_cycle_at_a_gamma_outside_the_unit_interval(
        files, capsys):
    """A cycle that is negative at gamma = 2 proves nothing about gamma-CM:
    a violation at gamma 2, or an absent 2-Lip-LTP at eps = -1, is refused
    even with its deficit and envelope recomputed."""
    opposite = files("opp.json", {"pairs": [["0", "2"], ["2", "0"]]})
    _, report = run_json(capsys, ["check-cm", "--gamma", "1/2", "--pairs",
                                  opposite, files("m.json", LINE3_JSON)])
    payload = dict(report["payload"], gamma="2", deficit="-8")
    _verify_exits_1(capsys, files, dict(envelope(payload), payload=payload),
                    "error: gamma must lie in (0, 1], got 2")
    pairs = {"pairs": [["y1", "x1"], ["u3_1", "x1"], ["y1", "x2"],
                       ["v1_1", "v2_1"]]}
    _, report = run_json(capsys, ["two-lip-ltp", "--eps", "1/10", "--pairs",
                                  files("p.json", pairs),
                                  "--builtin", "example52:1"])
    payload = dict(report["payload"], eps="-1")
    _verify_exits_1(capsys, files, dict(envelope(payload), payload=payload),
                    "error: gamma must lie in (0, 1], got 2")


def test_verify_of_a_verify_report_names_its_kind(files, capsys):
    """The kind is looked up before any other field: a verify report has
    no replay, and no space either."""
    _, report = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs",
                                  files("p.json", DESCENT_PAIRS),
                                  files("m.json", LINE3_JSON)])
    _, verified = run_json(capsys, ["verify", files("report.json", report)])
    assert "space" not in verified["payload"]
    _verify_exits_1(capsys, files, verified,
                    "error: unknown payload kind 'verify'")
    for kind in ("ld2p-absent", ["cm-violation"]):
        _verify_exits_1(capsys, files, {"kind": kind},
                        f"error: unknown payload kind {kind!r}")


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(lipcert.__file__)))
    proc = subprocess.run([sys.executable, "-m", "lipcert.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _comparable(stdout):
    """A JSON report without its timing, or the text rendering as is."""
    if stdout.startswith("{"):
        report = json.loads(stdout)
        del report["elapsed_seconds"]
        return report
    return stdout


def test_consecutive_calls_match_fresh_processes(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    mu = files("mu.json", DESCENT_MEASURE)
    opposite = files("opp.json", {"atoms": [
        {"from": "0", "to": "2", "weight": "1/2"},
        {"from": "2", "to": "0", "weight": "1/2"}]})
    proof = tmp_path / "proof.txt"
    runs = [
        ["--format", "json", "--emit-proof", str(proof),
         "ld2p-cert", "--gamma", "1/2", mu, "--metric", m],
        ["norm", mu, "--metric", m],
        ["--format", "json", "optimal", opposite, "--metric", m],
        ["witness", "--gamma", "1/2", "--pairs", p, m],
        ["--format", "json", "check-cm", "--gamma", "1", "--pairs", p, m],
        ["--format", "text", "check-cm", "--gamma", "abc", "--pairs", p, m],
        ["--format", "json", "validate", m],
    ]
    capsys.readouterr()
    for i, argv in enumerate(runs):
        code = main(argv)
        out, err = capsys.readouterr()
        fresh_code, fresh_out, fresh_err = _fresh_process(argv)
        assert code == fresh_code, argv
        assert _comparable(out) == _comparable(fresh_out), argv
        assert err == fresh_err, argv
        if i == 0:
            # A later call without --emit-proof must not write it again.
            assert proof.exists()
            proof.unlink()
    assert not proof.exists()


# ---------------------------------------------------------------------------
# Tampered reports must not verify

def _verify_code(capsys, tmp_path, payload):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({"payload": payload}))
    code = main(["verify", str(path)])
    capsys.readouterr()
    return code


def test_verify_rejects_g_replaced_by_f(files, capsys, tmp_path):
    """With g = f, f - g = 0 certifies no diameter."""
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    one = files("one.json", {"pairs": [["1", "0"]]})
    for argv in (["ld2p-cert", "--gamma", "1/2", mu, "--metric", m],
                 ["two-lip-ltp", "--eps", "1/2", "--pairs", one, m]):
        code, report = run_json(capsys, argv)
        assert code == 0, argv
        payload = report["payload"]
        assert _verify_code(capsys, tmp_path, payload) == 0, argv
        payload["g"] = payload["f"]
        assert _verify_code(capsys, tmp_path, payload) == 1, argv


def test_verify_refuses_a_degenerate_or_unknown_two_sided_pair(
        files, capsys, tmp_path):
    """A found two-lip-ltp pair [x, x] or with an unknown label, and an
    ld2p-certificate with u == v, end with exit 1 and an `error:` line:
    on a degenerate pair every slope inequality would hold as 0 >= 0."""
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    one = files("one.json", {"pairs": [["1", "0"]]})
    _, two = run_json(capsys, ["two-lip-ltp", "--eps", "1/2",
                               "--pairs", one, m])
    _, ld2p = run_json(capsys, ["ld2p-cert", "--gamma", "1/2", mu,
                                "--metric", m])
    two, ld2p = two["payload"], ld2p["payload"]
    assert _verify_code(capsys, tmp_path, two) == 0
    assert _verify_code(capsys, tmp_path, ld2p) == 0
    u = two["pair"][0]
    tampered = [dict(two, pair=[x, x]) for x in ("0", "1", "2")]
    tampered += [dict(two, pair=[u, "9"]), dict(ld2p, v=ld2p["u"])]
    for payload in tampered:
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"payload": payload}))
        assert main(["verify", str(path)]) == 1, payload
        assert capsys.readouterr().err.startswith("error: "), payload


def test_verify_refuses_a_witness_gamma_outside_the_unit_interval(
        files, capsys, tmp_path):
    """`replay_witness` needs gamma in (0, 1], as the commands do: with
    gamma = -5, or eps = 3 (gamma = 1 - eps = -2), every slope bound is
    weaker than any claim the commands make."""
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    one = files("one.json", {"pairs": [["1", "0"]]})
    _, witness = run_json(capsys, ["witness", "--gamma", "1", "--pairs", p,
                                   m])
    _, two = run_json(capsys, ["two-lip-ltp", "--eps", "1/2",
                               "--pairs", one, m])
    for payload in (dict(witness["payload"], gamma="-5"),
                    dict(two["payload"], eps="3")):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"payload": payload}))
        assert main(["verify", str(path)]) == 1, payload
        assert capsys.readouterr().err.startswith("error: "), payload


def _raise_last_value(payload):
    values = payload["function"]["values"]
    values["2"] = str(Fraction(values["2"]) + 1)


def _double_maximizer(payload):
    values = payload["maximizer"]["values"]
    for p in values:
        values[p] = str(2 * Fraction(values[p]))


def _g_equal_f(payload):
    payload["g"] = payload["f"]


def _keep_a_stranger(payload):
    payload["kept"].append(["0", "2"])


@pytest.mark.parametrize("argv, tamper", [
    (["witness", "--gamma", "1", "--pairs", "@p", "@m"], _raise_last_value),
    (["norm", "@mu", "--metric", "@m"], _double_maximizer),
    (["slice-diam", "--alpha", "1/2", "@unit", "--metric", "@m"], _g_equal_f),
    (["prune-cm", "--gamma", "3/4", "--bound", "2", "--pairs", "@p", "@mu",
      "--metric", "@m"], _keep_a_stranger),
], ids=["cm-witness", "dual-norm", "slice-diameter", "prune"])
def test_verify_refuses_what_the_shared_replay_refuses(files, capsys, tmp_path,
                                                       argv, tamper):
    """One tamper per replay that the builder and `verify` share."""
    inputs = {"m": files("m.json", LINE3_JSON),
              "p": files("p.json", DESCENT_PAIRS),
              "mu": files("mu.json", DESCENT_MEASURE),
              "unit": files("unit.json", {"atoms": [
                  {"from": "1", "to": "0", "weight": "1"}]})}
    code, report = run_json(capsys, [inputs[a[1:]] if a.startswith("@")
                                     else a for a in argv])
    assert code == 0
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    tamper(payload)
    assert _verify_code(capsys, tmp_path, payload) == 1


PATH_ABC_JSON = {"points": ["a", "b", "c"], "base": "a",
                 "distances": [["0", "1", "2"], ["1", "0", "1"],
                               ["2", "1", "0"]]}


def test_verify_slice_diameter_needs_what_slice_diameter_needs(
        files, capsys, tmp_path):
    """alpha in (0, 2] and a pair of two distinct known labels, else an
    `error:` line: "ab" must not unpack into the labels a and b."""
    m = files("m.json", PATH_ABC_JSON)
    mu = files("mu.json", {"atoms": [
        {"from": "c", "to": "b", "weight": "1/2"},
        {"from": "b", "to": "a", "weight": "1/2"}]})
    code, report = run_json(capsys, ["slice-diam", "--alpha", "1/2",
                                     "--normalize", mu, "--metric", m])
    assert code == 0 and report["payload"]["method"] == "lp"
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    for field, value in (("alpha", "5"), ("alpha", "0"), ("alpha", "-1/2"),
                         ("pair", "ab"), ("pair", ["a"]), ("pair", ["a", "a"]),
                         ("pair", ["a", "z"]), ("pair", {"a": "b"})):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"payload": dict(payload,
                                                    **{field: value})}))
        assert main(["verify", str(path)]) == 1, (field, value)
        assert capsys.readouterr().err.startswith("error: "), (field, value)


def test_verify_ties_sd2p_parts_to_the_measures(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    unit = files("unit.json", {"atoms": [
        {"from": "1", "to": "0", "weight": "1"}]})
    code, report = run_json(capsys, ["sd2p-cert", "--gamma", "1/2", mu, unit,
                                     "--metric", m])
    assert code == 0
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    measures = payload["measures"]
    payload["measures"] = measures[::-1]
    assert _verify_code(capsys, tmp_path, payload) == 1
    payload["measures"] = measures + [measures[0]]
    assert _verify_code(capsys, tmp_path, payload) == 1


def test_verify_ties_optimality_to_its_measure(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    opposite = files("opp.json", {"atoms": [
        {"from": "0", "to": "2", "weight": "1"},
        {"from": "2", "to": "0", "weight": "1"}]})
    _, optimal = run_json(capsys, ["optimal", mu, "--metric", m])
    _, not_optimal = run_json(capsys, ["optimal", opposite, "--metric", m])
    payload = optimal["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    # A non-optimal measure under the certificate of another support.
    swapped = dict(payload, measure=not_optimal["payload"]["measure"])
    assert _verify_code(capsys, tmp_path, swapped) == 1
    # The same support with a negative weight.
    signed = json.loads(json.dumps(payload))
    signed["measure"]["atoms"][0]["weight"] = "-1/2"
    assert _verify_code(capsys, tmp_path, signed) == 1
    # A violation filed as the certificate of an "optimal" verdict.
    flipped = dict(not_optimal["payload"], optimal=True,
                   support_certificate=not_optimal["payload"][
                       "support_violation"])
    assert _verify_code(capsys, tmp_path, flipped) == 1


def test_verify_lip_ltp_absent_covers_every_candidate(files, capsys,
                                                      tmp_path):
    m = files("m.json", LINE3_JSON)
    f = files("f.json", {"values": {"0": "0", "1": "1", "2": "2"}})
    code, report = run_json(capsys, ["lip-ltp", "--eps", "1/4", "--subset",
                                     "0,1,2", "--function", f, m])
    assert code == 2
    payload = report["payload"]
    rows = payload["violations"]
    assert len(rows) == 14
    assert _verify_code(capsys, tmp_path, payload) == 0
    assert _verify_code(capsys, tmp_path, dict(payload, violations=rows[:1])) \
        == 1
    # (0, 1) is compatible on the subset {0}; the rows use 1 and 2.
    assert _verify_code(capsys, tmp_path, dict(payload, subset=["0"])) == 1
    # A string such as "01" or "012" is no pair and no subset, though it
    # unpacks into labels.
    joined = [dict(row, candidate="".join(row["candidate"])) for row in rows]
    assert _verify_code(capsys, tmp_path, dict(payload, violations=joined)) \
        == 1
    assert _verify_code(capsys, tmp_path, dict(payload, subset="012")) == 1


def test_verify_two_lip_ltp_absent_covers_every_candidate(files, capsys,
                                                          tmp_path):
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    code, report = run_json(capsys, ["two-lip-ltp", "--eps", "1/2",
                                     "--pairs", p, m])
    assert code == 2
    payload = report["payload"]
    rows = payload["failures"]
    assert len(rows) == 6
    assert _verify_code(capsys, tmp_path, payload) == 0
    for tampered in (rows[:1], [], rows[::-1],
                     [dict(rows[0], side="sideways")] + rows[1:],
                     [dict(row, candidate="".join(row["candidate"]))
                      for row in rows]):
        assert _verify_code(capsys, tmp_path,
                            dict(payload, failures=tampered)) == 1


def _example52_lip_ltp(files, capsys, eps):
    """A lip-ltp report for the Example 5.2 function on example52:1."""
    f = files("f52.json", function_to_json(
        example52_function(build_example52(1))))
    return run_json(capsys, ["lip-ltp", "--builtin", "example52:1", "--eps",
                             eps, "--subset", ",".join(EXAMPLE52_N),
                             "--function", f])


def test_verify_lip_ltp_rows_to_the_last_unit(files, capsys, tmp_path):
    """At eps = 1/14 and f in halves, b * K = 14 * 2: a side one 1/28 off
    is rejected, an unreduced side that equals it is not."""
    code, report = _example52_lip_ltp(files, capsys, "1/14")
    assert code == 2
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    rows = payload["violations"]
    k = next(i for i, row in enumerate(rows)
             if (row["lhs"], row["rhs"]) == ("65/28", "2"))
    for field, value, want in (("rhs", "57/28", 1), ("rhs", "55/28", 1),
                               ("lhs", "66/28", 1), ("lhs", "130/56", 0),
                               ("rhs", "56/28", 0)):
        tampered = [dict(row) for row in rows]
        tampered[k][field] = value
        assert _verify_code(capsys, tmp_path,
                            dict(payload, violations=tampered)) == want, value


def test_verify_lip_ltp_rejects_a_row_that_holds(files, capsys, tmp_path):
    """A logged row whose sides recompute exactly but with lhs <= rhs
    refutes nothing, though every candidate stays covered."""
    code, report = _example52_lip_ltp(files, capsys, "1/14")
    assert code == 2
    payload = report["payload"]
    space = build_example52(1)
    f = example52_function(space)
    u, v = payload["violations"][0]["candidate"]
    scale = 1 - Fraction(1, 14)
    x, y = next((x, y) for x in EXAMPLE52_N for y in EXAMPLE52_N
                if scale * (abs(f(x) - f(y)) + space.d(u, v))
                <= space.d(x, u) + space.d(y, v))
    held = {"candidate": [u, v], "x": x, "y": y,
            "lhs": str(scale * (abs(f(x) - f(y)) + space.d(u, v))),
            "rhs": str(space.d(x, u) + space.d(y, v))}
    assert _verify_code(capsys, tmp_path, dict(
        payload, violations=[held] + payload["violations"])) == 1


def test_verify_lip_ltp_found_pair_must_hold(files, capsys, tmp_path):
    code, report = _example52_lip_ltp(files, capsys, "1/2")
    assert code == 0
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    # (x1, x2) is refuted: the row x = x1, y = x2 reads d(x1, x2) / 2 > 0.
    assert payload["pair"] != ["x1", "x2"]
    assert _verify_code(capsys, tmp_path,
                        dict(payload, pair=["x1", "x2"])) == 1
    # A degenerate pair, and eps = 1, where every row holds trivially.
    assert _verify_code(capsys, tmp_path, dict(payload, pair=["x1", "x1"])) \
        == 1
    assert _verify_code(capsys, tmp_path, dict(payload, eps="1")) == 1


def test_verify_lip_ltp_found_pair_must_be_a_list(files, capsys, tmp_path):
    """On one-character labels the string "02" unpacks into ("0", "2")."""
    f = files("f.json", {"values": {"0": "0", "1": "0", "2": "0"}})
    code, report = run_json(capsys, ["lip-ltp", "--builtin", "line:3",
                                     "--eps", "1/2", "--subset", "0,1",
                                     "--function", f])
    assert code == 0
    payload = report["payload"]
    assert payload["pair"] == ["0", "2"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({"payload": dict(payload, pair="02")}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: a pair must be a list")


def test_verify_refuses_a_string_in_a_pair_set(files, capsys, tmp_path):
    """A pair set holds lists: on one-character labels the string "21"
    would unpack into the pair (2, 1)."""
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    mu = files("mu.json", DESCENT_MEASURE)
    runs = [(["check-cm", "--gamma", "1", "--pairs", p, m], "pairs"),
            (["ld2p-cert", "--gamma", "1/2", mu, "--metric", m], "pair_set"),
            (["prune-cm", "--gamma", "3/4", "--bound", "2", "--pairs", p, mu,
              "--metric", m], "kept")]
    for argv, field in runs:
        code, report = run_json(capsys, argv)
        assert code == 0, argv
        payload = report["payload"]
        assert _verify_code(capsys, tmp_path, payload) == 0, argv
        pairs = payload[field]
        assert pairs and all(len(u + v) == 2 for u, v in pairs), argv
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps({"payload": dict(
            payload, **{field: ["".join(pair) for pair in pairs]})}))
        assert main(["verify", str(path)]) == 1, argv
        assert capsys.readouterr().err.startswith(
            "error: a pair must be a list"), argv


def test_string_points_exit_1(files, capsys):
    """`points` holds labels: the string "012" is not the labels 0, 1, 2."""
    m = files("m.json", dict(LINE3_JSON, points="012"))
    assert main(["validate", m]) == 1
    assert capsys.readouterr().err == ("error: malformed metric JSON: "
                                       "'points' is a string, not a list "
                                       "of labels\n")


def test_verify_example52_reports(capsys, tmp_path):
    code, report = run_json(capsys, ["example52", "--levels", "1",
                                     "--random-measures", "2"])
    assert code == 0
    payload = report["payload"]
    assert _verify_code(capsys, tmp_path, payload) == 0
    for part in ("w-d2p", "ld2p"):
        _, single = run_json(capsys, ["example52", "--levels", "1", "--part",
                                      part, "--random-measures", "1"])
        assert _verify_code(capsys, tmp_path, single["payload"]) == 0, part

    def tampered(edit):
        body = json.loads(json.dumps(payload))
        edit(body)
        return _verify_code(capsys, tmp_path, body)

    def flip_refutation(body):
        body["w_d2p"]["found"] = True
        body["w_d2p"]["pair"] = ["x1", "y1"]

    def flip_run(body):
        body["ld2p"]["runs"][0]["found"] = False

    def miscount(body):
        body["ld2p"]["certified"] -= 1

    def swap_measures(body):
        runs = body["ld2p"]["runs"]
        runs[0]["measure"], runs[-1]["measure"] = \
            runs[-1]["measure"], runs[0]["measure"]

    def relabel_levels(body):
        body["levels"] = 2

    for edit in (flip_refutation, flip_run, miscount, swap_measures,
                 relabel_levels):
        assert tampered(edit) == 1, edit.__name__


def test_json_floats_and_booleans_exit_1(files, capsys, tmp_path):
    m = files("m.json", LINE3_JSON)
    float_weight = files("fw.json", {"atoms": [
        {"from": "1", "to": "0", "weight": 0.1}]})
    assert main(["norm", float_weight, "--metric", m]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    bool_distance = files("bd.json", dict(LINE3_JSON, distances=[
        ["0", True, "2"], ["1", "0", "1"], ["2", "1", "0"]]))
    assert main(["norm", files("u.json", DESCENT_MEASURE),
                 "--metric", bool_distance]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    p = files("p.json", DESCENT_PAIRS)
    _, report = run_json(capsys, ["check-cm", "--gamma", "1", "--pairs", p, m])
    report["payload"]["potentials"][0] = 0.0
    path = tmp_path / "float.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [True, 0]],
     "bad rational literal True: write an integer or a 'p/q' string"),
    ([[0, 0.5], [0.5, 0]],
     "bad rational literal 0.5: write an integer or a 'p/q' string"),
    ([[0, None], [None, 0]], "bad rational literal None"),
    ([[0, [1]], [[1], 0]], "bad rational literal [1]"),
    ([[0, "abc"], ["abc", 0]], "bad rational literal 'abc'"),
    ([[0, "1/0"], ["1/0", 0]], "bad rational literal '1/0'"),
    ([[0, 1], ["abc"]], "bad rational literal 'abc'"),
    ([[0, 1], 5], "distance matrix does not match point count"),
    ([[0, 1], "10"], "distance matrix does not match point count"),
    (["01", "10"], "distance matrix does not match point count"),
])
def test_malformed_distance_cells_exit_1(files, capsys, rows, message):
    """A bad cell gets `parse_rational`'s error line, before the shape
    error of its short row; a row that is no list, or is a string of
    one-character cells, gets the shape error."""
    m = files("m.json", {"points": ["a", "b"], "base": "a",
                         "distances": rows})
    pairs = files("p.json", {"pairs": [["a", "b"]]})
    for argv in (["check-cm", "--gamma", "1", "--pairs", pairs, m],
                 ["validate", m]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


@pytest.mark.parametrize("points, base", [
    ([[0], "b"], "b"),
    ([[0], "b"], [1]),
    (["a", "b"], [1]),
])
def test_unhashable_labels_exit_1(files, capsys, points, base):
    """A JSON list as a point label or as the base is an `error:` line."""
    m = files("m.json", {"points": points, "base": base,
                         "distances": [[0, 1], [1, 0]]})
    pairs = files("p.json", {"pairs": [["a", "b"]]})
    for argv in (["check-cm", "--gamma", "1", "--pairs", pairs, m],
                 ["validate", m]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == \
            "error: bad point label: unhashable type: 'list'\n", argv


@pytest.mark.parametrize("obj", [{"values": [0, 1]}, {"values": "01"},
                                 {"value": {}}, [0, 1]])
def test_malformed_function_json_exit_1(files, capsys, obj):
    f = files("f.json", obj)
    assert main(["lip-ltp", "--builtin", "line:2", "--eps", "1/2",
                 "--subset", "0,1", "--function", f]) == 1
    assert capsys.readouterr().err.startswith(
        "error: malformed function JSON: ")


def test_integer_steep_filter_matches_fraction_slopes(monkeypatch):
    """The battery's steep pairs, decided on integers, are the pairs of
    slope exactly 1 in `Fraction`, in `space.pairs()` order."""
    steep_pairs = cli._steep_pairs
    seen = []

    def checked(f):
        steep = steep_pairs(f)
        assert steep == [p for p in f.space.pairs() if slope(f, p) == 1]
        seen.append(steep)
        return steep
    monkeypatch.setattr(cli, "_steep_pairs", checked)
    for levels in (1, 2, 3):
        space = build_example52(levels)
        for seed in range(21):
            cli._battery_measures(space, seed, 2)
    assert len(seen) >= 3 * 21 * 2


@pytest.mark.parametrize("bound", [2.9, "2", True, 0, -5])
def test_verify_prune_requires_an_admissible_integer_bound(files, capsys,
                                                           tmp_path, bound):
    m = files("m.json", LINE3_JSON)
    p = files("p.json", DESCENT_PAIRS)
    mu = files("mu.json", DESCENT_MEASURE)
    code, report = run_json(capsys, ["prune-cm", "--gamma", "3/4", "--bound",
                                     "2", "--pairs", p, mu, "--metric", m])
    assert code == 0
    assert _verify_code(capsys, tmp_path, report["payload"]) == 0
    path = tmp_path / "prune.json"
    path.write_text(json.dumps(dict(report["payload"], bound=bound)))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad", [[1], None, 1.0, True])
def test_non_string_literals_exit_1(files, capsys, tmp_path, bad):
    m = files("m.json", LINE3_JSON)
    mu = files("mu.json", DESCENT_MEASURE)
    rows = [row[:] for row in LINE3_JSON["distances"]]
    rows[0][1] = bad
    bad_metric = files("bm.json", dict(LINE3_JSON, distances=rows))
    f = function_to_json(example52_function(build_example52(1)))
    f["values"]["x2"] = bad
    bad_function = files("bf.json", f)
    runs = [["norm", mu, "--metric", bad_metric],
            ["lip-ltp", "--builtin", "example52:1", "--eps", "1/14",
             "--subset", ",".join(EXAMPLE52_N), "--function", bad_function]]
    code, report = _example52_lip_ltp(files, capsys, "1/14")
    assert code == 2
    report["payload"]["violations"][0]["lhs"] = bad
    path = tmp_path / "lhs.json"
    path.write_text(json.dumps(report))
    runs.append(["verify", str(path)])
    for argv in runs:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
