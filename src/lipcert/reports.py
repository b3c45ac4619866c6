"""JSON report payloads and search-free re-verification.

Each payload is self-contained (it embeds the space and the inputs it
certifies), serialises rationals as ``"p/q"`` strings, and can be
replayed by :func:`verify_payload` without re-running any search.  Every
payload format is built here.  `verify_payload` checks each certificate
with the one replay its builder ran before returning it:
`CmCertificate.replay` / `CmViolation.replay`, `monotone.replay_witness`,
`DualNormResult.replay`, `SliceDiameterResult.replay`,
`d2p.replay_two_sided` (LD2P, SD2P, found 2-Lip-LTP) and
`monotone.replay_prune`.  Around them it checks only how a payload's
parts tie to its inputs, and the refutation tables row by row.

The envelope of a report is decided here too.  `envelope` returns the
hash of a payload's inputs (`INPUT_FIELDS`) and its verdict and exit code
from the one table `VERDICTS`.  The CLI's `emit` writes it, and
`verify_payload` requires a report's envelope to equal it.  A replay
that fails inside `verify_payload`, or an envelope that differs, is
`InvalidInput` starting with "report rejected:": the report is at fault,
not the program.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .d2p import (Ld2pCertificate, LipLtpInequality, LipLtpWitness,
                  Sd2pCertificate, TwoLipLtpResult, replay_two_sided)
from .errors import InvalidInput, SoundnessError
from .functionals import (DualNormResult, OptimalityVerdict, PairMeasure,
                          SliceDiameterResult, _check_alpha, measure_from_json,
                          measure_to_json, positivize)
from .lipschitz import (LipschitzFunction, function_from_json, function_to_json,
                        in_unit_ball)
from .metric import (FiniteMetricSpace, Pair, PairSet, ValidationReport,
                     _literal_parser, build_example52, make_pair_set,
                     parse_rational, rational_str, space_from_json,
                     space_to_json, validate_metric)
from .monotone import (CmCertificate, CmResult, CmViolation, check_gamma,
                       cycle_weight, replay_prune, replay_witness)


def frac(x) -> str:
    return rational_str(x if isinstance(x, Fraction) else Fraction(x))


def pairs_to_json(pairs: PairSet) -> list[list[str]]:
    return [[a, b] for a, b in pairs]


def pairs_from_json(space: FiniteMetricSpace, raw) -> PairSet:
    """Each item read by `_pair_from_json`; repeats dropped, as in
    `make_pair_set`."""
    if not isinstance(raw, list):
        raise InvalidInput(f"a pair set must be a list, got {raw!r}")
    return tuple(dict.fromkeys([_pair_from_json(space, p) for p in raw]))


def _pair_from_json(space: FiniteMetricSpace, raw) -> Pair:
    """A JSON list of two distinct labels; a string such as "ab" is not a
    pair, though it unpacks into two labels."""
    if not isinstance(raw, list):
        raise InvalidInput(f"a pair must be a list, got {raw!r}")
    return space.check_pair(raw)


def canonical_hash(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The report envelope

EXIT_OK = 0        # the property holds, or a certificate was found
EXIT_REFUTED = 2   # the property is refuted, or the search is exhausted

# Payload kind -> (verdict, exit code).  A kind whose outcome is one
# boolean field of its payload maps instead to (field, verdict when it is
# true, verdict when it is false); true exits 0 and false exits 2.
# `example52` is derived from its parts by `_example52_verdict`.
VERDICTS = {
    "validation": ("ok", "ok", "invalid-metric"),
    "cm-certificate": ("certificate", EXIT_OK),
    "cm-violation": ("violation", EXIT_REFUTED),
    "cm-witness": ("witness", EXIT_OK),
    "dual-norm": ("ok", EXIT_OK),
    "optimality": ("optimal", "optimal", "not-optimal"),
    "positivize": ("ok", EXIT_OK),
    "slice-diameter": ("ok", EXIT_OK),
    "lip-ltp": ("found", "witness", "absent"),
    "two-lip-ltp": ("found", "witness", "absent"),
    "ld2p-certificate": ("certificate", EXIT_OK),
    "ld2p-absent": ("absent", EXIT_REFUTED),
    "sd2p-certificate": ("certificate", EXIT_OK),
    "sd2p-absent": ("absent", EXIT_REFUTED),
    "prune": ("ok", EXIT_OK),
    "verify": ("verified", EXIT_OK),
}

# The payload fields that hold a report's inputs, hashed into
# `inputs_sha256`; a field the payload lacks hashes as null.
INPUT_FIELDS = ("space", "measure", "measures", "pairs", "function", "subset",
                "gamma", "eps", "alpha", "bound")


def verdict_of(payload: dict) -> tuple[str, int]:
    """The verdict and exit code of a report around `payload`."""
    kind = payload["kind"]
    if kind == "example52":
        return _example52_verdict(payload)
    entry = VERDICTS[kind]
    if len(entry) == 2:
        return entry
    field, holds, refuted = entry
    return (holds, EXIT_OK) if payload[field] else (refuted, EXIT_REFUTED)


def _example52_verdict(payload: dict) -> tuple[str, int]:
    """The w*-D2P part alone carries the verdict of its lip-ltp report;
    the LD2P battery alone is "certificate" when every run found one;
    both are "reproduced" when the lip-ltp report is absent and every run
    found a certificate."""
    battery = payload.get("ld2p")
    certified = (battery is not None
                 and battery["certified"] == battery["total"])
    if "w_d2p" not in payload:
        return (("certificate", EXIT_OK) if certified
                else ("absent", EXIT_REFUTED))
    if battery is None:
        return verdict_of(payload["w_d2p"])
    if certified and not payload["w_d2p"]["found"]:
        return "reproduced", EXIT_OK
    return "not-reproduced", EXIT_REFUTED


# The fields a report carries around its payload, in report order.
ENVELOPE_FIELDS = ("inputs_sha256", "verdict", "exit_code")


def envelope(payload: dict) -> dict:
    """The `ENVELOPE_FIELDS` of a report around `payload`: the hash of its
    inputs, its verdict and its exit code."""
    verdict, exit_code = verdict_of(payload)
    return {"inputs_sha256": canonical_hash(
                {k: payload.get(k) for k in INPUT_FIELDS}),
            "verdict": verdict, "exit_code": exit_code}


# ---------------------------------------------------------------------------
# Payload builders

def cm_result_payload(space: FiniteMetricSpace, result: CmResult) -> dict:
    body = {
        "space": space_to_json(space),
        "gamma": frac(result.gamma),
        "pairs": pairs_to_json(result.pairs),
    }
    if isinstance(result, CmCertificate):
        body["kind"] = "cm-certificate"
        body["potentials"] = [frac(a) for a in result.potentials]
    else:
        body["kind"] = "cm-violation"
        body["cycle"] = list(result.cycle)
        body["deficit"] = frac(result.deficit)
    return body


def witness_payload(space, pairs, gamma, f: LipschitzFunction) -> dict:
    return {
        "kind": "cm-witness",
        "space": space_to_json(space),
        "gamma": frac(gamma),
        "pairs": pairs_to_json(pairs),
        "function": function_to_json(f),
    }


def norm_payload(mu: PairMeasure, result: DualNormResult) -> dict:
    return {
        "kind": "dual-norm",
        "space": space_to_json(mu.space),
        "measure": measure_to_json(mu),
        "norm": frac(result.norm),
        "maximizer": function_to_json(result.maximizer),
        "method": result.method,
    }


def optimality_payload(mu: PairMeasure, verdict: OptimalityVerdict) -> dict:
    body = {
        "kind": "optimality",
        "space": space_to_json(mu.space),
        "measure": measure_to_json(mu),
        "optimal": verdict.optimal,
    }
    if verdict.certificate is not None:
        body["support_certificate"] = cm_result_payload(mu.space,
                                                        verdict.certificate)
    if verdict.violation is not None:
        body["support_violation"] = cm_result_payload(mu.space,
                                                      verdict.violation)
        body["gap"] = frac(verdict.gap)
    return body


def positivize_payload(nu: PairMeasure, mu: PairMeasure) -> dict:
    return {
        "kind": "positivize",
        "space": space_to_json(nu.space),
        "input": measure_to_json(nu),
        "output": measure_to_json(mu),
    }


def slice_payload(mu: PairMeasure, alpha, result: SliceDiameterResult) -> dict:
    return {
        "kind": "slice-diameter",
        "space": space_to_json(mu.space),
        "measure": measure_to_json(mu),
        "alpha": frac(alpha),
        "supremal_diameter": frac(result.diameter),
        "pair": list(result.pair),
        "f": function_to_json(result.f),
        "g": function_to_json(result.g),
        "method": result.method,
    }


def lip_ltp_payload(space, subset, eps, f, result: LipLtpWitness) -> dict:
    body = {
        "kind": "lip-ltp",
        "space": space_to_json(space),
        "subset": list(subset),
        "eps": frac(eps),
        "function": function_to_json(f),
        "found": result.found,
    }
    if result.found:
        body["pair"] = list(result.pair)
    else:
        # The scan shares one Fraction per distinct side, so each literal
        # is rendered once per object; keying by identity also skips
        # Fraction's costly hash.  Every object stays alive in `result`.
        sides = {id(q): q for viol in result.violations
                 for q in (viol.lhs, viol.rhs)}
        text = {key: frac(q) for key, q in sides.items()}
        body["violations"] = [
            {"candidate": list(cand), "x": x, "y": y,
             "lhs": text[id(lhs)], "rhs": text[id(rhs)]}
            for cand, x, y, lhs, rhs in result.violations]
    return body


def two_lip_ltp_payload(space, pairs, result: TwoLipLtpResult) -> dict:
    body = {
        "kind": "two-lip-ltp",
        "space": space_to_json(space),
        "pairs": pairs_to_json(pairs),
        "eps": frac(result.eps),
        "found": result.found,
    }
    if result.found:
        body["pair"] = list(result.pair)
        body["f"] = function_to_json(result.f)
        body["g"] = function_to_json(result.g)
    else:
        body["failures"] = [
            {"candidate": list(c), "side": side, "cycle": list(cyc)}
            for c, side, cyc in result.failures]
    return body


def ld2p_payload(mu: PairMeasure, cert: Ld2pCertificate) -> dict:
    return {
        "kind": "ld2p-certificate",
        "space": space_to_json(mu.space),
        "measure": measure_to_json(mu),
        "gamma": frac(cert.gamma),
        "pair_set": pairs_to_json(cert.pair_set),
        "u": cert.u,
        "v": cert.v,
        "f": function_to_json(cert.f),
        "g": function_to_json(cert.g),
    }


def ld2p_absent_payload(mu: PairMeasure, gamma, log) -> dict:
    return {
        "kind": "ld2p-absent",
        "space": space_to_json(mu.space),
        "measure": measure_to_json(mu),
        "gamma": frac(gamma),
        "scanned": log.scanned,
        "failures": [{"candidate_index": i, "pair": list(p), "side": s}
                     for i, p, s in log.entries],
        "truncated": log.truncated,
    }


def sd2p_payload(mu_list, cert: Sd2pCertificate) -> dict:
    return {
        "kind": "sd2p-certificate",
        "space": space_to_json(mu_list[0].space),
        "measures": [measure_to_json(mu) for mu in mu_list],
        "u": cert.u,
        "v": cert.v,
        "parts": [ld2p_payload(mu, part)
                  for mu, part in zip(mu_list, cert.parts)],
    }


def sd2p_absent_payload(mu_list, gamma, log) -> dict:
    return {
        "kind": "sd2p-absent",
        "space": space_to_json(mu_list[0].space),
        "gamma": frac(gamma),
        "scanned": log.scanned,
    }


def prune_payload(space, pairs, mu, gamma, n, kept: PairSet) -> dict:
    return {
        "kind": "prune",
        "space": space_to_json(space),
        "pairs": pairs_to_json(pairs),
        "measure": measure_to_json(mu),
        "gamma": frac(gamma),
        "bound": n,
        "kept": pairs_to_json(kept),
    }


def validation_payload(space, report: ValidationReport) -> dict:
    return {
        "kind": "validation",
        "space": space_to_json(space),
        "ok": report.ok,
        "failure": report.failure,
        "witness": list(report.witness) if report.witness else None,
        "message": report.message,
    }


# ---------------------------------------------------------------------------
# Verification (replay only, no search)

def _ok(cond: bool, msg: str) -> None:
    if not cond:
        raise SoundnessError(msg)


def _ld2p_from_json(space: FiniteMetricSpace, body: dict) -> Ld2pCertificate:
    return Ld2pCertificate(
        pairs_from_json(space, body["pair_set"]),
        function_from_json(space, body["f"]),
        function_from_json(space, body["g"]),
        body["u"], body["v"], parse_rational(body["gamma"]))


def _replay_cm(space: FiniteMetricSpace, body: dict) -> str:
    """Replay a cm-certificate or cm-violation body on `space`."""
    pairs = pairs_from_json(space, body["pairs"])
    gamma = check_gamma(parse_rational(body["gamma"]))
    if body["kind"] == "cm-certificate":
        cert = CmCertificate(pairs, gamma, tuple(
            parse_rational(a) for a in body["potentials"]))
        cert.replay(space)
        return f"potential certificate replayed on {len(cert.pairs)} pairs"
    viol = CmViolation(pairs, gamma, tuple(body["cycle"]),
                       parse_rational(body["deficit"]))
    viol.replay(space)
    return f"negative cycle replayed, deficit {viol.deficit}"


def _replay_lip_ltp(space: FiniteMetricSpace, body: dict) -> str:
    """Replay a lip-ltp body on `space` through `LipLtpInequality`.

    A found pair must satisfy every row (x, y) of the subset.  An absent
    verdict needs a row for every candidate; each row is recomputed on
    integers over b * K by `LipLtpInequality.sides` and compared with its
    logged sides by cross-multiplying, so an unreduced ``"p/q"`` reads the
    same.
    """
    f = function_from_json(space, body["function"])
    subset = body["subset"]
    if not isinstance(subset, list):
        raise InvalidInput(f"a subset must be a list, got {subset!r}")
    members = {p: space.index(p) for p in subset if p in space}
    form = LipLtpInequality(space, parse_rational(body["eps"]), f,
                            members.values())
    _ok(in_unit_ball(f), "function escapes the unit ball")
    _ok(all(p in space for p in subset), "subset leaves the space")
    if body["found"]:
        u, v = _pair_from_json(space, body["pair"])
        bad = form.failing(space.index(u), space.index(v))
        if bad:
            x, y = bad[0][:2]
            raise SoundnessError("witness pair fails at "
                                 f"({space.points[x]}, {space.points[y]})")
        return "compatible pair replayed"
    violations = body["violations"]
    den = form.denominator
    covered = set()
    parse = _literal_parser()
    for viol in violations:  # `_ok` inlined: this loop runs once per row
        candidate = viol["candidate"]  # the cover check refuses the rest
        if type(candidate) is not list:
            raise InvalidInput(f"a pair must be a list, got {candidate!r}")
        u, v = candidate
        covered.add((u, v))
        x, y = members.get(viol["x"]), members.get(viol["y"])
        if x is None or y is None:
            raise SoundnessError("violation row leaves the subset")
        lhs, rhs = form.sides(space.index(u), space.index(v), x, y)
        p, q = parse(viol["lhs"]).as_integer_ratio()
        r, t = parse(viol["rhs"]).as_integer_ratio()
        if lhs * q != p * den or rhs * t != r * den:
            raise SoundnessError("violation row does not recompute")
        if lhs <= rhs:
            raise SoundnessError("logged violation is not a violation")
    _ok(covered == set(space.pairs()), "violation rows miss a candidate")
    return f"{len(violations)} violation rows replayed"


def _replay_example52(space: FiniteMetricSpace, body: dict) -> str:
    """Replay the separating example on `space`, example52 at `levels`.

    The w*-D2P part must be an absent lip-ltp report on the same space;
    every found LD2P battery run replays its ld2p-certificate on the run's
    own measure, and `total` and `certified` must recount from the runs.
    """
    levels = body["levels"]
    # The point count bounds `levels` before the space is rebuilt.
    _ok(type(levels) is int and len(space) == 6 + 6 * levels
        and space_to_json(build_example52(levels)) == body["space"],
        "the space is not example52 at the stated levels")
    _ok("w_d2p" in body or "ld2p" in body, "the report has no part")
    done = []
    if "w_d2p" in body:
        part = body["w_d2p"]
        _ok(part["kind"] == "lip-ltp" and part["space"] == body["space"]
            and not part["found"],
            "the w*-D2P part is not a Lip-LTP refutation on the space")
        done.append(f"w*-D2P refutation: {_replay_lip_ltp(space, part)}")
    if "ld2p" in body:
        battery = body["ld2p"]
        gamma = parse_rational(battery["gamma"])
        runs = battery["runs"]
        found = [run for run in runs if run["found"]]
        _ok(battery["total"] == len(runs)
            and battery["certified"] == len(found),
            "the battery counts do not recount from the runs")
        for run in found:
            cert = run["certificate"]
            mu = measure_from_json(space, run["measure"])
            _ok(cert["kind"] == "ld2p-certificate"
                and cert["space"] == body["space"]
                and parse_rational(cert["gamma"]) == gamma
                and measure_from_json(space, cert["measure"]).atoms
                == mu.atoms,
                "a battery certificate does not certify its run's measure")
            _ld2p_from_json(space, cert).replay(mu)
        done.append(f"{len(found)} of {len(runs)} LD2P battery "
                    "certificates replayed")
    return "; ".join(done)


def _check_envelope(report: dict, payload: dict) -> None:
    """If `report` carries any of `ENVELOPE_FIELDS`, each must equal its
    value in `envelope(payload)`, type included: an `exit_code` of false
    is not 0."""
    if any(field in report for field in ENVELOPE_FIELDS):
        for field, want in envelope(payload).items():
            got = report.get(field)
            _ok(type(got) is type(want) and got == want,
                f"{field} is {got!r}, but the payload gives {want!r}")


def verify_payload(report: dict) -> str:
    """Replay the invariants of a report's payload; return a summary line.

    The payload is `report["payload"]`, or `report` itself if it is a
    bare payload.  If `report` carries any of `ENVELOPE_FIELDS`, each
    must equal what `envelope` derives from the payload.  A bare payload
    carries none of them, so it claims no envelope.

    Raises `InvalidInput` in two ways.  If a replayed inequality fails
    (the replays raise `SoundnessError`), a logged cycle names an entry
    that is not a pair index, or the envelope differs, the message starts
    with "report rejected:".  A malformed payload gets no prefix: a
    missing field, a field of the wrong type, an index out of range, a
    rational field that does not parse, or a kind with no replay.
    """
    payload = report.get("payload", report)
    if not isinstance(payload, dict):
        raise InvalidInput(f"a payload must be an object, got {payload!r}")
    try:
        summary = _replay_payload(payload)
        _check_envelope(report, payload)
        return summary
    except SoundnessError as exc:
        raise InvalidInput(f"report rejected: {exc}") from None
    except InvalidInput:
        raise
    except KeyError as exc:
        raise InvalidInput(f"malformed {payload.get('kind')!r} payload: "
                           f"missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise InvalidInput(f"malformed {payload.get('kind')!r} payload: "
                           f"{exc}") from None


def _replay_validation(space: FiniteMetricSpace, payload: dict) -> str:
    report = validate_metric(space)
    _ok(report.ok == payload["ok"], "validation verdict changed on replay")
    return f"validation verdict replayed: ok={report.ok}"


def _replay_cm_witness(space: FiniteMetricSpace, payload: dict) -> str:
    replay_witness(pairs_from_json(space, payload["pairs"]),
                   parse_rational(payload["gamma"]),
                   function_from_json(space, payload["function"]))
    return "witness function replayed"


def _replay_dual_norm(space: FiniteMetricSpace, payload: dict) -> str:
    result = DualNormResult(
        parse_rational(payload["norm"]),
        function_from_json(space, payload["maximizer"]), payload["method"])
    result.replay(measure_from_json(space, payload["measure"]))
    return f"norm attainment replayed at {result.norm}"


def _replay_optimality(space: FiniteMetricSpace, payload: dict) -> str:
    mu = measure_from_json(space, payload["measure"])
    _ok(mu.is_positive(), "optimality needs a positive measure")
    support = payload["support_certificate" if payload["optimal"]
                      else "support_violation"]
    want = "cm-certificate" if payload["optimal"] else "cm-violation"
    _ok(support["kind"] == want
        and support["space"] == payload["space"]
        and parse_rational(support["gamma"]) == 1
        and set(pairs_from_json(space, support["pairs"]))
        == set(mu.support()),
        f"the {want} is not the 1-CM verdict on the support "
        "of the measure")
    return _replay_cm(space, support)


def _replay_positivize(space: FiniteMetricSpace, payload: dict) -> str:
    nu = measure_from_json(space, payload["input"])
    mu = measure_from_json(space, payload["output"])
    again = positivize(nu)
    _ok(mu.atoms == again.atoms, "output differs from the construction")
    _ok(mu.is_positive(), "output is not positive")
    _ok(mu.total_variation() == nu.total_variation(),
        "total variation not preserved")
    return "positivization replayed"


def _replay_slice(space: FiniteMetricSpace, payload: dict) -> str:
    alpha = _check_alpha(parse_rational(payload["alpha"]))
    result = SliceDiameterResult(
        parse_rational(payload["supremal_diameter"]),
        _pair_from_json(space, payload["pair"]),
        function_from_json(space, payload["f"]),
        function_from_json(space, payload["g"]), payload["method"])
    result.replay(measure_from_json(space, payload["measure"]), alpha)
    return f"slice diameter lower bound {result.diameter} replayed"


def _replay_two_lip_ltp(space: FiniteMetricSpace, payload: dict) -> str:
    """A found pair replays its two-sided witness.  An absent verdict
    needs a failure row for every candidate pair in order, each with a
    cycle of negative weight (`cycle_weight`) in the augmented set."""
    pairs = pairs_from_json(space, payload["pairs"])
    gamma = check_gamma(1 - parse_rational(payload["eps"]))
    if not payload["found"]:
        failures = payload["failures"]
        candidates = [_pair_from_json(space, entry["candidate"])
                      for entry in failures]
        _ok(candidates == list(space.pairs()),
            "failure rows do not cover every candidate pair in order")
        for (u, v), entry in zip(candidates, failures):
            side = entry["side"]
            _ok(side in ("forward", "backward"), f"unknown side {side!r}")
            added = (u, v) if side == "forward" else (v, u)
            aug = make_pair_set(space, pairs + (added,))
            _ok(cycle_weight(space, aug, entry["cycle"], gamma) < 0,
                "logged cycle is not negative")
        return f"{len(failures)} failure rows replayed"
    u, v = _pair_from_json(space, payload["pair"])
    replay_two_sided(pairs, gamma, u, v,
                     function_from_json(space, payload["f"]),
                     function_from_json(space, payload["g"]))
    return "two-sided witness replayed"


def _replay_ld2p(space: FiniteMetricSpace, payload: dict) -> str:
    cert = _ld2p_from_json(space, payload)
    cert.replay(measure_from_json(space, payload["measure"]))
    return f"LD2P certificate replayed at gamma {cert.gamma}"


def _replay_sd2p(space: FiniteMetricSpace, payload: dict) -> str:
    measures = [measure_from_json(space, m) for m in payload["measures"]]
    parts = payload["parts"]
    for mu, part in zip(measures, parts):
        _ok(part["space"] == payload["space"] and mu.atoms
            == measure_from_json(space, part["measure"]).atoms,
            "a part does not certify the measure at its index")
    # The replay also checks that there is one part per measure.
    Sd2pCertificate(tuple(_ld2p_from_json(space, part) for part in parts),
                    payload["u"], payload["v"]).replay(measures)
    return f"SD2P certificate replayed over {len(measures)} functionals"


def _replay_prune(space: FiniteMetricSpace, payload: dict) -> str:
    pairs = pairs_from_json(space, payload["pairs"])
    kept = pairs_from_json(space, payload["kept"])
    mu = measure_from_json(space, payload["measure"])
    gamma = check_gamma(parse_rational(payload["gamma"]))
    n = payload["bound"]
    if type(n) is not int:
        raise InvalidInput(f"the bound must be an integer, got {n!r}")
    replay_prune(space, pairs, mu, gamma, n, kept)
    return f"pruned set replayed, kept {len(kept)} of {len(pairs)} pairs"


# Payload kind -> its replay, called with the payload's space.
REPLAYS = {
    "validation": _replay_validation,
    "cm-certificate": _replay_cm,
    "cm-violation": _replay_cm,
    "cm-witness": _replay_cm_witness,
    "dual-norm": _replay_dual_norm,
    "optimality": _replay_optimality,
    "positivize": _replay_positivize,
    "slice-diameter": _replay_slice,
    "lip-ltp": _replay_lip_ltp,
    "example52": _replay_example52,
    "two-lip-ltp": _replay_two_lip_ltp,
    "ld2p-certificate": _replay_ld2p,
    "sd2p-certificate": _replay_sd2p,
    "prune": _replay_prune,
}


def _replay_payload(payload: dict) -> str:
    """Look the kind up before reading any other field, so that a kind
    with no replay is named as such; then load the space and replay."""
    kind = payload["kind"]
    if not isinstance(kind, str) or kind not in REPLAYS:
        raise InvalidInput(f"unknown payload kind {kind!r}")
    space = space_from_json(payload["space"])
    if kind != "validation":
        space.require_positive()
    return REPLAYS[kind](space, payload)
