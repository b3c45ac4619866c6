"""Command-line front end.

Exit codes: 0 = property holds / certificate found, 2 = property refuted
or search exhausted (with an audit payload), 1 = input or internal error,
or a report that `verify` rejects.  Reports are one line of compact JSON
(``--format json``, keys in report order) or a short text rendering; the
certificate body is deterministic for identical inputs.  Each command
builds a payload and hands it to `emit`, which takes the verdict, exit
code and inputs hash from `reports.envelope`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import d2p, functionals, reports
from .errors import InvalidInput, SoundnessError
from .lipschitz import (LipschitzFunction, PartialFunction, function_from_json,
                        lip_norm, mcshane_sup_extension, slope)
from .metric import (FiniteMetricSpace, builtin_space, parse_rational,
                     space_from_json, validate_metric)
from .monotone import (CmCertificate, check_gamma_cm, inf_extension,
                       prune_to_cm, replay_witness)

EXIT_ERROR = 1

EXAMPLE52_EPS = Fraction(1, 14)
# The most random measures `example52` draws; each costs one LD2P search.
MAX_RANDOM_MEASURES = 1000
# The hand-built norm-one function used in the w*-D2P refutation: 0 on
# x1 and y3, 1/2 on y2, 3/2 on y1 and x3, 2 on x2, 1 on every detour point.
EXAMPLE52_N = ("x1", "x2", "x3", "y1", "y2", "y3")
# The closing text line of `example52 --part all`, by verdict.
EXAMPLE52_SUMMARY = {"reproduced": "separating example reproduced",
                     "not-reproduced": "separating example NOT reproduced"}


def example52_function(space: FiniteMetricSpace) -> LipschitzFunction:
    special = {"x1": Fraction(0), "y3": Fraction(0), "y2": Fraction(1, 2),
               "y1": Fraction(3, 2), "x3": Fraction(3, 2), "x2": Fraction(2)}
    vals = {p: special.get(p, Fraction(1)) for p in space.points}
    return LipschitzFunction(space, vals)


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from None


def _read_space(args) -> FiniteMetricSpace:
    builtin = getattr(args, "builtin", None)
    metric = getattr(args, "metric", None)
    if builtin and metric:
        raise InvalidInput("give either a metric file or --builtin, not both")
    if builtin:
        return builtin_space(builtin)
    if metric:
        return space_from_json(_read_json(metric))
    raise InvalidInput("a metric is required (file argument or --builtin)")


def _load_space(args) -> FiniteMetricSpace:
    """The space of every command but `validate`: distinct points must be
    at positive distance, or quotients and extensions divide by zero."""
    return _read_space(args).require_positive()


def _load_pairs(space, path):
    obj = _read_json(path)
    try:
        raw = obj["pairs"]
    except (KeyError, TypeError):
        raise InvalidInput(f"{path} is missing a 'pairs' list") from None
    return reports.pairs_from_json(space, raw)


def _load_measure(space, path):
    return functionals.measure_from_json(space, _read_json(path))


def _rational(args, flag: str) -> Fraction:
    """The value of a rational flag such as ``--gamma 1/2``."""
    value = getattr(args, flag)
    try:
        return parse_rational(value)
    except InvalidInput:
        raise InvalidInput(f"--{flag} needs a rational like 1/2, "
                           f"got {value!r}") from None


# ---------------------------------------------------------------------------
# Output

def emit(args, payload: dict, started: float, text_lines: list[str]) -> int:
    """Print the report around `payload`; return its exit code.  The
    verdict, exit code and inputs hash come from `reports.envelope`.  A
    proof is written first: if it cannot be, no report is printed."""
    if args.emit_proof:
        proof = render_proof(payload)
        try:
            with open(args.emit_proof, "w") as fh:
                fh.write(proof)
        except OSError as exc:
            raise InvalidInput(
                f"cannot write {args.emit_proof}: {exc}") from None
    envelope = reports.envelope(payload)
    report = {
        "command": getattr(args, "argv_echo", [args.cmd]),
        **envelope,
        "payload": payload,
        "elapsed_seconds": round(time.monotonic() - started, 6),
    }
    if args.format == "json":
        print(json.dumps(report, separators=(",", ":")))
    else:
        print(f"[{envelope['verdict']}]")
        for line in text_lines:
            print(" ", line)
    return envelope["exit_code"]


def render_proof(payload: dict) -> str:
    """Human-readable derivation: every replayed inequality, exact values."""
    lines = [f"derivation for payload kind {payload.get('kind')}", ""]
    try:
        space = space_from_json(payload["space"])
    except (KeyError, InvalidInput):
        return "\n".join(lines + ["(no embedded space; nothing to derive)"])
    kind = payload.get("kind")
    if kind == "ld2p-certificate":
        mu = functionals.measure_from_json(space, payload["measure"])
        gamma = parse_rational(payload["gamma"])
        pairs = reports.pairs_from_json(space, payload["pair_set"])
        lines.append(f"mu(A) = {mu.mass_of(pairs)} >= {gamma} * mu(M~) = "
                     f"{gamma * mu.total_mass()}")
        lines += _two_sided_proof(space, payload, pairs, gamma,
                                  payload["u"], payload["v"])
    elif kind == "two-lip-ltp" and payload.get("found"):
        gamma = 1 - parse_rational(payload["eps"])
        lines += _two_sided_proof(space, payload, reports.pairs_from_json(
            space, payload["pairs"]), gamma, *payload["pair"])
    elif kind == "lip-ltp" and not payload.get("found", True):
        eps = parse_rational(payload["eps"])
        for viol in payload["violations"]:
            u, v = viol["candidate"]
            lines.append(
                f"candidate ({u},{v}) fails at ({viol['x']},{viol['y']}): "
                f"(1-{eps})(|df|+d) = {viol['lhs']} > {viol['rhs']}")
    else:
        lines.append(json.dumps(payload, indent=2))
    return "\n".join(lines) + "\n"


def _two_sided_proof(space, payload, pairs, gamma, u, v) -> list[str]:
    """The inequalities `d2p.replay_two_sided` checks, with exact values,
    written once the replay has passed."""
    f = function_from_json(space, payload["f"])
    g = function_from_json(space, payload["g"])
    d2p.replay_two_sided(pairs, gamma, u, v, f, g)
    return [f"lip(f) = {lip_norm(f)} <= 1, lip(g) = {lip_norm(g)} <= 1"] + [
        f"slope({name}, {pair}) = {slope(h, pair)} >= {gamma}"
        for name, h, last in (("f", f, (v, u)), ("g", g, (u, v)))
        for pair in (*pairs, last)]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, started) -> int:
    space = _read_space(args)
    report = validate_metric(space)
    return emit(args, reports.validation_payload(space, report), started,
                [report.message])


def cmd_check_cm(args, started) -> int:
    space = _load_space(args)
    pairs = _load_pairs(space, args.pairs)
    result = check_gamma_cm(space, pairs, _rational(args, "gamma"))
    if isinstance(result, CmCertificate):
        line = f"{len(pairs)} pairs are {result.gamma}-cyclically monotonic"
    else:
        line = f"negative cycle {result.cycle}, deficit {result.deficit}"
    return emit(args, reports.cm_result_payload(space, result), started,
                [line])


def cmd_witness(args, started) -> int:
    space = _load_space(args)
    pairs = _load_pairs(space, args.pairs)
    gamma = _rational(args, "gamma")
    result = check_gamma_cm(space, pairs, gamma)
    if isinstance(result, CmCertificate):
        f = inf_extension(space, result)
        replay_witness(pairs, gamma, f)
        payload = reports.witness_payload(space, pairs, gamma, f)
        line = "unit-ball witness synthesized"
    else:
        payload = reports.cm_result_payload(space, result)
        line = f"no witness: negative cycle {result.cycle}"
    return emit(args, payload, started, [line])


def cmd_norm(args, started) -> int:
    space = _load_space(args)
    mu = _load_measure(space, args.measure)
    result = functionals.dual_norm(mu)
    return emit(args, reports.norm_payload(mu, result), started,
                [f"dual norm = {result.norm} ({result.method})"])


def cmd_optimal(args, started) -> int:
    space = _load_space(args)
    mu = _load_measure(space, args.measure)
    verdict = functionals.is_optimal(mu)
    line = ("support is cyclically monotonic; norm attained"
            if verdict.optimal else f"norm gap {verdict.gap}")
    return emit(args, reports.optimality_payload(mu, verdict), started,
                [line])


def cmd_positivize(args, started) -> int:
    space = _load_space(args)
    nu = _load_measure(space, args.measure)
    mu = functionals.positivize(nu)
    return emit(args, reports.positivize_payload(nu, mu), started,
                [f"{len(mu.atoms)} positive atoms, total variation "
                 f"{mu.total_variation()}"])


def cmd_slice_diam(args, started) -> int:
    space = _load_space(args)
    mu = _load_measure(space, args.measure)
    alpha = _rational(args, "alpha")
    if args.normalize:
        norm = functionals.dual_norm(mu).norm
        if norm == 0:
            raise InvalidInput("cannot normalize a null functional")
        mu = mu.scaled(1 / norm)
    result = functionals.slice_diameter(mu, alpha)
    return emit(args, reports.slice_payload(mu, alpha, result), started,
                [f"supremal diameter {result.diameter} at pair {result.pair}"])


def cmd_lip_ltp(args, started) -> int:
    space = _load_space(args)
    subset = [s for s in args.subset.split(",") if s]
    f = function_from_json(space, _read_json(args.function))
    eps = _rational(args, "eps")
    result = d2p.lip_ltp_witness(space, subset, eps, f)
    line = (f"compatible pair {result.pair}" if result.found
            else f"no compatible pair; {len(result.violations)} violation "
                 "rows recorded")
    return emit(args, reports.lip_ltp_payload(space, subset, eps, f, result),
                started, [line])


def cmd_two_lip_ltp(args, started) -> int:
    space = _load_space(args)
    pairs = _load_pairs(space, args.pairs)
    result = d2p.two_lip_ltp_witness(space, pairs, _rational(args, "eps"))
    line = (f"pair {result.pair} works for both directions" if result.found
            else f"{len(result.failures)} candidates failed")
    return emit(args, reports.two_lip_ltp_payload(space, pairs, result),
                started, [line])


def cmd_ld2p_cert(args, started) -> int:
    space = _load_space(args)
    mu = _load_measure(space, args.measure)
    gamma = _rational(args, "gamma")
    outcome = d2p.ld2p_certificate(mu, gamma)
    cert = outcome.certificate
    if cert is not None:
        payload = reports.ld2p_payload(mu, cert)
        line = (f"pair ({cert.u}, {cert.v}), set of {len(cert.pair_set)} "
                "pairs")
    else:
        payload = reports.ld2p_absent_payload(mu, gamma, outcome.log)
        line = f"exhausted after scanning {outcome.log.scanned} candidates"
    return emit(args, payload, started, [line])


def cmd_sd2p_cert(args, started) -> int:
    space = _load_space(args)
    mu_list = [_load_measure(space, path) for path in args.measures]
    gamma = _rational(args, "gamma")
    outcome = d2p.sd2p_certificate(mu_list, gamma)
    cert = outcome.certificate
    if cert is not None:
        payload = reports.sd2p_payload(mu_list, cert)
        line = f"common pair ({cert.u}, {cert.v})"
    else:
        payload = reports.sd2p_absent_payload(mu_list, gamma, outcome.log)
        line = "no common pair found"
    return emit(args, payload, started, [line])


def cmd_prune_cm(args, started) -> int:
    space = _load_space(args)
    pairs = _load_pairs(space, args.pairs)
    mu = _load_measure(space, args.measure)
    gamma = _rational(args, "gamma")
    kept = prune_to_cm(space, pairs, mu, gamma, args.bound)
    payload = reports.prune_payload(space, pairs, mu, gamma, args.bound, kept)
    return emit(args, payload, started,
                [f"kept {len(kept)} of {len(pairs)} pairs"])


def cmd_verify(args, started) -> int:
    report = _read_json(args.report)
    if not isinstance(report, dict):
        raise InvalidInput(f"{args.report} does not hold a report object")
    summary = reports.verify_payload(report)
    return emit(args, {"kind": "verify", "summary": summary,
                       "report_inputs_sha256": report.get("inputs_sha256")},
                started, [summary])


# ---------------------------------------------------------------------------
# Example 5.2 reproduction

def _steep_pairs(f: LipschitzFunction) -> list:
    """The pairs of `space.pairs()` across which f has slope 1, decided as
    F_x - F_y == s * D_xy on f's ints F over K, with s = K / L."""
    space, F = f.space, f.F
    s = f.K // space.scale
    pts = space.points
    return [(pts[i], pts[j]) for i, row in enumerate(space.int_dist)
            for j in range(len(pts)) if i != j and F[i] - F[j] == s * row[j]]


def _battery_measures(space: FiniteMetricSpace, seed: int, count: int):
    """Unit atoms on the core-hexagon pairs plus seeded random optimal
    measures with cyclically monotonic support."""
    measures = []
    for a in EXAMPLE52_N:
        for b in EXAMPLE52_N:
            if a != b:
                measures.append(functionals.PairMeasure(
                    space, {(a, b): Fraction(1)}))
    rng = random.Random(seed)
    pts = list(space.points)
    while count > 0:
        anchors = rng.sample(pts, 3)
        vals = {p: Fraction(rng.randint(0, 2)) for p in anchors}
        try:
            f, _ = mcshane_sup_extension(PartialFunction(space, vals), space)
        except InvalidInput:
            continue
        steep = _steep_pairs(f)
        if not steep:
            continue
        support = rng.sample(steep, min(len(steep), rng.randint(1, 3)))
        weights = [Fraction(rng.randint(1, 4)) for _ in support]
        total = sum(weights)
        measures.append(functionals.PairMeasure(
            space, {p: w / total for p, w in zip(support, weights)}))
        count -= 1
    return measures


def _battery_run(mu: functionals.PairMeasure, gamma: Fraction) -> dict:
    outcome = d2p.ld2p_certificate(mu, gamma)
    measure_json = functionals.measure_to_json(mu)
    if outcome.certificate is None:
        return {"measure": measure_json, "found": False,
                "scanned": outcome.log.scanned}
    return {"measure": measure_json, "found": True,
            "certificate": reports.ld2p_payload(mu, outcome.certificate)}


def cmd_example52(args, started) -> int:
    try:
        seed = int(os.environ.get("LIPFREE_SEED", "0"))
    except ValueError:
        raise InvalidInput("LIPFREE_SEED must be an integer, got "
                           f"{os.environ['LIPFREE_SEED']!r}") from None
    if not 0 <= args.random_measures <= MAX_RANDOM_MEASURES:
        raise InvalidInput("--random-measures must lie in 0.."
                           f"{MAX_RANDOM_MEASURES}, got {args.random_measures}")
    space = builtin_space(f"example52:{args.levels}")
    gamma = _rational(args, "gamma")
    payload: dict = {"kind": "example52", "levels": args.levels,
                     "space": reports.space_to_json(space)}
    lines: list[str] = []

    if args.part in ("w-d2p", "all"):
        f = example52_function(space)
        result = d2p.lip_ltp_witness(space, EXAMPLE52_N, EXAMPLE52_EPS, f)
        payload["w_d2p"] = reports.lip_ltp_payload(
            space, EXAMPLE52_N, EXAMPLE52_EPS, f, result)
        if result.found:
            lines.append(f"unexpected compatible pair {result.pair}: the "
                         "refutation FAILED")
        else:
            lines.append(f"no compatible (u, v) at eps = {EXAMPLE52_EPS}; "
                         f"{len(result.violations)} violation rows")

    if args.part in ("ld2p", "all"):
        results = [_battery_run(mu, gamma) for mu in
                   _battery_measures(space, seed, args.random_measures)]
        found = sum(1 for r in results if r["found"])
        payload["ld2p"] = {"gamma": reports.frac(gamma), "seed": seed,
                           "total": len(results), "certified": found,
                           "runs": results}
        lines.append(f"LD2P battery: {found}/{len(results)} certificates "
                     f"at gamma = {gamma}")

    if args.part == "all":
        lines.append(EXAMPLE52_SUMMARY[reports.verdict_of(payload)[0]])
    return emit(args, payload, started, lines)


# ---------------------------------------------------------------------------
# Parser

def _add_space_opts(p, positional_metric: bool):
    if positional_metric:
        p.add_argument("metric", nargs="?", help="metric JSON file")
    else:
        p.add_argument("--metric", help="metric JSON file")
    p.add_argument("--builtin", help="builtin space, e.g. example52:2, line:5")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    keeps its state in a fresh namespace per call, never in the parser."""
    ap = argparse.ArgumentParser(
        prog="lipcert",
        description="Certificates for cyclic monotonicity, norm attainment "
                    "and diameter-two properties over finite metric spaces.")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--emit-proof", metavar="PATH",
                    help="also write a human-readable derivation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the metric axioms")
    _add_space_opts(p, True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check-cm", help="decide gamma-cyclic monotonicity")
    p.add_argument("--gamma", required=True)
    p.add_argument("--pairs", required=True, help="pair set JSON file")
    _add_space_opts(p, True)
    p.set_defaults(fn=cmd_check_cm)

    p = sub.add_parser("witness", help="synthesize a unit-ball witness")
    p.add_argument("--gamma", required=True)
    p.add_argument("--pairs", required=True)
    _add_space_opts(p, True)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("norm", help="exact dual norm of a measure")
    p.add_argument("measure", help="measure JSON file")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("optimal", help="decide norm attainment")
    p.add_argument("measure")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_optimal)

    p = sub.add_parser("positivize", help="reflect negative atoms")
    p.add_argument("measure")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_positivize)

    p = sub.add_parser("slice-diam", help="supremal slice diameter")
    p.add_argument("--alpha", required=True)
    p.add_argument("--normalize", action="store_true",
                   help="rescale the measure to norm one first")
    p.add_argument("measure")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_slice_diam)

    p = sub.add_parser("lip-ltp", help="search a Lip-LTP compatible pair")
    p.add_argument("--eps", required=True)
    p.add_argument("--subset", required=True,
                   help="comma-separated point labels")
    p.add_argument("--function", required=True, help="function JSON file")
    _add_space_opts(p, True)
    p.set_defaults(fn=cmd_lip_ltp)

    p = sub.add_parser("two-lip-ltp", help="two-sided compatible pair search")
    p.add_argument("--eps", required=True)
    p.add_argument("--pairs", required=True)
    _add_space_opts(p, True)
    p.set_defaults(fn=cmd_two_lip_ltp)

    p = sub.add_parser("ld2p-cert", help="local diameter-two certificate")
    p.add_argument("--gamma", required=True)
    p.add_argument("measure")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_ld2p_cert)

    p = sub.add_parser("sd2p-cert", help="strong diameter-two certificate")
    p.add_argument("--gamma", required=True)
    p.add_argument("measures", nargs="+")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_sd2p_cert)

    p = sub.add_parser("prune-cm", help="extract a 1-CM subset, integer "
                                        "metrics only")
    p.add_argument("--gamma", required=True)
    p.add_argument("--bound", type=int, required=True,
                   help="integer distance bound n")
    p.add_argument("--pairs", required=True)
    p.add_argument("measure")
    _add_space_opts(p, False)
    p.set_defaults(fn=cmd_prune_cm)

    p = sub.add_parser("example52", help="reproduce the separating example")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--part", choices=("w-d2p", "ld2p", "all"), default="all")
    p.add_argument("--gamma", default="1/2")
    p.add_argument("--random-measures", type=int, default=20)
    p.set_defaults(fn=cmd_example52)

    p = sub.add_parser("verify", help="replay a report without searching")
    p.add_argument("report", help="report JSON file")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv_echo = list(argv)
    started = time.monotonic()
    try:
        return args.fn(args, started)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SoundnessError as exc:
        print(f"internal soundness error (this is a bug): {exc}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
