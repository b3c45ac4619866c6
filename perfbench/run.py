#!/usr/bin/env python3
"""lipcert benchmark: exact decisions and their replay, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cm-decide --seed 1 \
        --seconds 30 --trace 0

One client runs a closed loop: it calls the CLI entry ``lipcert.cli.main``
in-process, with stdout captured, on JSON files generated from ``--seed``,
and starts the next op only when the previous one has finished.  Every
decision whose payload kind ``lipcert verify`` can replay is followed by a
``verify`` of its report.  An op fails when its exit code or verdict
differs from the answer known by construction, a known-answer check on
its payload fails, ``verify`` rejects its report, it exits 1 or it
raises.  ``--jobs`` is never passed.  A garbage collection precedes each
decision.  Times are scaled to a reference CPU speed sampled while each
call runs (see ``SpeedMeter``), and each verify runs three times, of which
the median counts.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, where the
benchmark's own wrappers time the public functions of each ``src/lipcert``
module (see ``tracing.py``).  Per-layer times and counts are given per
decision op (its verify included).  The traced run traces even cycles and
leaves odd cycles untraced; the difference is the tracing overhead.  It is
noisy, as the cycles hold different inputs; ``trace.spans_per_op`` times
``trace.span_cost_us`` is the wrappers' own cost.

``--record-digests`` runs only the first cycle and stores the sha256 of
each op's payload in ``payload_digests.json``; later runs count the
first-cycle payloads that differ from it as ``reports.payload_changed``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "payload_digests.json")
SETUP_REPEATS = 5
# A run ends at the first cycle boundary after --seconds at which it holds
# MIN_OPS decisions (so that the 90th percentile has 10 samples beyond
# it), so that every run holds whole cycles and the class counts of
# `workloads` place each percentile.  STOP_S ends a run mid-cycle, so that
# even a much slower program finishes within three minutes.
MIN_OPS = 100
STOP_S = 120
# The host's CPU speed drifts by up to 2x over seconds, for wall time and
# CPU time alike.  Every timed call therefore runs under `SpeedMeter`: a
# timer signal samples a fixed slice of Fraction arithmetic every
# SAMPLE_EVERY_S while the call runs (and once before and after it), the
# samples' own time is taken out of the call's, and the call is reported
# in reference-speed seconds:
#     (wall seconds - sample seconds) * PROBE_REF_S / mean(sample seconds)
# PROBE_REF_S is a sample's typical duration on an Intel Xeon 2-vCPU VM
# with Python 3.11.7, so values stay close to wall time there.
SAMPLE_EVERY_S = 0.01
PROBE_REF_S = 0.0001
# Every verify runs VERIFY_REPEATS times; its latency is their median.
VERIFY_REPEATS = 3

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# Layers that the op mix of a workload should never reach.
PREDICTED_IDLE = {
    "cm-decide": ("lpcore", "d2p"),
    "lp-solve": ("d2p",),
    "example52": ("lpcore",),
}

END_TO_END = {
    "setup_s": "s", "decisions_per_s": "1/s", "decide_ms_p50": "ms",
    "decide_ms_p90": "ms", "verify_ms_p50": "ms", "verify_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def canonical_sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def op_key(op: workloads.Op) -> str:
    """Identifies an op by its inputs, never by file paths."""
    return canonical_sha256({"argv": op.argv, "files": op.files,
                             "env": op.env})[:16]


# Small denominators keep the sum's size fixed, as in the program's
# arithmetic.
_PROBE_TERMS = [Fraction(i % 7 + 1, i % 5 + 1) for i in range(64)]


def speed_probe() -> float:
    """Seconds for a fixed slice of Fraction arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for term in _PROBE_TERMS:
        total += term
    return time.perf_counter() - start


class SpeedMeter:
    """Times calls at reference speed, sampling the CPU's speed with
    `speed_probe` from a timer signal while each call runs."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        start = time.perf_counter()
        self._samples.append((start, speed_probe()))

    def call(self, fn):
        """Run ``fn()``; returns (reference-speed seconds, wall seconds,
        result)."""
        self._samples.clear()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = end - start - sum(d for t, d in self._samples[1:] if t < end)
        self._sample()
        speed = statistics.fmean(d for _, d in self._samples)
        return wall * PROBE_REF_S / speed, wall, result


def report_of(stdout: str) -> dict:
    """The JSON report an op printed, or {} if it printed none."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return {}
    return report if isinstance(report, dict) else {}


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Set-up

def import_cli():
    """Import ``lipcert.cli`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "lipcert" or m.startswith("lipcert.")]:
        del sys.modules[name]
    cli = importlib.import_module("lipcert.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"lipcert imported from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


class Pool:
    """Inputs of one run, generated a cycle at a time from the seed."""

    def __init__(self, workload: str, seed: int, directory: str):
        self.make_cycle = workloads.WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.directory = directory

    def cycle(self, index: int) -> list[tuple[workloads.Op, list[str]]]:
        """Ops of cycle ``index`` (-1 is the warm-up cycle), with argv
        resolved to files written under the pool directory."""
        rng = random.Random(f"lipcert-bench/{self.workload}/{self.seed}/"
                            f"{index}")
        out = []
        for k, op in enumerate(self.make_cycle(rng)):
            paths = {}
            for name, obj in op.files.items():
                path = os.path.join(self.directory,
                                    f"c{index}-{k}-{name}.json")
                with open(path, "w") as fh:
                    json.dump(obj, fh)
                paths[name] = path
            argv = ["--format", "json"] + [
                paths[a[1:]] if a.startswith("@") else a for a in op.argv]
            out.append((op, argv))
        return out


def set_up(workload: str, seed: int, meter: SpeedMeter):
    """Import plus input generation and writing, repeated; returns the
    median time, the CLI module and the pool with its first cycle."""
    times = []
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(WORK,
                                 f"{workload}-{seed}-{os.getpid()}-{rep}")
        shutil.rmtree(directory, ignore_errors=True)

        def body():
            cli = import_cli()
            os.makedirs(directory)
            pool = Pool(workload, seed, directory)
            return cli, pool, pool.cycle(0)

        took, _, (cli, pool, first) = meter.call(body)
        times.append(took)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return statistics.median(times), cli, pool, first


# ---------------------------------------------------------------------------
# Running ops

def call_cli(meter: SpeedMeter, cli, argv: list[str], env: dict[str, str],
             collect: bool = True):
    """Run ``cli.main(argv)`` in-process, after a garbage collection unless
    ``collect`` is false; returns (reference-speed seconds, wall seconds,
    exit code, stdout, stderr), with exit code None when it raised."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()

    def main():
        try:
            return cli.main(argv)
        except (Exception, SystemExit):  # a failed op, not a crash
            traceback.print_exc(file=err)
            return None

    if collect:
        gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            took, wall, code = meter.call(main)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return took, wall, code, out.getvalue(), err.getvalue()


class Run:
    def __init__(self, meter: SpeedMeter, cli, pool: Pool,
                 digests: dict[str, str], record: bool = False):
        self.meter = meter
        self.cli = cli
        self.pool = pool
        self.reference = digests
        self.record = record
        self.decide_s: list[float] = []
        self.verify_s: list[float] = []
        self.decide_wall_s: list[float] = []
        # Reference-speed and wall seconds of the traced calls.
        self.traced_ref_s = 0.0
        self.traced_wall_s = 0.0
        # Op class -> (decide seconds, verify seconds).
        self.by_kind: dict[str, tuple[list, list]] = {}
        self.failures: list[str] = []
        self.payload_checked = 0
        self.payload_changed = 0
        self.recorded: dict[str, str] = {}

    def op(self, index: int, op: workloads.Op, argv: list[str],
           timed: bool = True, tracer=None) -> None:
        if tracer is not None:
            tracer.op = (index, "decide")
        took, wall, code, out, err = call_cli(self.meter, self.cli, argv,
                                              op.env)
        if tracer is not None:
            self.traced_ref_s += took
            self.traced_wall_s += wall
        problem, payload = self._judge(op, code, out, err)
        verify_took = None
        if problem is None and payload["kind"] not in \
                workloads.UNVERIFIABLE_KINDS:
            report = os.path.join(self.pool.directory, "report.json")
            with open(report, "w") as fh:
                fh.write(out)
            if tracer is not None:
                tracer.op = (index, "verify")
            # A traced verify runs once, so that spans count one replay.
            times = []
            for _ in range(1 if tracer is not None else VERIFY_REPEATS):
                verify_took, verify_wall, vcode, vout, verr = call_cli(
                    self.meter, self.cli,
                    ["--format", "json", "verify", report], {}, False)
                times.append(verify_took)
                if vcode != 0 or \
                        report_of(vout).get("verdict") != "verified":
                    problem = f"verify exit {vcode}: {verr.strip()[-300:]}"
                    break
            if tracer is not None:
                self.traced_ref_s += verify_took
                self.traced_wall_s += verify_wall
            verify_took = statistics.median(times)
        if payload is not None:
            self._digest(op, payload)
        if not timed:
            return
        self.decide_s.append(took)
        self.decide_wall_s.append(wall)
        decide, verify = self.by_kind.setdefault(op.kind, ([], []))
        decide.append(took)
        if verify_took is not None:
            self.verify_s.append(verify_took)
            verify.append(verify_took)
        if problem is not None:
            self.failures.append(f"{op.kind} ({' '.join(argv)}): {problem}")

    @staticmethod
    def _judge(op, code, out, err):
        """Known-answer check of one decision; (problem or None, payload)."""
        if code is None:
            return f"raised: {err.strip()[-300:]}", None
        if code == 1:
            return f"exit 1: {err.strip()[-300:]}", None
        report = report_of(out)
        payload = report.get("payload")
        if not isinstance(payload, dict):
            return f"exit {code} without a JSON report", None
        if op.expect_exit is not None and code != op.expect_exit:
            return f"exit {code}, expected {op.expect_exit}", payload
        if op.expect_verdict is not None and \
                report["verdict"] != op.expect_verdict:
            return (f"verdict {report['verdict']}, expected "
                    f"{op.expect_verdict}"), payload
        if op.check is not None:
            problem = op.check(payload)
            if problem is not None:
                return problem, payload
        return None, payload

    def _digest(self, op, payload) -> None:
        key = op_key(op)
        if key not in self.reference and not self.record:
            return
        digest = canonical_sha256(payload)[:16]
        self.recorded[key] = digest
        if key in self.reference:
            self.payload_checked += 1
            if self.reference[key] != digest:
                self.payload_changed += 1


def warm_up(run: Run) -> None:
    """One untimed op per command, the one with the smallest inputs, on
    inputs that no timed op uses."""
    smallest = {}
    for index, (op, argv) in enumerate(run.pool.cycle(-1)):
        size = len(json.dumps(op.files))
        if op.argv[0] not in smallest or size < smallest[op.argv[0]][0]:
            smallest[op.argv[0]] = (size, index, op, argv)
    for _, index, op, argv in smallest.values():
        run.op(index, op, argv, timed=False)


def measure(run: Run, first, seconds: float, tracer=None):
    """Run cycles until the stop rule above holds.  With a tracer, even
    cycles are traced and odd ones are not, and the run ends after an
    untraced cycle.  Returns the decide times of (traced, untraced) ops."""
    traced_s, untraced_s = [], []
    start = time.perf_counter()
    index = 0
    cycle_no = 0
    ops = first
    while True:
        traced = tracer is not None and cycle_no % 2 == 0
        if traced:
            tracer.enable()
        elif tracer is not None:
            tracer.disable()
        before = len(run.decide_s)
        for op, argv in ops:
            run.op(index, op, argv, tracer=tracer if traced else None)
            index += 1
            if time.perf_counter() - start >= STOP_S:
                break
        (traced_s if traced else untraced_s).extend(run.decide_s[before:])
        cycle_no += 1
        elapsed = time.perf_counter() - start
        done = elapsed >= STOP_S or (
            elapsed >= seconds and len(run.decide_s) >= MIN_OPS
            and (tracer is None or cycle_no % 2 == 0))
        if done:
            break
        ops = run.pool.cycle(cycle_no)
    if tracer is not None:
        tracer.disable()
    return traced_s, untraced_s


# ---------------------------------------------------------------------------
# Reporting

def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    program = hashlib.sha256()
    lib = os.path.join(SRC, "lipcert")
    for name in sorted(os.listdir(lib)):
        if name.endswith(".py"):
            with open(os.path.join(lib, name), "rb") as fh:
                program.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(),
            "src_sha256": program.hexdigest()[:16]}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def end_to_end(run: Run, setup_s: float) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "decisions_per_s": len(run.decide_s) / sum(run.decide_s),
        "decide_ms_p50": 1e3 * statistics.median(run.decide_s),
        "decide_ms_p90": 1e3 * p90(run.decide_s),
        "verify_ms_p50": 1e3 * statistics.median(run.verify_s),
        "verify_ms_p90": 1e3 * p90(run.verify_s),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: Run, tracer: Tracer, traced_s, untraced_s) -> dict:
    """Per-layer metrics per traced decision op.  Span times are wall time;
    they are scaled to reference speed by the traced calls' mean factor."""
    ops = len(traced_s)
    t = tracer
    c = t.counters

    def ratio(a, b):
        return a / b if b else 0.0

    cm_calls = t.calls("monotone.check_gamma_cm")
    rows = [
        ("monotone.check_gamma_cm_calls", cm_calls / ops, "count/op"),
        ("monotone.check_gamma_cm_self_s",
         t.self_s("monotone.check_gamma_cm") / ops, "s/op"),
        ("monotone.cm_edges", c["monotone.cm_edges"] / ops, "count/op"),
        ("monotone.cm_certified_ratio",
         ratio(c["monotone.cm_certified"], cm_calls), "ratio"),
        ("monotone.check_augmented_calls",
         t.calls("monotone.check_augmented") / ops, "count/op"),
        ("monotone.check_augmented_self_s",
         t.self_s("monotone.check_augmented") / ops, "s/op"),
        ("monotone.synthesize_witness_calls",
         t.calls("monotone.synthesize_witness") / ops, "count/op"),
        ("monotone.synthesize_witness_self_s",
         t.self_s("monotone.synthesize_witness") / ops, "s/op"),
        ("monotone.replay_s", (t.total_s("monotone.CmCertificate.replay")
                               + t.total_s("monotone.CmViolation.replay"))
         / ops, "s/op"),
        ("d2p.augment_per_certificate",
         ratio(t.calls("monotone.check_augmented"), c["d2p.certificates"]),
         "ratio"),
        ("lipschitz.lip_norm_calls", t.calls("lipschitz.lip_norm") / ops,
         "count/op"),
        ("lipschitz.lip_norm_pairs", c["lipschitz.lip_norm_pairs"] / ops,
         "count/op"),
        ("lipschitz.lip_norm_self_s", t.self_s("lipschitz.lip_norm") / ops,
         "s/op"),
        ("lpcore.solve_lp_calls", t.calls("lpcore.solve_lp") / ops,
         "count/op"),
        ("lpcore.solve_lp_self_s", t.self_s("lpcore.solve_lp") / ops,
         "s/op"),
        ("lpcore.tableau_cells", c["lpcore.tableau_cells"] / ops, "count/op"),
        ("lpcore.pivots", t.calls("lpcore._pivot") / ops, "count/op"),
        ("functionals.dual_norm_self_s",
         t.self_s("functionals.dual_norm") / ops, "s/op"),
        ("functionals.lp_route_ratio",
         ratio(c["functionals.dual_norm_lp"],
               c["functionals.dual_norm_results"]), "ratio"),
        ("functionals.is_optimal_self_s",
         t.self_s("functionals.is_optimal") / ops, "s/op"),
        ("functionals.slice_diameter_self_s",
         t.self_s("functionals.slice_diameter") / ops, "s/op"),
        ("functionals.apsp_s",
         t.total_s("functionals._apsp_with_slice") / ops, "s/op"),
        ("d2p.lip_ltp_self_s", t.self_s("d2p.lip_ltp_witness") / ops, "s/op"),
        ("d2p.ld2p_self_s", t.self_s("d2p.ld2p_certificate") / ops, "s/op"),
        ("d2p.sd2p_self_s", t.self_s("d2p.sd2p_certificate") / ops, "s/op"),
        ("d2p.two_lip_ltp_self_s", t.self_s("d2p.two_lip_ltp_witness") / ops,
         "s/op"),
        ("d2p.replay_s", (t.total_s("d2p.Ld2pCertificate.replay")
                          + t.total_s("d2p.Sd2pCertificate.replay")) / ops,
         "s/op"),
        ("cli.json_load_s", t.total_s("cli.json.load") / ops, "s/op"),
        ("cli.json_dump_s", t.total_s("cli.json.dumps") / ops, "s/op"),
        ("cli.report_bytes", c["cli.report_bytes"] / ops, "bytes/op"),
        ("metric.space_from_json_s", t.total_s("metric.space_from_json") / ops,
         "s/op"),
        ("metric.space_to_json_s", t.total_s("metric.space_to_json") / ops,
         "s/op"),
        ("metric.validate_metric_s", t.total_s("metric.validate_metric") / ops,
         "s/op"),
        ("reports.verify_payload_self_s",
         t.self_s("reports.verify_payload") / ops, "s/op"),
        ("reports.payload_build_s", c["reports.payload_build_s"] / ops,
         "s/op"),
        ("reports.payload_changed", run.payload_changed, "count"),
        ("reports.payload_checked", run.payload_checked, "count"),
    ]
    rows += [(f"{layer}.self_s", t.layer_self_s(layer) / ops, "s/op")
             for layer in LAYERS]
    traced_mean = statistics.fmean(traced_s)
    # Without an untraced cycle (a hard stop in the first) overhead reads 0.
    untraced_mean = statistics.fmean(untraced_s) if untraced_s else traced_mean
    rows += [("trace.overhead_ms_per_op", 1e3 * (traced_mean - untraced_mean),
              "ms/op"),
             ("trace.overhead_ratio", traced_mean / untraced_mean - 1,
              "ratio"),
             ("trace.spans_per_op", len(t.spans) / ops, "count/op"),
             ("trace.span_cost_us", 1e6 * t.span_cost_s(), "us")]
    speed = run.traced_ref_s / run.traced_wall_s
    return {name: {"value": value * speed if unit == "s/op" else value,
                   "unit": unit}
            for name, value, unit in rows}


def print_summary(workload, seed, env, run: Run, metrics, tracer=None):
    print(f"lipcert benchmark  workload={workload} seed={seed}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    failed_ratio = len(run.failures) / max(len(run.decide_s), 1)
    print(f"decision ops: {len(run.decide_s)}, verify ops: "
          f"{len(run.verify_s)}, failed: {len(run.failures)} "
          f"(failed_ratio {failed_ratio:.4f}), one client, closed loop")
    print(f"wall clock: decide p50 "
          f"{1e3 * statistics.median(run.decide_wall_s):.2f} ms, "
          f"{len(run.decide_wall_s) / sum(run.decide_wall_s):.3f} "
          f"decisions/s; reported times are at reference speed")
    print(f"payload digests: {run.payload_checked} checked against the "
          f"reference, {run.payload_changed} changed")
    print(f"  {'op class':28s} {'n':>4s} {'decide median':>16s} "
          f"{'verify median':>16s}")
    for kind, (decide, verify) in sorted(run.by_kind.items()):
        replay = f"{1e3 * statistics.median(verify):13.2f} ms" if verify \
            else f"{'-':>16s}"
        print(f"  {kind:28s} {len(decide):4d} "
              f"{1e3 * statistics.median(decide):13.2f} ms {replay}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    if tracer is not None:
        if tracer.absent:
            print("absent layers: " + ", ".join(tracer.absent))
        if tracer.broken_counters:
            print("counters unavailable for: "
                  + ", ".join(sorted(tracer.broken_counters)))
        for layer in PREDICTED_IDLE[workload]:
            calls = sum(v[0] for k, v in tracer.stats.items()
                        if k.split(".", 1)[0] == layer)
            verdict = "idle as predicted" if calls == 0 else \
                f"NOT idle: {calls} calls"
            print(f"bypass: {layer} predicted idle on {workload}: {verdict}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run the first cycle and store its payload "
                         "digests as the reference")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "lipcert")):
        print(f"error: no lipcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    reference = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            reference = json.load(fh)["digests"]

    meter = SpeedMeter()
    setup_s, cli, pool, first = set_up(args.workload, args.seed, meter)
    try:
        run = Run(meter, cli, pool, reference, args.record_digests)
        if args.record_digests:
            for index, (op, op_argv) in enumerate(first):
                run.op(index, op, op_argv)
            if run.failures:
                print("\n".join(run.failures), file=sys.stderr)
                return 1
            reference.update(run.recorded)
            with open(DIGESTS, "w") as fh:
                json.dump({"program_src_sha256":
                           environment()["src_sha256"],
                           "digests": dict(sorted(reference.items()))},
                          fh, indent=0)
            print(f"recorded {len(run.recorded)} payload digests")
            return 0
        warm_up(run)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        traced_s, untraced_s = measure(run, first, args.seconds, tracer)
        if tracer is None:
            metrics = end_to_end(run, setup_s)
        else:
            metrics = per_layer(run, tracer, traced_s, untraced_s)
            tracer.write(os.path.join(WORK,
                                      f"spans-{args.workload}.jsonl.gz"))
        print_summary(args.workload, args.seed, environment(), run, metrics,
                      tracer)
    finally:
        shutil.rmtree(pool.directory, ignore_errors=True)
    print(json.dumps({"correct": not run.failures and bool(run.decide_s),
                      "attempted": len(run.decide_s),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
