"""Span tracing of the lipcert layers, installed from outside the program.

The tracer wraps functions of the ``lipcert`` modules and patches every
module namespace that bound them (``from .monotone import check_gamma_cm``
puts a copy in ``d2p``, ``functionals``, ``reports`` and ``cli``).  Each
call records a span (id, parent id, op id, phase, name, start, end) in
memory; self time is a span's duration minus its children's.  A wrap
target that no longer exists is reported as an absent layer.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "lipcert"
LAYERS = ("cli", "metric", "lipschitz", "monotone", "lpcore", "functionals",
          "d2p", "reports")

# Public functions too fine-grained to trace: they run once per distance,
# pair or atom, so a span each would cost more than the work it times.
LEAVES = {
    "metric": {"parse_rational", "rational_str", "reflect", "reflect_set",
               "project", "make_pair_set"},
    "lipschitz": {"slope"},
    "monotone": {"beta", "check_gamma", "cycle_sum"},
    "reports": {"frac", "pairs_to_json", "pairs_from_json"},
    "functionals": {"apply_measure"},
}

# Private functions and methods that carry a layer's work.
EXTRA = {
    "lpcore": ["_pivot"],
    "functionals": ["_apsp_with_slice"],
    "monotone": ["CmCertificate.replay", "CmViolation.replay"],
    "d2p": ["Ld2pCertificate.replay", "Sd2pCertificate.replay"],
}


def _lp_cells(lp) -> int:
    """Tableau size of ``solve_lp``: rows x (2 n + slacks + artificials)."""
    m = len(lp.rows)
    artificial = sum(1 for b in lp.rhs if b < 0)
    return m * (2 * lp.num_vars + m + artificial)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.op = (-1, "")
        self.absent: list[str] = []
        # Work counters whose hook no longer fits the traced function.
        self.broken_counters: set[str] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._payload_depth = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, makes_payload: bool = False):
        tracer = self
        stack = self._stack
        stats = self.stats
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            if makes_payload:
                tracer._payload_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                entry = stats[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[1]
                if makes_payload:
                    tracer._payload_depth -= 1
                    if tracer._payload_depth == 0:
                        tracer.counters["reports.payload_build_s"] += took
                op_id, phase = tracer.op
                spans.append((span_id, parent, op_id, phase, name, start, end))
            if after is not None and name not in tracer.broken_counters:
                try:
                    after(tracer.counters, args, result)
                except (AttributeError, TypeError):
                    tracer.broken_counters.add(name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _targets(self, module):
        """(attribute path, function) pairs to wrap in one module."""
        layer = module.__name__.rsplit(".", 1)[-1]
        skip = LEAVES.get(layer, set())
        out = []
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and attr not in skip):
                out.append((attr, value))
        for path in EXTRA.get(layer, ()):
            obj = module
            try:
                for part in path.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                self.absent.append(f"{layer}.{path}")
                continue
            out.append((path, obj))
        return out

    def install(self) -> None:
        """Wrap every target and list the patches for each namespace that
        bound it; `enable` applies them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replacement = {}
        for layer in LAYERS:
            module = modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                self.absent.append(layer)
                continue
            for path, fn in self._targets(module):
                name = f"{layer}.{path}"
                # Payload constructors: the outermost calls are summed.
                makes_payload = (layer == "reports"
                                 and path.endswith("_payload")
                                 and path != "verify_payload")
                wrapped = self._wrap(name, fn, _AFTER.get(name), makes_payload)
                replacement[id(fn)] = wrapped
                if "." in path:
                    cls_name, meth = path.split(".")
                    self._patches.append((getattr(module, cls_name), meth,
                                          fn, wrapped))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacement:
                    self._patches.append((mod, attr, value,
                                          replacement[id(value)]))
        cli = modules.get(f"{PACKAGE}.cli")
        if cli is not None and hasattr(cli, "json"):
            self._patches.append((cli, "json", cli.json, self._json_proxy(
                cli.json)))

    def _json_proxy(self, real):
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(vars(real))
        proxy.load = self._wrap("cli.json.load", real.load)
        proxy.loads = self._wrap("cli.json.loads", real.loads)

        def count_bytes(counters, args, result):
            counters["cli.report_bytes"] += len(result)
        proxy.dumps = self._wrap("cli.json.dumps", real.dumps, count_bytes)
        return proxy

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""
        def noop():
            return None
        wrapped = self._wrap("trace.calibration", noop)
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (perf_counter() - start - bare) / calls
        del self.spans[-calls:]
        del self.stats["trace.calibration"]
        return cost

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items()
                   if k.split(".", 1)[0] == layer)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "phase", "name", "start", "end"),
                    span))) + "\n")


# Work counters updated from a traced call's arguments and result.

def _after_check_gamma_cm(counters, args, result):
    m = len(result.pairs)
    counters["monotone.cm_edges"] += m * m
    if type(result).__name__ == "CmCertificate":
        counters["monotone.cm_certified"] += 1


def _after_lip_norm(counters, args, result):
    n = len(args[0].space)
    counters["lipschitz.lip_norm_pairs"] += n * (n - 1) // 2


def _after_solve_lp(counters, args, result):
    counters["lpcore.tableau_cells"] += _lp_cells(args[0])


def _after_dual_norm(counters, args, result):
    counters["functionals.dual_norm_results"] += 1
    if result.method == "lp":
        counters["functionals.dual_norm_lp"] += 1


def _after_search(counters, args, result):
    found = getattr(result, "found", None)
    if found is None:
        found = result.certificate is not None
    if found:
        counters["d2p.certificates"] += 1


_AFTER = {
    "monotone.check_gamma_cm": _after_check_gamma_cm,
    "lipschitz.lip_norm": _after_lip_norm,
    "lpcore.solve_lp": _after_solve_lp,
    "functionals.dual_norm": _after_dual_norm,
    "d2p.ld2p_certificate": _after_search,
    "d2p.sd2p_certificate": _after_search,
    "d2p.two_lip_ltp_witness": _after_search,
}
