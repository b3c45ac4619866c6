"""Known-answer input generators and the op cycle of each workload.

Every generator is stdlib-only and works on integer-scaled distances, so
generating inputs costs the same whatever the program under test does.
Each op carries the exit code and verdict that its construction forces,
or ``None`` where only ``lipcert verify`` can judge the answer:

- steep pairs of a 1-Lipschitz cone function are gamma-CM -> certificate
- a pair plus its reflection is a negative 2-cycle -> violation, and a
  positive measure on such a support is not optimal
- a signed measure whose positivization sits on slope-one pairs of a
  unit-ball function has norm equal to its total variation
- the paper's separating example (``example52``) has the paper's answers
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# Payload kinds that ``lipcert verify`` cannot replay at the seed commit.
UNVERIFIABLE_KINDS = frozenset({"example52", "ld2p-absent", "sd2p-absent"})

EXAMPLE52_CORE = ("x1", "x2", "x3", "y1", "y2", "y3")
EXAMPLE52_EPS = "1/14"
# Rows of the w*-D2P refutation pinned by the paper: (13/14)(5/2) > 2 and
# (13/14)(7/2) > 3.
EXAMPLE52_ROWS = ((Fraction(65, 28), Fraction(2)),
                  (Fraction(91, 28), Fraction(3)))


@dataclass
class Op:
    """One decision: a CLI argv over generated input files.

    In ``argv`` an item ``@name`` stands for the path of ``files[name]``.
    ``check`` inspects the decision's payload and returns an error message,
    or ``None`` when the known answer holds.
    """
    kind: str
    argv: list[str]
    files: dict[str, object]
    expect_exit: Optional[int]
    expect_verdict: Optional[str]
    check: Optional[Callable[[dict], Optional[str]]] = None
    env: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Metric spaces, scaled to integers

class Metric:
    """Point labels and distances stored as integers over ``scale``."""

    def __init__(self, labels, dist, scale):
        self.labels = labels
        self.dist = dist
        self.scale = scale

    def pairs(self):
        n = len(self.labels)
        return [(i, j) for i in range(n) for j in range(n) if i != j]

    def to_json(self) -> dict:
        return {"points": self.labels, "base": self.labels[0],
                "distances": [[_rat(x, self.scale) for x in row]
                              for row in self.dist]}


def _rat(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _closure(w: list[list[int]]) -> list[list[int]]:
    n = len(w)
    d = [row[:] for row in w]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def random_metric(rng: random.Random, n: int,
                  integer_max: Optional[int] = None) -> Metric:
    """Shortest-path closure of random positive weights, so the triangle
    inequality holds by construction.  Weights are a/b with a <= 8 and
    b <= 4 (common denominator 12), or integers up to ``integer_max``."""
    scale = 1 if integer_max else 12
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if integer_max:
                x = rng.randint(1, integer_max)
            else:
                x = 12 * rng.randint(1, 8) // rng.randint(1, 4)
            w[i][j] = w[j][i] = x
    return Metric([f"p{i}" for i in range(n)], _closure(w), scale)


def example52_metric(levels: int) -> Metric:
    """The three-cycle space of ``lipcert --builtin example52:<levels>``,
    with the same point order."""
    labels = list(EXAMPLE52_CORE)
    for j in range(1, levels + 1):
        for i in (1, 2, 3):
            labels += [f"u{i}_{j}", f"v{i}_{j}"]
    ones = {("y1", "x2"), ("y2", "x3"), ("y3", "x1")}
    for j in range(1, levels + 1):
        for i in (1, 2, 3):
            ones |= {(f"x{i}", f"u{i}_{j}"), (f"u{i}_{j}", f"v{i}_{j}"),
                     (f"v{i}_{j}", f"y{i}")}
    ones |= {(b, a) for a, b in ones}
    dist = [[0 if a == b else (1 if (a, b) in ones else 2) for b in labels]
            for a in labels]
    return Metric(labels, dist, 1)


def cone_function(rng: random.Random, metric: Metric) -> list[int]:
    """Min of a few shifted distance cones: 1-Lipschitz, 0 at the base."""
    n = len(metric.labels)
    centers = rng.sample(range(n), rng.randint(1, 3))
    shifts = {c: rng.randint(0, 2 * metric.scale) for c in centers}
    f = [min(shifts[c] + metric.dist[p][c] for c in centers) for p in range(n)]
    return [v - f[0] for v in f]


def steep_pairs(metric: Metric, f: list[int], gamma: Fraction):
    """Pairs whose difference quotient under f is at least gamma."""
    g, h = gamma.numerator, gamma.denominator
    return [(x, y) for x, y in metric.pairs()
            if h * (f[x] - f[y]) >= g * metric.dist[x][y]]


def _pairs_json(metric: Metric, pairs) -> dict:
    return {"pairs": [[metric.labels[x], metric.labels[y]] for x, y in pairs]}


def _measure_json(metric: Metric, atoms) -> dict:
    return {"atoms": [{"from": metric.labels[x], "to": metric.labels[y],
                       "weight": str(w)} for (x, y), w in atoms]}


def _weights(rng: random.Random, k: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(k)]


# ---------------------------------------------------------------------------
# Known-answer checks on payloads

def _check_refutation(body: dict) -> Optional[str]:
    """w*-D2P at eps = 1/14 is absent and every ordered pair is refuted."""
    if body.get("found") is not False:
        return "a compatible pair was found"
    points = body["space"]["points"]
    everything = {(a, b) for a in points for b in points if a != b}
    refuted = {tuple(v["candidate"]) for v in body["violations"]}
    if refuted != everything:
        return f"{len(everything - refuted)} ordered pairs not refuted"
    rows = {(Fraction(v["lhs"]), Fraction(v["rhs"]))
            for v in body["violations"]}
    missing = [r for r in EXAMPLE52_ROWS if r not in rows]
    if missing:
        return f"pinned rows missing: {missing}"
    return None


def _check_example52(payload: dict) -> Optional[str]:
    err = _check_refutation(payload["w_d2p"])
    if err:
        return err
    ld2p = payload["ld2p"]
    if ld2p["certified"] != ld2p["total"]:
        return f"battery certified {ld2p['certified']} of {ld2p['total']}"
    return None


def _check_norm_equals(target: Fraction) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if Fraction(payload["norm"]) != target:
            return f"norm {payload['norm']} != known {target}"
        return None
    return check


def _check_norm_at_most(bound: Fraction) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if not 0 <= Fraction(payload["norm"]) <= bound:
            return f"norm {payload['norm']} outside [0, {bound}]"
        return None
    return check


def _check_gap(payload: dict) -> Optional[str]:
    if "gap" not in payload or Fraction(payload["gap"]) <= 0:
        return "not-optimal verdict without a positive gap"
    return None


# ---------------------------------------------------------------------------
# Op generators

def cm_certified(rng, n, m, gamma, command="check-cm") -> Op:
    metric = random_metric(rng, n)
    while True:
        steep = steep_pairs(metric, cone_function(rng, metric), gamma)
        if len(steep) >= m:
            break
    pairs = rng.sample(steep, m)
    verdict = "certificate" if command == "check-cm" else "witness"
    return Op(f"{command}/certified/m{m}",
              [command, "--gamma", str(gamma), "--pairs", "@pairs", "@space"],
              {"space": metric.to_json(), "pairs": _pairs_json(metric, pairs)},
              0, verdict)


def cm_violated(rng, n, m, gamma) -> Op:
    metric = random_metric(rng, n)
    a, b = rng.sample(range(n), 2)
    rest = [p for p in metric.pairs() if p not in ((a, b), (b, a))]
    pairs = rng.sample(rest, m - 2) + [(a, b), (b, a)]
    rng.shuffle(pairs)
    return Op(f"check-cm/violated/m{m}",
              ["check-cm", "--gamma", str(gamma), "--pairs", "@pairs",
               "@space"],
              {"space": metric.to_json(), "pairs": _pairs_json(metric, pairs)},
              2, "violation")


def slice_unit_atom(rng, n) -> Op:
    """Single unit atom: norm one, so the shortest-path route is taken."""
    metric = random_metric(rng, n)
    a, b = rng.sample(range(n), 2)
    alpha = rng.choice(["1/4", "1/2", "3/4", "1"])
    return Op(f"slice-diam/atom/n{n}",
              ["slice-diam", "--alpha", alpha, "@mu", "--metric", "@space"],
              {"space": metric.to_json(),
               "mu": _measure_json(metric, [((a, b), 1)])},
              0, "ok")


def prune(rng, n, m) -> Op:
    """Slope-one pairs of an integer cone function on an integer metric are
    1-CM, hence gamma-CM; gamma = 1 - 1/(3D) keeps D(1 - gamma) < 1."""
    while True:
        metric = random_metric(rng, n, integer_max=3)
        bound = max(max(row) for row in metric.dist)
        unit = steep_pairs(metric, cone_function(rng, metric), Fraction(1))
        if len(unit) >= m:
            break
    pairs = rng.sample(unit, m)
    gamma = 1 - Fraction(1, 3 * bound)
    atoms = list(zip(pairs, _weights(rng, m)))
    return Op(f"prune-cm/m{m}",
              ["prune-cm", "--gamma", str(gamma), "--bound", str(bound),
               "--pairs", "@pairs", "@mu", "--metric", "@space"],
              {"space": metric.to_json(), "pairs": _pairs_json(metric, pairs),
               "mu": _measure_json(metric, atoms)},
              0, "ok")


def _unit_pairs(rng, metric, k):
    """k slope-one pairs of one cone function, no two on the same points."""
    while True:
        unit = steep_pairs(metric, cone_function(rng, metric), Fraction(1))
        rng.shuffle(unit)
        chosen, used = [], set()
        for x, y in unit:
            if frozenset((x, y)) not in used:
                used.add(frozenset((x, y)))
                chosen.append((x, y))
            if len(chosen) == k:
                return chosen


def norm_signed(rng, n, known: bool) -> Op:
    """Signed measure with 3-5 atoms, at least one negative (LP route).

    With ``known`` the atoms are slope-one pairs of a unit-ball function,
    negative ones reflected, so the norm is the total variation.
    """
    metric = random_metric(rng, n)
    k = rng.randint(3, 5)
    weights = _weights(rng, k)
    signs = [-1] + [rng.choice((-1, 1)) for _ in range(k - 1)]
    rng.shuffle(signs)
    if known:
        atoms = [((y, x), -w) if s < 0 else ((x, y), w)
                 for (x, y), w, s in zip(_unit_pairs(rng, metric, k),
                                         weights, signs)]
        check = _check_norm_equals(sum(weights))
    else:
        atoms = [(p, s * w) for p, w, s in
                 zip(rng.sample(metric.pairs(), k), weights, signs)]
        check = _check_norm_at_most(sum(weights))
    tag = "cm-positivization" if known else "random"
    return Op(f"norm/{tag}/n{n}", ["norm", "@mu", "--metric", "@space"],
              {"space": metric.to_json(), "mu": _measure_json(metric, atoms)},
              0, "ok", check)


def optimal_reflected(rng, n) -> Op:
    """Positive measure whose support holds a pair and its reflection."""
    metric = random_metric(rng, n)
    a, b = rng.sample(range(n), 2)
    rest = [p for p in metric.pairs() if p not in ((a, b), (b, a))]
    support = [(a, b), (b, a)] + rng.sample(rest, rng.randint(1, 3))
    atoms = list(zip(support, _weights(rng, len(support))))
    return Op(f"optimal/reflected/n{n}",
              ["optimal", "@mu", "--metric", "@space"],
              {"space": metric.to_json(), "mu": _measure_json(metric, atoms)},
              2, "not-optimal", _check_gap)


def slice_lp(rng, n) -> Op:
    """3-atom optimal measure, normalized by the CLI: the LP route.  Three
    atoms and alpha = 1 vary the op's cost least."""
    metric = random_metric(rng, n)
    pairs = _unit_pairs(rng, metric, 3)
    atoms = list(zip(pairs, _weights(rng, len(pairs))))
    return Op(f"slice-diam/lp/n{n}",
              ["slice-diam", "--alpha", "1", "--normalize", "@mu",
               "--metric", "@space"],
              {"space": metric.to_json(), "mu": _measure_json(metric, atoms)},
              0, "ok")


# --- the separating example ------------------------------------------------

def battery_measures(rng, levels, count):
    """Unit atoms on the core pairs plus ``count`` random normalized
    measures on slope-one pairs of a McShane sup-extension (so every
    support is cyclically monotonic), as in the ``example52`` battery."""
    metric = example52_metric(levels)
    core = [metric.labels.index(p) for p in EXAMPLE52_CORE]
    out = [[((a, b), Fraction(1))] for a in core for b in core if a != b]
    n = len(metric.labels)
    while len(out) < len(core) * (len(core) - 1) + count:
        anchors = rng.sample(range(n), 3)
        vals = {p: rng.randint(0, 2) for p in anchors}
        if any(vals[a] - vals[b] > metric.dist[a][b]
               for a in anchors for b in anchors):
            continue
        f = [max(vals[a] - metric.dist[a][p] for a in anchors)
             for p in range(n)]
        unit = steep_pairs(metric, f, Fraction(1))
        if not unit:
            continue
        support = rng.sample(unit, min(len(unit), rng.randint(1, 3)))
        weights = [rng.randint(1, 4) for _ in support]
        out.append([(p, Fraction(w, sum(weights)))
                    for p, w in zip(support, weights)])
    return metric, out


def example52_full(rng, levels, random_measures) -> Op:
    return Op(f"example52/L{levels}",
              ["example52", "--levels", str(levels), "--part", "all",
               "--random-measures", str(random_measures)],
              {}, 0, "reproduced", _check_example52,
              {"LIPFREE_SEED": str(rng.randrange(2 ** 31))})


def example52_lip_ltp(rng, levels) -> Op:
    """The w*-D2P refutation on the paper's function.  The subset order is
    shuffled so that ops seldom share an argv; the search ignores it."""
    metric = example52_metric(levels)
    subset = list(EXAMPLE52_CORE)
    rng.shuffle(subset)
    special = {"x1": 0, "y3": 0, "y2": Fraction(1, 2), "y1": Fraction(3, 2),
               "x3": Fraction(3, 2), "x2": 2}
    f = {"values": {p: str(special.get(p, 1)) for p in metric.labels}}
    return Op(f"lip-ltp/L{levels}",
              ["lip-ltp", "--eps", EXAMPLE52_EPS, "--subset", ",".join(subset),
               "--function", "@f", "--builtin",
               f"example52:{levels}"],
              {"f": f}, 2, "absent", _check_refutation)


def example52_ld2p(metric, levels, atoms, gamma) -> Op:
    return Op(f"ld2p-cert/L{levels}/g{gamma}",
              ["ld2p-cert", "--gamma", gamma, "@mu", "--builtin",
               f"example52:{levels}"],
              {"mu": _measure_json(metric, atoms)}, 0, "certificate")


def example52_sd2p(metric, levels, group, gamma) -> Op:
    files = {f"mu{i}": _measure_json(metric, atoms)
             for i, atoms in enumerate(group)}
    return Op(f"sd2p-cert/L{levels}",
              ["sd2p-cert", "--gamma", gamma] + [f"@{k}" for k in files]
              + ["--builtin", f"example52:{levels}"],
              files, None, None)


def example52_two_lip_ltp(metric, levels, atoms, eps) -> Op:
    return Op(f"two-lip-ltp/L{levels}",
              ["two-lip-ltp", "--eps", eps, "--pairs", "@pairs", "--builtin",
               f"example52:{levels}"],
              {"pairs": _pairs_json(metric, [p for p, _ in atoms])},
              None, None)


# ---------------------------------------------------------------------------
# Workload cycles
#
# A run repeats whole cycles, each with fresh inputs, so every run sees the
# same mix of op classes.  Class counts are chosen so that the median and
# the 90th percentile of decide latency fall inside a block of similar ops
# rather than on the border between two blocks of different cost.

HALF = Fraction(1, 2)


def cm_decide_cycle(rng: random.Random) -> list[Op]:
    """Shortest-path layers: Bellman-Ford, McShane witness, slice APSP.

    Certified sets exit Bellman-Ford early and replay in O(m^2); violated
    sets run all m rounds and replay a short cycle.  Violations form the
    latency tail.  Violated sets stop at m = 45: a violated m = 120 check
    takes about 5 s, a sixth of a run.

    Op costs barely vary between inputs of one class, so the class counts
    fix which class holds each percentile: of 20 ops, the nine that cost
    about as much as a violated m = 35 check (ranks 8-16) hold the median
    decide latency and the three violated m = 45 checks (ranks 17-19) its
    90th percentile; the m = 70 witnesses (ranks 10-12 of the verifies)
    hold the median verify latency and the m = 70 certificates (ranks
    18-19) its 90th percentile.  Five cycles make a run of 100 ops.
    """
    ops = [cm_certified(rng, 20, 40, HALF), cm_certified(rng, 20, 40, HALF),
           cm_certified(rng, 20, 40, HALF, "witness"),
           slice_unit_atom(rng, 30),
           prune(rng, 16, 30),
           cm_violated(rng, 16, 20, HALF), cm_violated(rng, 16, 20, HALF)]
    ops += [cm_certified(rng, 22, 70, HALF), cm_certified(rng, 22, 70, HALF),
            cm_certified(rng, 22, 70, HALF, "witness"),
            cm_certified(rng, 22, 70, HALF, "witness"),
            cm_certified(rng, 22, 70, HALF, "witness"),
            slice_unit_atom(rng, 36)]
    ops += [cm_violated(rng, 20, 35, HALF) for _ in range(3)]
    ops += [cm_certified(rng, 24, 120, HALF)]
    ops += [cm_violated(rng, 22, 45, HALF) for _ in range(3)]
    rng.shuffle(ops)
    return ops


def lp_solve_cycle(rng: random.Random) -> list[Op]:
    """The exact simplex: signed-measure norms, not-optimal gaps and the
    slice LP route, whose n(n - 1) LPs hold the 90th percentile.

    LP latency varies threefold between inputs of one size, so a steady
    run needs many inputs: spaces hold 7 points (5 for the slice LP) and a
    run holds some 300 ops.  The four slice LPs of 20 ops sit above every
    other op, so their median is the 90th percentile; one size for the
    other 16 keeps the median inside a single-peaked distribution.  At 14
    points a ``norm`` takes about a second, and at 22 points one op
    outlasts a run.
    """
    ops = [norm_signed(rng, 7, known)
           for known in (True, True, True, True, False, False, False, False)]
    ops += [optimal_reflected(rng, 7) for _ in range(8)]
    ops += [slice_lp(rng, 5) for _ in range(4)]
    rng.shuffle(ops)
    return ops


def example52_cycle(rng: random.Random) -> list[Op]:
    """The paper's separating example: d2p searches, many small augmented
    Bellman-Ford checks, ``lip_norm`` and JSON of large reports.  Every
    space has at least 12 points, so the runtime LP cross-check stays off.

    Of 36 ops, the ten LD2P searches on the 24-point space (ranks 15-24)
    hold the median decide latency, and the full ``example52`` runs at two
    and three levels (ranks 32-36) its 90th percentile.  Of the 30
    verifies, the LD2P replays on the 24-point space hold the median and
    the four ``lip-ltp`` replays (ranks 27-30) the 90th percentile.  The
    battery's unit atoms on core pairs are a fixed set of 30 per level, so
    some LD2P inputs repeat within a run.
    """
    ops = [example52_full(rng, levels, 4) for levels in (1, 2, 2, 2, 2, 3)]
    ops += [example52_lip_ltp(rng, 2) for _ in range(4)]
    for levels, per_gamma in ((1, 4), (3, 5)):
        metric, battery = battery_measures(rng, levels, 2)
        core, randoms = battery[:-2], battery[-2:]
        for gamma, atoms in (("1/2", randoms[0]), ("9/10", randoms[1])):
            picks = rng.sample(core, per_gamma - 1) + [atoms]
            ops += [example52_ld2p(metric, levels, mu, gamma)
                    for mu in picks]
            ops.append(example52_sd2p(metric, levels,
                                      rng.sample(battery, 2), gamma))
        ops += [example52_two_lip_ltp(metric, levels, mu, "1/2")
                for mu in randoms]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cm-decide": cm_decide_cycle,
    "lp-solve": lp_solve_cycle,
    "example52": example52_cycle,
}
