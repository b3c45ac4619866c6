"""Deciding gamma-cyclic monotonicity of finite pair sets.

A pair set A = {(x_i, y_i)} is gamma-cyclically monotonic (gamma-CM) iff
every cyclic sequence of its pairs has nonnegative beta-sum, where

    beta_ij = min( d(x_i, y_j) - gamma * d(x_i, y_i), d(y_i, y_j) ).

This is a difference-constraint system: feasible potentials alpha with
alpha_i <= alpha_j + beta_ij exist iff the complete digraph with weight
beta_ij on edge j -> i has no negative cycle.  The decision procedure is
Bellman-Ford relaxation from a virtual zero source; the outputs are
machine-replayable certificates (potentials) or violations (a simple
cycle with negative beta-sum).

beta_ij depends on pair j only through its landing point y_j, so the
system factors through the k <= m distinct landing points: the kernel
runs on the landing-point quotient of the pair graph (k nodes, built in
O(m * k)), and the certificate replay and the witness both evaluate
F(p) = min over landing points q of (A_q + d(p, q)), A_q the least
potential landing at q.  This is the reduction of c-cyclical
monotonicity to potentials on points (Rockafellar, Convex Analysis,
section 24).  It uses neither symmetry nor the triangle inequality;
where some beta_ii is not 0 (a nonzero diagonal) the pair graph itself
is searched.  Certificates and violations are exactly the ones the
complete pair graph gives.

Bellman-Ford ends once a round repeats the previous one shifted by a
constant: `pred` as it was and every `dist` entry lowered by one delta.
A round compares only dist[j] + c with dist[i], so every later round
would repeat it, and `pred`, which is all the cycle walk reads, is
already the one that m rounds leave (Cherkassky and Goldberg,
"Negative-cycle detection algorithms", Math. Programming 85, 1999).  On
violated sets the pair-graph walk mostly ends after two rounds, not m.

Each certificate kind has one replay, run by the builder and by `verify`
alike: `CmCertificate.replay` and `CmViolation.replay` for the decision,
`replay_witness` for a unit-ball function with slope >= gamma across
the pairs (the witness, and both sides of every D2P certificate), and
`replay_prune` for a pruned subset.  A witness is the `inf_extension`
of a certificate, and `replay_witness` is its one gate.

The kernels run on integers: with gamma = g / h and the space compiled to
D = L * d, the weights W_ij = h * L * beta_ij are ints, and Bellman-Ford,
certificate replay, violation replay (`cycle_weight`), the inf-extension
and witness replay work on the scale h * L (or a multiple of it).
Certificates and witnesses hold the ints their builders computed, and
each replay reads them as they are.  `beta`, `cycle_sum` and
`brute_force_cm_oracle` stay in `Fraction` as independent references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence, Union

from .errors import InvalidInput, SoundnessError
from .lipschitz import LipschitzFunction, in_unit_ball
from .metric import (FiniteMetricSpace, Pair, PairSet, _common_scale,
                     make_pair_set)


def check_gamma(gamma: Fraction) -> Fraction:
    if not isinstance(gamma, Fraction):
        gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise InvalidInput(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def beta(space: FiniteMetricSpace, pi: Pair, pj: Pair, gamma: Fraction) -> Fraction:
    xi, yi = pi
    _, yj = pj
    return min(space.d(xi, yj) - gamma * space.d(xi, yi), space.d(yi, yj))


def _landing_inf(D, ends: list[tuple[int, int]], a: list[int], s: int,
                 points) -> dict[int, int]:
    """{p: F(p)} for the point indices p in `points`, where

        F(p) = min over landing points q of (A_q + s * D[p][q])

    and A_q is the least a_i over the pairs (x_i, y_i) = ends[i] with
    y_i = q.  F(p) is min_j (a_j + s * D[p][y_j]) regrouped by landing
    point: the inf-extension of y_i -> a_i on the scale of `a`.
    """
    least: dict[int, int] = {}
    for (_, y), ai in zip(ends, a):
        if y not in least or ai < least[y]:
            least[y] = ai
    items = list(least.items())
    out = {}
    for p in points:
        Dp = D[p]
        out[p] = min([aq + s * Dp[q] for q, aq in items])
    return out


class CmCertificate:
    """Feasible potentials proving gamma-cyclic monotonicity, held as ints
    over one scale: a_i = ints[i] / scale for pair i.  `potentials` is the
    `Fraction` view, and equality compares it."""

    def __init__(self, pairs: PairSet, gamma: Fraction,
                 potentials: Sequence[Fraction]):
        self.pairs, self.gamma = pairs, gamma
        self.scale, ints = _common_scale(1, potentials)
        self.ints = tuple(ints)

    @classmethod
    def _scaled(cls, pairs, gamma, scale: int, ints) -> CmCertificate:
        cert = cls.__new__(cls)
        cert.pairs, cert.gamma = pairs, gamma
        cert.scale, cert.ints = scale, tuple(ints)
        return cert

    @property
    def potentials(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.scale) for a in self.ints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CmCertificate)
                and (self.pairs, self.gamma, self.potentials)
                == (other.pairs, other.gamma, other.potentials))

    def replay(self, space: FiniteMetricSpace) -> None:
        """Check a_i <= a_j + beta_ij for all i, j on integers.

        Over K = lcm(h * L, scale) every potential is an integer, and with
        s = K / (h L) the inequalities read
        K a_i <= K a_j + s * min(h D[x_i][y_j] - g D[x_i][y_i],
        h D[y_i][y_j]).  For each i they are regrouped exactly into two:

            K a_i <= F(x_i) - s * g * D[x_i][y_i]   and   K a_i <= F(y_i),

        with F(p) = min over landing points q of (A_q + s * h * D[p][q])
        and A_q the least K a_j over the pairs landing at q.  F is needed
        at the endpoints only, so the replay costs O(#endpoints * k + m)
        for k landing points instead of O(m^2).  At the first failing i
        the failing j is found by scanning row i.
        """
        if len(self.ints) != len(self.pairs):
            raise SoundnessError("potential count does not match pair count")
        g, h = self.gamma.numerator, self.gamma.denominator
        hl = h * space.scale
        K = math.lcm(hl, self.scale)
        a = [x * (K // self.scale) for x in self.ints]
        s = K // hl
        sg = s * g
        D = space.int_dist
        ends = [(space.index(x), space.index(y)) for x, y in self.pairs]
        F = _landing_inf(D, ends, a, s * h,
                         {p for pair in ends for p in pair})
        for i, ((x, y), ai) in enumerate(zip(ends, a)):
            if ai > F[x] - sg * D[x][y] or ai > F[y]:
                Dx, Dy, t = D[x], D[y], g * D[x][y]
                j = next(j for j, ((_, yj), aj) in enumerate(zip(ends, a))
                         if ai > aj + s * min(h * Dx[yj] - t, h * Dy[yj]))
                raise SoundnessError(
                    f"potential inequality fails at ({i}, {j})")


@dataclass(frozen=True)
class CmViolation:
    """A simple cycle of pair indices with negative beta-sum."""
    pairs: PairSet
    gamma: Fraction
    cycle: tuple[int, ...]
    deficit: Fraction

    def replay(self, space: FiniteMetricSpace) -> None:
        """Sum W along the cycle and compare it with deficit * h * L by
        cross-multiplying."""
        total = cycle_weight(space, self.pairs, self.cycle, self.gamma)
        if len(set(self.cycle)) != len(self.cycle) or not self.cycle:
            raise SoundnessError("cycle is empty or not simple")
        hl = self.gamma.denominator * space.scale
        d = self.deficit
        if total >= 0 or total * d.denominator != d.numerator * hl:
            raise SoundnessError(f"cycle beta-sum {Fraction(total, hl)} "
                                 "does not certify a violation")


CmResult = Union[CmCertificate, CmViolation]


def cycle_weight(space: FiniteMetricSpace, pairs: PairSet,
                 cycle: Sequence[int], gamma: Fraction) -> int:
    """The sum of W_ij = h * L * beta_ij along `cycle` (gamma = g / h), on
    the compiled distances: `cycle_sum` times h * L, in ints.

    Every entry must be an int (not a bool) in 0..len(pairs) - 1; anything
    else, a negative index included, is `SoundnessError`."""
    m = len(pairs)
    for i in cycle:
        if type(i) is not int or not 0 <= i < m:
            raise SoundnessError(
                f"cycle entry {i!r}: pair index out of range 0..{m - 1}")
    g, h = gamma.numerator, gamma.denominator
    D = space.int_dist
    ends = [(space.index(pairs[i][0]), space.index(pairs[i][1]))
            for i in cycle]
    total = 0
    for (x, y), (_, yj) in zip(ends, ends[1:] + ends[:1]):
        total += min(h * D[x][yj] - g * D[x][y], h * D[y][yj])
    return total


def cycle_sum(space: FiniteMetricSpace, pairs: PairSet,
              cycle: tuple[int, ...], gamma: Fraction) -> Fraction:
    total = Fraction(0)
    k = len(cycle)
    for t in range(k):
        total += beta(space, pairs[cycle[t]], pairs[cycle[(t + 1) % k]], gamma)
    return total


def _has_cycle(pred: list[Optional[int]]) -> bool:
    """Whether the predecessor graph closes a cycle (O(len(pred)))."""
    state = [0] * len(pred)  # 0 unseen, 1 on the current walk, 2 done
    for v in range(len(pred)):
        walk = []
        node: Optional[int] = v
        while node is not None and state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = pred[node]
        if node is not None and state[node] == 1:
            return True
        for u in walk:
            state[u] = 2
    return False


def _bellman_ford(cols: list[list[int]], stop_at_cycle: bool
                  ) -> tuple[Optional[list[int]], Optional[list[int]]]:
    """Bellman-Ford from a virtual zero source; cols[j][i] is the weight of
    edge j -> i.  Returns (dist, None) once a round changes nothing, else
    (None, cycle): the predecessor cycle after len(cols) rounds, or None
    when `stop_at_cycle` ends the loop at the first round whose
    predecessor graph closes a cycle (always a negative one).

    The loop also ends once a round leaves `pred` as it was and lowers
    every `dist` entry by one constant.  That is exact: a round compares
    only dist[j] + c with dist[i], so on dist + delta it makes the same
    relaxations and sets the same `pred`, `changed` and `bad`.  Every
    later round would repeat it, so `pred` and `bad` are those that
    len(cols) rounds leave, and the predecessor walk, which reads nothing
    else, returns the same cycle (Cherkassky and Goldberg, "Negative-cycle
    detection algorithms", Math. Programming 85, 1999)."""
    n = len(cols)
    # Virtual source with zero-weight edges to every node: dist starts at 0.
    dist = [0] * n
    pred: list[Optional[int]] = [None] * n
    bad = None
    for _ in range(n):
        last_dist, last_pred = dist[:], pred[:]
        changed = False
        for j, col in enumerate(cols):
            dj = dist[j]
            for i, c in enumerate(col):
                if dj + c < dist[i]:
                    dist[i] = dj + c
                    pred[i] = j
                    changed = True
                    bad = i
        if not changed:
            return dist, None
        if stop_at_cycle and _has_cycle(pred):
            break
        if pred == last_pred and len(
                {a - b for a, b in zip(dist, last_dist)}) == 1:
            break
    if stop_at_cycle:
        return None, None
    # A relaxation survived n rounds: walk predecessors into the cycle.
    assert bad is not None
    node = bad
    for _ in range(n):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)  # type: ignore[arg-type]
        cur = pred[cur]    # type: ignore[index]
    return None, cycle


def check_gamma_cm(space: FiniteMetricSpace, pairs: PairSet,
                   gamma: Fraction) -> CmResult:
    """Decide gamma-CM; return replayable potentials or a negative cycle.

    The weights are the integers W_ij = h * L * beta_ij for gamma = g / h,
    and the potentials are shortest distances / (h * L) from a virtual
    zero source.  W_ij depends on pair j only through its landing point
    y_j, so Bellman-Ford first runs on the landing-point quotient of the
    pair graph: one node per distinct y_i (in order of first appearance)
    and an edge s -> t of the least weight W_it over the pairs i landing
    at t, built in O(m * k) for k landing points.  When every pair has
    W_ii = 0 (a zero diagonal and nonnegative d(x_i, y_i) suffice) the
    pairs landing at one point share one distance, so pair i's potential
    is the quotient distance of y_i; no symmetry or triangle inequality
    is used, and the potentials are exactly the pair graph's.

    When all landing points differ (k = m), or some W_ii is not 0, the
    pair graph itself is searched.  When k < m and the quotient's
    predecessor graph closes a cycle, the pair-graph walk runs to return
    the same negative pair cycle as the complete pair graph.  That walk
    ends at the first round that leaves the predecessors as they were and
    lowers every distance by one constant; every later round up to m
    would repeat it, so the predecessor cycle is the one m rounds leave
    (see `_bellman_ford`).  Either result is replayed before it is
    returned.
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    m = len(pairs)
    if m == 0:
        return CmCertificate(pairs, gamma, ())

    g, h = gamma.numerator, gamma.denominator
    hl = h * space.scale
    D = space.int_dist
    ends = [(space.index(x), space.index(y)) for x, y in pairs]
    lands: dict[int, int] = {}
    for _, y in ends:
        lands.setdefault(y, len(lands))
    at = [lands[y] for _, y in ends]
    # rows[i][t] = W_ij for every pair j landing at the t-th landing point.
    rows = []
    for x, y in ends:
        Dx, Dy = D[x], D[y]
        t = g * Dx[y]
        rows.append([min(h * Dx[q] - t, h * Dy[q]) for q in lands])
    k = len(lands)
    potentials = None  # the distances over h * L
    if k < m and all(row[t] == 0 for row, t in zip(rows, at)):
        members: list[list[list[int]]] = [[] for _ in range(k)]
        for row, t in zip(rows, at):
            members[t].append(row)
        # Edge s -> t weighs the least W_i(s) over the pairs i landing at t.
        qcols = [list(col) for col in
                 zip(*([min(c) for c in zip(*rs)] for rs in members))]
        qdist, _ = _bellman_ford(qcols, stop_at_cycle=True)
        if qdist is not None:
            potentials = [qdist[t] for t in at]
    if potentials is None:
        by_land = list(zip(*rows))
        cols = [list(by_land[t]) for t in at]
        # The zero diagonal makes the i == j relaxation a no-op.
        for j in range(m):
            cols[j][j] = 0
        potentials, cycle = _bellman_ford(cols, stop_at_cycle=False)
    if potentials is not None:
        cert = CmCertificate._scaled(pairs, gamma, hl, potentials)
        cert.replay(space)
        return cert
    assert cycle is not None
    n = len(cycle)
    total = sum(rows[cycle[t]][at[cycle[(t + 1) % n]]] for t in range(n))
    violation = CmViolation(pairs, gamma, tuple(cycle), Fraction(total, hl))
    violation.replay(space)
    return violation


def brute_force_cm_oracle(space: FiniteMetricSpace, pairs: PairSet,
                          gamma: Fraction) -> bool:
    """Check the definition directly over all simple cycles (test oracle).

    Arbitrary finite sequences decompose into simple cycles because
    beta_ii = 0, so simple cycles suffice.
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    m = len(pairs)
    if m > 10:
        raise InvalidInput("brute-force oracle is guarded to at most 10 pairs")
    indices = range(m)
    for size in range(1, m + 1):
        for subset in combinations(indices, size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                if cycle_sum(space, pairs, cyc, gamma) < 0:
                    return False
    return True


def inf_extension(space: FiniteMetricSpace,
                  cert: CmCertificate) -> LipschitzFunction:
    """The inf-extension of y_i -> alpha_i over the certificate's pairs,
    shifted to vanish at the base point, with no check of its own.

    It is built on the certificate's ints over K = lcm(L, scale) as
    F_p = K * (min_i (alpha_i + d(p, y_i)) - the same at the base).  On
    potentials that pass `CmCertificate.replay` it is 1-Lipschitz with
    slope >= gamma across every pair.  Callers gate it with
    `replay_witness` (`witness`, `replay_two_sided`), so bad potentials
    end in `SoundnessError`, never in a wrong function.
    """
    if not cert.pairs:
        return LipschitzFunction._scaled(space, space.scale, [0] * len(space))
    K = math.lcm(space.scale, cert.scale)
    a = [x * (K // cert.scale) for x in cert.ints]
    ends = [(space.index(x), space.index(y)) for x, y in cert.pairs]
    vals = list(_landing_inf(space.int_dist, ends, a, K // space.scale,
                             range(len(space))).values())
    shift = vals[space.index(space.base)]
    return LipschitzFunction._scaled(space, K, [v - shift for v in vals])


def replay_witness(pairs: PairSet, gamma: Fraction,
                   f: LipschitzFunction) -> None:
    """Replay a witness: f lies in the unit ball and has slope >= gamma
    across every pair, so `pairs` is gamma-CM.

    gamma must lie in (0, 1], and every pair goes through `check_pair`
    first: a gamma out of range, or a degenerate or unknown pair, is
    `InvalidInput`, never a vacuous 0 >= 0.  The slopes are
    decided on f's own ints: with f = F / K and gamma = g / h,
    slope(f, (x, y)) >= gamma iff h * L * (F_x - F_y) >= g * K * D_xy.
    """
    gamma = check_gamma(gamma)
    space = f.space
    pairs = [space.check_pair(pair) for pair in pairs]
    if not in_unit_ball(f):
        raise SoundnessError("witness escapes the unit ball")
    K, F = f.K, f.F
    g, h = gamma.numerator, gamma.denominator
    hl, gk = h * space.scale, g * K
    D = space.int_dist
    for pair in pairs:
        x, y = space.index(pair[0]), space.index(pair[1])
        if hl * (F[x] - F[y]) < gk * D[x][y]:
            raise SoundnessError(f"witness slope below {gamma} across {pair}")


def check_augmented(space: FiniteMetricSpace, pairs: PairSet, gamma: Fraction,
                    u: str, v: str) -> CmResult:
    """Decide gamma-CM of A union {(u, v)}.  No witness: the caller
    builds one with `inf_extension` if it needs one."""
    if u == v:
        raise InvalidInput("u and v must differ")
    return check_gamma_cm(space, tuple(pairs) + ((u, v),), gamma)


def _frac_part(x: Fraction) -> Fraction:
    return x - math.floor(x)


def _prune_threshold(space: FiniteMetricSpace, mu, gamma: Fraction,
                     n: int) -> Fraction:
    """t = n(1 - gamma), once the other inputs of `prune_to_cm` hold:
    distances are integers in 0..n, mu is positive and t < 1."""
    bound = space.integer_bound()
    if bound is None or bound > n:
        raise InvalidInput(f"distances must be integers in 0..{n}")
    if not mu.is_positive():
        raise InvalidInput("measure must be positive")
    t = n * (1 - gamma)
    if t >= 1:
        raise InvalidInput("n(1 - gamma) must be below 1")
    return t


def replay_prune(space: FiniteMetricSpace, pairs: PairSet, mu,
                 gamma: Fraction, n: int, kept: PairSet) -> None:
    """Replay a pruned set: `kept` is a subset of `pairs`, 1-CM, and keeps
    mu(kept) >= mu(pairs) - 2n(1 - gamma) mu(M~), after the inputs pass
    the preconditions of `prune_to_cm`."""
    t = _prune_threshold(space, mu, gamma, n)
    if not set(kept) <= set(pairs):
        raise SoundnessError("kept set is not a subset")
    if isinstance(check_gamma_cm(space, kept, Fraction(1)), CmViolation):
        raise SoundnessError("kept set is not 1-CM")
    if mu.mass_of(kept) < mu.mass_of(pairs) - 2 * t * mu.total_mass():
        raise SoundnessError("mass bound fails")


def prune_to_cm(space: FiniteMetricSpace, pairs: PairSet, mu,
                gamma: Fraction, n: int) -> PairSet:
    """Extract a 1-CM subset B of a gamma-CM set on an integer metric.

    Requires distances in {0, ..., n}, n(1 - gamma) < 1, and positive mu.
    Buckets pair indices by the fractional part of their potentials into K
    half-open intervals with K the largest integer such that
    n(1 - gamma) <= 1/K, and drops the lightest bucket.  The survivor
    keeps mu(B) >= mu(A) - 2n(1 - gamma) mu(M~); `replay_prune` checks
    that and its 1-CM verdict before it is returned.
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    t = _prune_threshold(space, mu, gamma, n)
    result = check_gamma_cm(space, pairs, gamma)
    if isinstance(result, CmViolation):
        raise InvalidInput("input pair set is not gamma-cyclically monotonic")
    if gamma == 1:
        return pairs  # `result` certifies the whole set 1-CM

    K = math.floor(1 / t)  # then 1/(2K) <= t <= 1/K
    buckets: list[list[int]] = [[] for _ in range(K)]
    for i, a in enumerate(result.potentials):
        k = min(int(_frac_part(a) * K), K - 1)
        buckets[k].append(i)
    masses = [sum((mu.atoms.get(pairs[i], Fraction(0)) for i in bucket),
                  Fraction(0)) for bucket in buckets]
    drop = min(range(K), key=lambda k: (masses[k], k))
    dropped = set(buckets[drop])
    keep = tuple(pair for i, pair in enumerate(pairs) if i not in dropped)
    replay_prune(space, pairs, mu, gamma, n, keep)
    return keep
