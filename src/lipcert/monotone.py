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

The kernels run on integers: with gamma = g / h and the space compiled to
D = L * d, the weights W_ij = h * L * beta_ij are ints, and Bellman-Ford,
certificate replay and witness synthesis work on the scale h * L (or a
multiple of it).  Potentials, deficits and witness values become
`Fraction` only when they are returned.  `beta`, `cycle_sum` and
`brute_force_cm_oracle` stay in `Fraction` as independent references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Union

from .errors import InvalidInput, SoundnessError
from .lipschitz import LipschitzFunction, in_unit_ball
from .metric import (FiniteMetricSpace, Pair, PairSet, _common_scale,
                     make_pair_set)


def check_gamma(gamma: Fraction) -> Fraction:
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise InvalidInput(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def beta(space: FiniteMetricSpace, pi: Pair, pj: Pair, gamma: Fraction) -> Fraction:
    xi, yi = pi
    _, yj = pj
    return min(space.d(xi, yj) - gamma * space.d(xi, yi), space.d(yi, yj))


def _scaled_beta(space: FiniteMetricSpace, pairs: PairSet,
                 gamma: Fraction) -> tuple[int, list[list[int]]]:
    """(h * L, W) with W[i][j] = h * L * beta_ij for gamma = g / h.

    W_ij = min(h * D[x_i][y_j] - g * D[x_i][y_i], h * D[y_i][y_j]).
    """
    gamma = Fraction(gamma)
    g, h = gamma.numerator, gamma.denominator
    D = space.int_dist
    ends = [(space.index(x), space.index(y)) for x, y in pairs]
    ys = [y for _, y in ends]
    w = []
    for x, y in ends:
        Dx, Dy = D[x], D[y]
        t = g * Dx[y]
        w.append([min(h * Dx[yj] - t, h * Dy[yj]) for yj in ys])
    return h * space.scale, w


@dataclass(frozen=True)
class CmCertificate:
    """Feasible potentials proving gamma-cyclic monotonicity."""
    pairs: PairSet
    gamma: Fraction
    potentials: tuple[Fraction, ...]  # indexed like `pairs`

    def replay(self, space: FiniteMetricSpace) -> None:
        """Check a_i <= a_j + beta_ij for all i, j on integers.

        Over K = lcm(h * L, denominators of a) every potential is an
        integer, and the inequality reads K a_i <= K a_j + (K / hL) W_ij.
        """
        if len(self.potentials) != len(self.pairs):
            raise SoundnessError("potential count does not match pair count")
        hl, w = _scaled_beta(space, self.pairs, self.gamma)
        K, a = _common_scale(hl, self.potentials)
        s = K // hl
        for i, row in enumerate(w):
            ai = a[i]
            for j, aj in enumerate(a):
                if ai > aj + s * row[j]:
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
        if len(set(self.cycle)) != len(self.cycle) or not self.cycle:
            raise SoundnessError("cycle is empty or not simple")
        total = cycle_sum(space, self.pairs, self.cycle, self.gamma)
        if total != self.deficit or total >= 0:
            raise SoundnessError(
                f"cycle beta-sum {total} does not certify a violation")


CmResult = Union[CmCertificate, CmViolation]


def cycle_sum(space: FiniteMetricSpace, pairs: PairSet,
              cycle: tuple[int, ...], gamma: Fraction) -> Fraction:
    total = Fraction(0)
    k = len(cycle)
    for t in range(k):
        total += beta(space, pairs[cycle[t]], pairs[cycle[(t + 1) % k]], gamma)
    return total


def check_gamma_cm(space: FiniteMetricSpace, pairs: PairSet,
                   gamma: Fraction) -> CmResult:
    """Decide gamma-CM; return replayable potentials or a negative cycle.

    Bellman-Ford runs on the integer weights W = h * L * beta; the
    potentials it returns are dist_i / (h * L).
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    m = len(pairs)
    if m == 0:
        return CmCertificate(pairs, gamma, ())

    hl, w = _scaled_beta(space, pairs, gamma)
    # cols[j][i] is the weight of edge j -> i; the zero diagonal makes the
    # i == j relaxation a no-op.
    cols = [list(col) for col in zip(*w)]
    for j in range(m):
        cols[j][j] = 0
    # Virtual source with zero-weight edges to every node: dist starts at 0.
    dist = [0] * m
    pred: list[Optional[int]] = [None] * m
    bad = None
    for round_ in range(m):
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
            cert = CmCertificate(pairs, gamma,
                                 tuple(Fraction(x, hl) for x in dist))
            cert.replay(space)
            return cert
    # A relaxation survived m rounds: walk predecessors into the cycle.
    assert bad is not None
    node = bad
    for _ in range(m):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)  # type: ignore[arg-type]
        cur = pred[cur]    # type: ignore[index]
    k = len(cycle)
    total = sum(w[cycle[t]][cycle[(t + 1) % k]] for t in range(k))
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


def synthesize_witness(space: FiniteMetricSpace, pairs: PairSet,
                       gamma: Fraction, cert: CmCertificate) -> LipschitzFunction:
    """Unit-ball function with difference quotient >= gamma across `pairs`.

    Built as the inf-extension of y_i -> alpha_i, then shifted to vanish
    at the base point.  The certificate is not replayed again (the
    callers take it from `check_gamma_cm`, which has just replayed it):
    the slope postcondition on every pair and unit-ball membership are
    checked exactly and gate the result, so bad potentials end in
    `SoundnessError`, never in a wrong function.
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    if cert.pairs != pairs or cert.gamma != gamma:
        raise InvalidInput("certificate does not match the queried instance")
    if len(cert.potentials) != len(pairs):
        raise SoundnessError("potential count does not match pair count")
    if not pairs:
        return LipschitzFunction(space, {p: 0 for p in space.points})
    # Later alpha_i for the same y_i must agree up to beta_ii' bounds; the
    # inf over atoms handles repeats, so keep the min per landing point.
    # Everything runs on the scale K = lcm(L, potential denominators).
    D = space.int_dist
    K, a = _common_scale(space.scale, cert.potentials)
    s = K // space.scale
    atoms: dict[int, int] = {}
    for (x, y), ai in zip(pairs, a):
        iy = space.index(y)
        atoms[iy] = min(atoms.get(iy, ai), ai)
    vals = [min(ai + s * row[iy] for iy, ai in atoms.items()) for row in D]
    shift = vals[space.index(space.base)]
    vals = [v - shift for v in vals]
    # slope(f, (x, y)) >= g / h  iff  h * L * (F_x - F_y) >= g * K * D_xy.
    g, h = gamma.numerator, gamma.denominator
    hl, gk = h * space.scale, g * K
    for pair in pairs:
        ix, iy = space.index(pair[0]), space.index(pair[1])
        if hl * (vals[ix] - vals[iy]) < gk * D[ix][iy]:
            raise SoundnessError(f"witness slope below gamma across {pair}")
    f = LipschitzFunction(space, {p: Fraction(v, K)
                                  for p, v in zip(space.points, vals)})
    if not in_unit_ball(f):
        raise SoundnessError("witness escapes the unit ball")
    return f


def check_augmented(space: FiniteMetricSpace, pairs: PairSet, gamma: Fraction,
                    u: str, v: str) -> CmResult:
    """Decide gamma-CM of A union {(u, v)}.  No witness: the caller
    synthesizes one from the certificate if it needs one."""
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


def prune_to_cm(space: FiniteMetricSpace, pairs: PairSet, mu,
                gamma: Fraction, n: int) -> PairSet:
    """Extract a 1-CM subset B of a gamma-CM set on an integer metric.

    Requires distances in {0, ..., n}, n(1 - gamma) < 1, and positive mu.
    Buckets pair indices by the fractional part of their potentials into K
    half-open intervals with K the largest integer such that
    n(1 - gamma) <= 1/K, and drops the lightest bucket.  The survivor
    keeps mu(B) >= mu(A) - 2n(1 - gamma) mu(M~) and is certified 1-CM.
    """
    gamma = check_gamma(gamma)
    pairs = make_pair_set(space, pairs)
    t = _prune_threshold(space, mu, gamma, n)
    result = check_gamma_cm(space, pairs, gamma)
    if isinstance(result, CmViolation):
        raise InvalidInput("input pair set is not gamma-cyclically monotonic")
    if gamma == 1:
        return pairs

    K = math.floor(1 / t)  # then 1/(2K) <= t <= 1/K
    buckets: list[list[int]] = [[] for _ in range(K)]
    for i, a in enumerate(result.potentials):
        k = min(int(_frac_part(a) * K), K - 1)
        buckets[k].append(i)
    masses = [sum((mu.atoms.get(pairs[i], Fraction(0)) for i in bucket),
                  Fraction(0)) for bucket in buckets]
    drop = min(range(K), key=lambda k: (masses[k], k))
    keep = tuple(pairs[i] for i in range(len(pairs))
                 if i not in set(buckets[drop]))
    final = check_gamma_cm(space, keep, Fraction(1))
    if isinstance(final, CmViolation):
        raise SoundnessError("pruned set is not cyclically monotonic")
    return keep
