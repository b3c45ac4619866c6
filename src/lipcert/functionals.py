"""Finitely supported signed measures on the pair space and their duals.

A measure is a finite set of weighted atoms on ordered pairs; it stands
for the functional f -> sum of weight * difference-quotient.  This module
positivises measures, computes the exact dual norm, decides optimality
(norm attainment), and computes slice diameters.

Dual norms and slice problems are linear programs over the unit ball
constraints f(p) - f(q) <= d(p, q); each problem picks its route from
its input alone.  `_norm` settles a positive measure with 1-cyclically
monotonic support by the certificate's inf-extension, and any other
measure by the exact simplex in `lpcore`.  A slice of one positive atom
is a difference system, solved by exact all-pairs shortest paths; any
other slice is one LP.  Every route ends in its result's one replay,
`DualNormResult.replay` or `SliceDiameterResult.replay`, which `verify`
runs on a report as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InvalidInput, SoundnessError
from .lipschitz import LipschitzFunction, in_unit_ball, slope
from .lpcore import LinearProgram, solve_lp, solve_lps
from .metric import (FiniteMetricSpace, Pair, PairSet, parse_rational,
                     rational_str, reflect)
from .monotone import (CmCertificate, CmResult, CmViolation, check_gamma_cm,
                       inf_extension)

class PairMeasure:
    """Finitely supported signed measure: nonzero rational atom weights."""

    def __init__(self, space: FiniteMetricSpace,
                 atoms: dict[Pair, Fraction | int | str]):
        self.space = space
        cleaned: dict[Pair, Fraction] = {}
        for pair, w in atoms.items():
            pair = space.check_pair(tuple(pair))  # type: ignore[arg-type]
            w = Fraction(w)
            if w == 0:
                raise InvalidInput(f"zero-weight atom at {pair}")
            if pair in cleaned:
                raise InvalidInput(f"duplicate atom at {pair}")
            cleaned[pair] = w
        self.atoms = cleaned

    def support(self) -> PairSet:
        return tuple(self.atoms)

    def is_positive(self) -> bool:
        return all(w > 0 for w in self.atoms.values())

    def total_variation(self) -> Fraction:
        return sum((abs(w) for w in self.atoms.values()), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0))

    def mass_of(self, pairs: Iterable[Pair]) -> Fraction:
        return sum((self.atoms.get(tuple(p), Fraction(0)) for p in pairs),
                   Fraction(0))

    def scaled(self, factor: Fraction) -> "PairMeasure":
        if factor == 0:
            raise InvalidInput("cannot scale a measure by zero")
        return PairMeasure(self.space,
                           {p: w * factor for p, w in self.atoms.items()})


def apply_measure(mu: PairMeasure, f: LipschitzFunction) -> Fraction:
    if f.space is not mu.space and f.space.points != mu.space.points:
        raise InvalidInput("measure and function live on different spaces")
    return sum((w * slope(f, p) for p, w in mu.atoms.items()), Fraction(0))


def positivize(nu: PairMeasure) -> PairMeasure:
    """Reflect negative atoms; preserves the induced functional and the
    total variation."""
    out: dict[Pair, Fraction] = {}
    for pair, w in nu.atoms.items():
        if w > 0:
            out[pair] = out.get(pair, Fraction(0)) + w
        else:
            rp = reflect(pair)
            out[rp] = out.get(rp, Fraction(0)) - w
    return PairMeasure(nu.space, out)


@dataclass(frozen=True)
class DualNormResult:
    norm: Fraction
    maximizer: LipschitzFunction
    method: str  # "lp" | "cm-witness"

    def replay(self, mu: PairMeasure) -> None:
        """The maximizer lies in the unit ball and attains `norm`."""
        if not in_unit_ball(self.maximizer):
            raise SoundnessError("maximizer escapes the unit ball")
        if apply_measure(mu, self.maximizer) != self.norm:
            raise SoundnessError("maximizer does not attain the norm")


def _ball_lp(space: FiniteMetricSpace) -> tuple[LinearProgram, list[str]]:
    """Variables f(p) for p != base; all unit-ball difference constraints."""
    free = [p for p in space.points if p != space.base]
    idx = {p: i for i, p in enumerate(free)}
    lp = LinearProgram(len(free))
    zero = [0] * len(free)
    for p, q in space.pairs():
        row = list(zero)
        if p != space.base:
            row[idx[p]] += 1
        if q != space.base:
            row[idx[q]] -= 1
        lp.add_constraint(row, space.d(p, q))
    return lp, free


def _measure_objective(mu: PairMeasure, free: list[str]) -> list[Fraction]:
    idx = {p: i for i, p in enumerate(free)}
    obj = [Fraction(0)] * len(free)
    for (x, y), w in mu.atoms.items():
        c = w / mu.space.d(x, y)
        if x in idx:
            obj[idx[x]] += c
        if y in idx:
            obj[idx[y]] -= c
    return obj


def _point_to_function(space: FiniteMetricSpace, free: list[str],
                       point: Sequence[Fraction]) -> LipschitzFunction:
    return LipschitzFunction(space, {space.base: 0} | dict(zip(free, point)))


def _norm(mu: PairMeasure, support: Optional[CmResult]) -> DualNormResult:
    """The norm of mu with an attaining maximizer, replayed.  `support` is
    the 1-CM verdict on the support of a positive measure, or None for any
    other measure.  A certificate settles the norm as the total mass: that
    bounds the norm from above, and the certificate's inf-extension attains
    it.  Anything else goes to the ball LP."""
    space = mu.space
    if isinstance(support, CmCertificate):
        result = DualNormResult(mu.total_mass(), inf_extension(space, support),
                                "cm-witness")
    else:
        lp, free = _ball_lp(space)
        lp.set_objective(_measure_objective(mu, free))
        res = solve_lp(lp)
        if res.status != "optimal":
            raise SoundnessError(f"ball LP came back {res.status}")
        result = DualNormResult(
            res.value, _point_to_function(space, free, res.point), "lp")
    result.replay(mu)
    return result


def dual_norm(mu: PairMeasure) -> DualNormResult:
    """Exact norm of the induced functional, with an attaining maximizer.

    `_norm` gets the 1-CM verdict on the support of a positive measure,
    and None for any other measure.
    """
    verdict = (check_gamma_cm(mu.space, mu.support(), Fraction(1))
               if mu.is_positive() else None)
    return _norm(mu, verdict)


@dataclass(frozen=True)
class OptimalityVerdict:
    optimal: bool
    certificate: Optional[CmCertificate]   # CM certificate of the support
    violation: Optional[CmViolation]
    gap: Optional[Fraction]                # ||mu|| - dual norm when not optimal


def is_optimal(mu: PairMeasure) -> OptimalityVerdict:
    """Norm attainment for a positive measure.

    For finitely supported positive measures optimality collapses to the
    support being cyclically monotonic.  On a certified support `_norm`'s
    replay alone proves it: the norm is at most the total mass, which the
    replayed inf-extension attains.  Otherwise its LP norm gives the gap.
    """
    if not mu.is_positive():
        raise InvalidInput("optimality is defined for positive measures; "
                           "positivize first")
    verdict = check_gamma_cm(mu.space, mu.support(), Fraction(1))
    norm = _norm(mu, verdict).norm
    if isinstance(verdict, CmCertificate):
        return OptimalityVerdict(True, verdict, None, None)
    gap = mu.total_variation() - norm
    if gap <= 0:
        raise SoundnessError("support not CM but LP attains total mass")
    return OptimalityVerdict(False, None, verdict, gap)


# ---------------------------------------------------------------------------
# Slice diameters

@dataclass(frozen=True)
class SliceDiameterResult:
    diameter: Fraction            # supremal diameter over the open slice
    pair: Pair                    # (u, v) realising the max slope sum
    f: LipschitzFunction
    g: LipschitzFunction
    method: str

    def replay(self, mu: PairMeasure, alpha: Fraction) -> None:
        """f and g lie in the closed slice {h in ball : mu(h) >= 1 - alpha}
        and slope(f, pair) - slope(g, pair) is the claimed diameter: a
        lower bound on the supremal diameter."""
        for h in (self.f, self.g):
            if not in_unit_ball(h):
                raise SoundnessError("slice member escapes the unit ball")
            if apply_measure(mu, h) < 1 - alpha:
                raise SoundnessError("slice member misses the closed slice")
        if slope(self.f, self.pair) - slope(self.g, self.pair) != \
                self.diameter:
            raise SoundnessError(
                "attaining pair does not reproduce the diameter")


def _apsp_with_slice(space: FiniteMetricSpace, atom: Pair,
                     alpha: Fraction) -> tuple[int, list[list[int]]]:
    """All-pairs shortest paths of the ball-plus-slice difference system.

    Edge q -> p of weight d(p, q) encodes f(p) - f(q) <= d(p, q); the
    slice constraint slope(f, (a, b)) >= 1 - alpha adds edge a -> b of
    weight w = -(1 - alpha) d(a, b).  The metric is already closed under
    shortest paths and a second use of the new edge closes a cycle of
    weight w + d(b, a) = alpha d(a, b) > 0, so the closed form

        dist[q][p] = min(d(q, p), d(q, a) + w + d(b, p))

    is exact in O(n^2).  Returns (S, dist) on the integer scale
    S = r * L for alpha = k / r: dist[q][p] / S is the exact maximum of
    f(p) - f(q) over the slice.
    """
    alpha = Fraction(alpha)
    k, r = alpha.numerator, alpha.denominator
    D = space.int_dist
    ia, ib = space.index(atom[0]), space.index(atom[1])
    w = (k - r) * D[ia][ib]
    to_b = [r * x for x in D[ib]]
    dist = []
    for row in D:
        via = row[ia] * r + w
        dist.append([min(r * x, via + y) for x, y in zip(row, to_b)])
    return r * space.scale, dist


def _check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 < alpha <= 2:
        raise InvalidInput(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


def slice_diameter(mu: PairMeasure, alpha: Fraction) -> SliceDiameterResult:
    """Supremal diameter of the slice {f in ball : mu(f) > 1 - alpha}.

    Requires the measure to induce a norm-one functional.  The closed
    slice is used in the optimisation; its maximum equals the supremum
    over the open slice.  Single-atom positive measures go through exact
    all-pairs shortest paths.  Every other measure maximises the slope
    across every ordered pair (u, v) over the ball-plus-slice polytope:
    one LP whose n(n - 1) objectives are its own ball rows, solved from
    one tableau by `solve_lps`; f and g are built for the best pair only.
    """
    alpha = _check_alpha(alpha)
    space = mu.space
    if dual_norm(mu).norm != 1:
        raise InvalidInput("slice diameter needs a normalized functional; "
                           "rescale the measure first")
    if len(space) < 2:
        raise InvalidInput("slice diameter needs at least two points")

    if len(mu.atoms) == 1 and mu.is_positive():
        atom = next(iter(mu.atoms))
        scale, dist = _apsp_with_slice(space, atom, alpha)
        # The diameter at (u, v) is (dist[v][u] + dist[u][v]) / (r D_uv)
        # for the integer scale S = r L; compare the quotients crosswise.
        r = scale // space.scale
        D = space.int_dist
        best = None
        for i in range(len(space)):
            for j in range(i + 1, len(space)):
                num, den = dist[j][i] + dist[i][j], r * D[i][j]
                if best is None or num * best[1] > best[0] * den:
                    best = (num, den, i, j)
        assert best is not None
        num, den, iu, iv = best
        diam = Fraction(num, den)
        u, v = space.points[iu], space.points[iv]
        ibase = space.index(space.base)
        f, g = (LipschitzFunction._scaled(
            space, scale, [x - dist[i][ibase] for x in dist[i]])
            for i in (iv, iu))
        result = SliceDiameterResult(diam, (u, v), f, g, "shortest-path")
        result.replay(mu, alpha)
        return result

    lp, free = _ball_lp(space)
    # The ball row of (u, v) is the objective f(u) - f(v), in pairs() order.
    objectives = list(lp.rows)
    lp.add_constraint([-c for c in _measure_objective(mu, free)], alpha - 1)
    cache = {}
    for (u, v), res in zip(space.pairs(), solve_lps(lp, objectives)):
        if res.status != "optimal":
            raise SoundnessError(f"slice LP came back {res.status}")
        cache[(u, v)] = (res.value / space.d(u, v), res.point)
    best = None
    for i, u in enumerate(space.points):
        for v in space.points[i + 1:]:
            cand = cache[(u, v)][0] + cache[(v, u)][0]
            if best is None or cand > best[0]:
                best = (cand, u, v)
    assert best is not None
    diam, u, v = best
    f, g = (_point_to_function(space, free, cache[pair][1])
            for pair in ((u, v), (v, u)))
    result = SliceDiameterResult(diam, (u, v), f, g, "lp")
    result.replay(mu, alpha)
    return result


# ---------------------------------------------------------------------------
# JSON round-trip

def measure_from_json(space: FiniteMetricSpace, obj: dict) -> PairMeasure:
    try:
        raw = obj["atoms"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed measure JSON: {exc}") from None
    if not isinstance(raw, list):
        raise InvalidInput(f"measure atoms must be a list, got {raw!r}")
    atoms: dict[Pair, Fraction] = {}
    for entry in raw:
        try:
            pair = space.check_pair((entry["from"], entry["to"]))
            weight = entry["weight"]
        except (KeyError, TypeError):
            raise InvalidInput(f"malformed measure atom {entry!r}: needs "
                               "'from', 'to' and 'weight'") from None
        if pair in atoms:
            raise InvalidInput(f"duplicate atom at {pair}")
        atoms[pair] = parse_rational(weight)
    return PairMeasure(space, atoms)


def measure_to_json(mu: PairMeasure) -> dict:
    return {"atoms": [{"from": p[0], "to": p[1], "weight": rational_str(w)}
                      for p, w in mu.atoms.items()]}
