"""Diameter-two-property certificates and their refutation tables.

The 2-Lip-LTP, LD2P and SD2P searches share one two-sided augmentation
step and one replay, `replay_two_sided`, run by the searches, `verify`
and `--emit-proof`.  It is two calls of `monotone.replay_witness`, the
one check of "unit ball and slope >= gamma across pairs" (the gate
of the `witness` command too), which reads the ints (K, F) that
`inf_extension` built from the potentials.  A replay
failure raises `SoundnessError`: in a search it is a bug, and `verify`
reports it as a rejected report.  `Ld2pCertificate.replay` checks that
gamma lies in (0, 1] before it checks the mass of the selected pair
set.  A negative answer (ABSENT) carries an audit log of every candidate
and its failure.

The Lip-LTP inequality (1 - eps)(|f(x) - f(y)| + d(u, v)) > d(x, u) +
d(y, v) is compiled once onto integers by `LipLtpInequality`: with
D = L * d the space's matrix, f = F / K the function's own ints,
s = K / L and 1 - eps = c / b, both sides times b * K are
c * (|F_x - F_y| + s * D_uv) and b * s * (D_xu + D_yv).  The search, the
`verify` replay of a found pair (`failing`) and the replay of each logged
row (`sides`) all evaluate this one form; `Fraction` appears only when a
refutation table is logged, once per distinct side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, NamedTuple, Optional, Sequence, Union

from .errors import InvalidInput, SoundnessError
from .functionals import PairMeasure
from .lipschitz import LipschitzFunction, in_unit_ball
from .metric import FiniteMetricSpace, Pair, PairSet, make_pair_set
from .monotone import (CmViolation, check_augmented, check_gamma,
                       check_gamma_cm, inf_extension, replay_witness)

MAX_SUPPORT = 16
MAX_LOG_ENTRIES = 10000


# ---------------------------------------------------------------------------
# Lip-LTP (one function, a finite point set)

class LipLtpViolation(NamedTuple):
    candidate: Pair
    x: str
    y: str
    lhs: Fraction          # (1 - eps)(|f(x) - f(y)| + d(u, v))
    rhs: Fraction          # d(x, u) + d(y, v)


@dataclass(frozen=True)
class LipLtpWitness:
    found: bool
    pair: Optional[Pair] = None
    # Exhaustive per-candidate violation lists when absent.
    violations: tuple[LipLtpViolation, ...] = ()


class LipLtpInequality:
    """The Lip-LTP inequality of one function at one eps, on integers.

    Row (x, y) of candidate (u, v) reads lhs > rhs with
    lhs = c * (|F_x - F_y| + s * D_uv) and rhs = b * s * (D_xu + D_yv),
    both over `denominator` = b * K, where 1 - eps = c / b, f = F / K
    holds the function's ints, D = L * d and s = K / L.  Nothing is
    rounded: lhs / (b K) and rhs / (b K) are exactly the two rational
    sides.  D_xu and D_yv are read as written, not by symmetry.

    `subset` (point indices) fixes the rows that `failing` scans.  It
    precomputes c * |F_x - F_y| for x, y in the subset and, for every
    point w, the column b * s * D_xw over x in the subset, which serves
    D_xu and D_yv alike.
    """

    def __init__(self, space: FiniteMetricSpace, eps: Fraction,
                 f: LipschitzFunction, subset: Sequence[int]):
        if not 0 < eps < 1:
            raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
        K, F = f.K, f.F
        s = K // space.scale
        b = eps.denominator
        c = b - eps.numerator
        D = space.int_dist
        self._F, self._D = F, D
        self._c, self._cs, self._bs = c, c * s, b * s
        self.denominator = b * K
        self._subset = subset = tuple(subset)
        self._gap = [[c * abs(F[x] - F[y]) for y in subset] for x in subset]
        self._col = [[self._bs * D[x][w] for x in subset]
                     for w in range(len(D))]

    def sides(self, u: int, v: int, x: int, y: int) -> tuple[int, int]:
        """(lhs, rhs) of row (x, y) of candidate (u, v), point indices."""
        D, F = self._D, self._F
        return (self._c * abs(F[x] - F[y]) + self._cs * D[u][v],
                self._bs * (D[x][u] + D[y][v]))

    def failing(self, u: int, v: int) -> list[tuple[int, int, int, int]]:
        """(x, y, lhs, rhs) of every row of candidate (u, v) over the
        subset with lhs > rhs, x-major in subset order."""
        t = self._cs * self._D[u][v]
        sub = self._subset
        return [(x, y, g + t, a + e)
                for x, a, gaps in zip(sub, self._col[u], self._gap)
                for y, e, g in zip(sub, self._col[v], gaps) if g + t > a + e]


def lip_ltp_witness(space: FiniteMetricSpace, subset: Sequence[str],
                    eps: Fraction, f: LipschitzFunction) -> LipLtpWitness:
    """Scan all ordered (u, v) for one compatible with f on the subset.

    Returns the first working pair in declaration order, or ABSENT with
    every violating (x, y) for every candidate.  Each candidate's failing
    rows come from `LipLtpInequality.failing` on integers; when the table
    is logged, each distinct side becomes one `Fraction`, lhs / (b K) or
    rhs / (b K), shared by every row that holds it.
    """
    pts = space.points
    form = LipLtpInequality(space, Fraction(eps), f,
                            [i for i, p in enumerate(pts) if p in subset])
    if not in_unit_ball(f):
        raise InvalidInput("function is outside the unit ball")
    for p in subset:
        space.index(p)
    tables: list[tuple[Pair, list[tuple[int, int, int, int]]]] = []
    for u, pu in enumerate(pts):
        for v, pv in enumerate(pts):
            if u != v:
                bad = form.failing(u, v)
                if not bad:
                    return LipLtpWitness(True, (pu, pv))
                tables.append(((pu, pv), bad))
    den = form.denominator
    sides = {n for _, bad in tables for row in bad for n in row[2:]}
    value = {n: Fraction(n, den) for n in sides}
    return LipLtpWitness(False, None, tuple(
        LipLtpViolation(cand, pts[x], pts[y], value[lhs], value[rhs])
        for cand, bad in tables for x, y, lhs, rhs in bad))


# ---------------------------------------------------------------------------
# The two-sided augmentation step and its replay

def _two_sided(space: FiniteMetricSpace, pairs: PairSet, gamma: Fraction,
               u: str, v: str) -> tuple[Optional[str], Any]:
    """Decide A + (u, v) ("forward"), then A + (v, u) ("backward").
    Returns (side, violation) at the first side that is not gamma-CM, else
    (None, (f, g)): f the inf-extension of the backward certificate, g of
    the forward one.  They are not checked here: every caller that emits
    them runs `replay_two_sided` first, two `replay_witness` calls, the
    gate the `witness` command puts on its one inf-extension."""
    fwd = check_augmented(space, pairs, gamma, u, v)
    if isinstance(fwd, CmViolation):
        return "forward", fwd
    bwd = check_augmented(space, pairs, gamma, v, u)
    if isinstance(bwd, CmViolation):
        return "backward", bwd
    return None, (inf_extension(space, bwd), inf_extension(space, fwd))


def replay_two_sided(pairs: PairSet, gamma: Fraction, u: str, v: str,
                     f: LipschitzFunction, g: LipschitzFunction) -> None:
    """Replay a two-sided witness: `replay_witness` of f on A + (v, u) and
    of g on A + (u, v).  A degenerate or unknown (u, v), or a gamma
    outside (0, 1], is `InvalidInput`.

    These checks imply what the search decided.  The potentials
    alpha_i = f(y_i) satisfy alpha_i <= alpha_j + beta_ij on A + (v, u):
    f(y_i) <= f(x_i) - gamma d(x_i, y_i) <= f(y_j) + d(x_i, y_j)
    - gamma d(x_i, y_i), and f(y_i) <= f(y_j) + d(y_i, y_j).  So
    A + (v, u) is gamma-CM, and A + (u, v) is by g alike.  They also give
    the two-sided bound max{f(x) - f(y), g(y) - g(x)} + gamma d(u, v)
    <= d(x, u) + d(y, v) for all x, y: f(v) - f(u) >= gamma d(u, v)
    telescopes f(x) - f(y) + gamma d(u, v) <= (f(x) - f(u)) + (f(v) - f(y)),
    and g(u) - g(v) >= gamma d(u, v) bounds g(y) - g(x) the same way.
    """
    replay_witness((*pairs, (v, u)), gamma, f)
    replay_witness((*pairs, (u, v)), gamma, g)


# ---------------------------------------------------------------------------
# 2-Lip-LTP (a cyclically monotonic pair set)

@dataclass(frozen=True)
class TwoLipLtpResult:
    found: bool
    eps: Fraction
    pair: Optional[Pair] = None
    f: Optional[LipschitzFunction] = None
    g: Optional[LipschitzFunction] = None
    # (candidate, failing direction "forward"/"backward", violating cycle)
    failures: tuple[tuple[Pair, str, tuple[int, ...]], ...] = ()


def two_lip_ltp_witness(space: FiniteMetricSpace, pairs: PairSet,
                        eps: Fraction) -> TwoLipLtpResult:
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    pairs = make_pair_set(space, pairs)
    if isinstance(check_gamma_cm(space, pairs, Fraction(1)), CmViolation):
        raise InvalidInput("pair set is not cyclically monotonic")
    gamma = 1 - eps
    failures: list[tuple[Pair, str, tuple[int, ...]]] = []
    for u, v in space.pairs():
        side, out = _two_sided(space, pairs, gamma, u, v)
        if side is None:
            replay_two_sided(pairs, gamma, u, v, *out)
            return TwoLipLtpResult(True, eps, (u, v), *out)
        failures.append(((u, v), side, out.cycle))
    return TwoLipLtpResult(False, eps, failures=tuple(failures))


# ---------------------------------------------------------------------------
# LD2P / SD2P certificates

@dataclass(frozen=True)
class Ld2pCertificate:
    pair_set: PairSet
    f: LipschitzFunction
    g: LipschitzFunction
    u: str
    v: str
    gamma: Fraction

    def replay(self, mu: PairMeasure) -> None:
        """gamma in (0, 1], mu(pair_set) >= gamma * mu(M~), then
        `replay_two_sided`.  gamma goes first: a gamma out of range is
        `InvalidInput`, not a mass shortfall."""
        check_gamma(self.gamma)
        if mu.mass_of(self.pair_set) < self.gamma * mu.total_mass():
            raise SoundnessError("selected pair set carries too little mass")
        replay_two_sided(self.pair_set, self.gamma, self.u, self.v,
                         self.f, self.g)


@dataclass(frozen=True)
class SearchLog:
    scanned: int
    # (pair-set candidate index, candidate (u,v), failing side)
    entries: tuple[tuple[int, Pair, str], ...]
    truncated: bool   # some failure is missing past MAX_LOG_ENTRIES


@dataclass(frozen=True)
class SearchOutcome:
    certificate: Optional[Union[Ld2pCertificate, Sd2pCertificate]]
    log: Optional[SearchLog] = None


def _mass_candidates(mu: PairMeasure, gamma: Fraction) -> list[PairSet]:
    """Subsets of the support with mass >= gamma * mu(M~), heaviest first."""
    supp = mu.support()
    if len(supp) > MAX_SUPPORT:
        raise InvalidInput(f"support search is guarded to {MAX_SUPPORT} atoms")
    target = gamma * mu.total_mass()
    out: list[tuple[Fraction, PairSet]] = []
    for size in range(len(supp), 0, -1):
        for sub in combinations(supp, size):
            mass = mu.mass_of(sub)
            if mass >= target:
                out.append((mass, sub))
    out.sort(key=lambda t: (-t[0], t[1]))
    return [s for _, s in out]


def _require_normalized_optimal(mu: PairMeasure, not_optimal: str,
                                not_normalized: str) -> None:
    """Positive, with a 1-CM support and total mass 1: for a positive
    measure with CM support the norm is the total mass."""
    if not mu.is_positive():
        raise InvalidInput("optimality is defined for positive measures; "
                           "positivize first")
    if isinstance(check_gamma_cm(mu.space, mu.support(), Fraction(1)),
                  CmViolation):
        raise InvalidInput(not_optimal)
    if mu.total_mass() != 1:
        raise InvalidInput(not_normalized)


def ld2p_certificate(mu: PairMeasure, gamma: Fraction) -> SearchOutcome:
    """Search for a local-diameter-two certificate for one functional.

    Preconditions: mu positive, optimal, and normalized to total mass 1.
    Candidate pair sets are support subsets with mass >= gamma, heaviest
    first; for each, (u, v) are scanned in declaration order for both
    augmentations to be gamma-CM.  ABSENT means exhaustion at this finite
    space, not a disproof for any larger ambient space.
    """
    gamma = check_gamma(gamma)
    if gamma == 1:
        raise InvalidInput("the certificate search needs gamma < 1")
    space = mu.space
    _require_normalized_optimal(
        mu, "measure is not optimal (support is not CM)",
        "measure is not normalized to norm one")

    entries: list[tuple[int, Pair, str]] = []
    scanned = 0
    for a_index, cand in enumerate(_mass_candidates(mu, gamma)):
        for u, v in space.pairs():
            scanned += 1
            side, out = _two_sided(space, cand, gamma, u, v)
            if side is None:
                cert = Ld2pCertificate(cand, *out, u, v, gamma)
                cert.replay(mu)
                return SearchOutcome(cert)
            if len(entries) < MAX_LOG_ENTRIES:
                entries.append((a_index, (u, v), side))
    # Every scanned candidate failed.
    return SearchOutcome(None, SearchLog(scanned, tuple(entries),
                                         scanned > len(entries)))


@dataclass(frozen=True)
class Sd2pCertificate:
    parts: tuple[Ld2pCertificate, ...]   # common (u, v) across all parts
    u: str
    v: str

    def replay(self, mu_list: Sequence[PairMeasure]) -> None:
        if len(self.parts) != len(mu_list):
            raise SoundnessError("certificate arity mismatch")
        for part, mu in zip(self.parts, mu_list):
            if (part.u, part.v) != (self.u, self.v):
                raise SoundnessError("parts disagree on the common pair")
            part.replay(mu)


def sd2p_certificate(mu_list: Sequence[PairMeasure],
                     gamma: Fraction) -> SearchOutcome:
    """Common-(u, v) certificate across several optimal functionals."""
    gamma = check_gamma(gamma)
    if gamma == 1:
        raise InvalidInput("the certificate search needs gamma < 1")
    if not mu_list:
        raise InvalidInput("need at least one measure")
    space = mu_list[0].space
    for mu in mu_list:
        if mu.space.points != space.points:
            raise InvalidInput("measures live on different spaces")
        _require_normalized_optimal(mu, "a measure is not optimal",
                                    "a measure is not normalized to norm one")
    candidates = [_mass_candidates(mu, gamma) for mu in mu_list]

    entries: list[tuple[int, Pair, str]] = []
    scanned = 0
    for u, v in space.pairs():
        parts: list[Ld2pCertificate] = []
        for i, cands in enumerate(candidates):
            for cand in cands:
                scanned += 1
                side, out = _two_sided(space, cand, gamma, u, v)
                if side is None:
                    parts.append(Ld2pCertificate(cand, *out, u, v, gamma))
                    break
            else:
                if len(entries) < MAX_LOG_ENTRIES:
                    entries.append((i, (u, v), "no-candidate"))
                break
        if len(parts) == len(mu_list):
            cert = Sd2pCertificate(tuple(parts), u, v)
            cert.replay(mu_list)
            return SearchOutcome(cert)
    # Every candidate pair failed.
    n = len(space)
    return SearchOutcome(None, SearchLog(scanned, tuple(entries),
                                         n * (n - 1) > len(entries)))
