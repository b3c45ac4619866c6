"""Diameter-two-property certificates and their refutation tables.

Every returned certificate replays all of its invariant inequalities
exactly before being handed back; a replay failure anywhere raises
`SoundnessError`.  A negative answer (ABSENT) always carries an audit
log of what was scanned and why each candidate failed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import InvalidInput, SoundnessError
from .functionals import PairMeasure, dual_norm, is_optimal
from .lipschitz import LipschitzFunction, in_unit_ball, slope
from .metric import FiniteMetricSpace, Pair, PairSet, make_pair_set, project
from .monotone import (CmCertificate, CmViolation, check_augmented, check_gamma,
                       check_gamma_cm, synthesize_witness)

MAX_SUPPORT = 16
MAX_LOG_ENTRIES = 10000


# ---------------------------------------------------------------------------
# Lip-LTP (one function, a finite point set)

@dataclass(frozen=True)
class LipLtpViolation:
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


def lip_ltp_witness(space: FiniteMetricSpace, subset: Sequence[str],
                    eps: Fraction, f: LipschitzFunction) -> LipLtpWitness:
    """Scan all ordered (u, v) for one compatible with f on the subset.

    Returns the first working pair in declaration order, or ABSENT with
    every violating (x, y) for every candidate.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    if not in_unit_ball(f):
        raise InvalidInput("function is outside the unit ball")
    pts = [p for p in space.points if p in set(subset)]
    for p in subset:
        space.index(p)
    scale = 1 - eps
    violations: list[LipLtpViolation] = []
    for u, v in space.pairs():
        bad_here: list[LipLtpViolation] = []
        duv = space.d(u, v)
        for x in pts:
            for y in pts:
                lhs = scale * (abs(f(x) - f(y)) + duv)
                rhs = space.d(x, u) + space.d(y, v)
                if lhs > rhs:
                    bad_here.append(LipLtpViolation((u, v), x, y, lhs, rhs))
        if not bad_here:
            return LipLtpWitness(True, (u, v))
        violations.extend(bad_here)
    return LipLtpWitness(False, None, tuple(violations))


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
    base_check = check_gamma_cm(space, pairs, Fraction(1))
    if isinstance(base_check, CmViolation):
        raise InvalidInput("pair set is not cyclically monotonic")
    gamma = 1 - eps
    failures: list[tuple[Pair, str, tuple[int, ...]]] = []
    for u, v in space.pairs():
        fwd = check_augmented(space, pairs, gamma, u, v)
        if isinstance(fwd, CmViolation):
            failures.append(((u, v), "forward", fwd.cycle))
            continue
        bwd = check_augmented(space, pairs, gamma, v, u)
        if isinstance(bwd, CmViolation):
            failures.append(((u, v), "backward", bwd.cycle))
            continue
        f = synthesize_witness(space, bwd.pairs, gamma, bwd)
        g = synthesize_witness(space, fwd.pairs, gamma, fwd)
        _replay_pairwise(space, pairs, f, g, u, v, gamma)
        for pair in pairs:
            if slope(f, pair) < gamma or slope(g, pair) < gamma:
                raise SoundnessError(f"witness slope below 1 - eps at {pair}")
        return TwoLipLtpResult(True, eps, (u, v), f, g)
    return TwoLipLtpResult(False, eps, failures=tuple(failures))


def _replay_pairwise(space, pairs, f, g, u, v, gamma) -> None:
    """max{f(x)-f(y), g(y)-g(x)} + gamma d(u,v) <= d(x,u) + d(y,v).

    f witnesses the (v, u)-augmentation, so f(v) - f(u) >= gamma d(u, v)
    and the first branch telescopes; g witnesses (u, v) and gives the
    second.
    """
    guv = gamma * space.d(u, v)
    for x in project(pairs):
        for y in project(pairs):
            lhs = max(f(x) - f(y), g(y) - g(x)) + guv
            if lhs > space.d(x, u) + space.d(y, v):
                raise SoundnessError(
                    f"two-sided bound fails at ({x}, {y}) for ({u}, {v})")


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
        space = mu.space
        gamma = self.gamma
        if mu.mass_of(self.pair_set) < gamma * mu.total_mass():
            raise SoundnessError("selected pair set carries too little mass")
        for h in (self.f, self.g):
            if not in_unit_ball(h):
                raise SoundnessError("certificate function escapes the ball")
        for pair in self.pair_set:
            if slope(self.f, pair) < gamma or slope(self.g, pair) < gamma:
                raise SoundnessError(f"certificate slope below gamma at {pair}")
        for w, pr in ((self.u, self.v), (self.v, self.u)):
            aug = make_pair_set(space, self.pair_set + ((w, pr),))
            if isinstance(check_gamma_cm(space, aug, gamma), CmViolation):
                raise SoundnessError("augmented set is not gamma-CM")
        _replay_pairwise(space, self.pair_set, self.f, self.g,
                         self.u, self.v, gamma)


@dataclass(frozen=True)
class SearchLog:
    scanned: int
    # (pair-set candidate index, candidate (u,v), failing side)
    entries: tuple[tuple[int, Pair, str], ...]
    truncated: bool


@dataclass(frozen=True)
class Ld2pOutcome:
    certificate: Optional[Ld2pCertificate]
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


def ld2p_certificate(mu: PairMeasure, gamma: Fraction) -> Ld2pOutcome:
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
    if not is_optimal(mu).optimal:
        raise InvalidInput("measure is not optimal (support is not CM)")
    if dual_norm(mu).norm != 1:
        raise InvalidInput("measure is not normalized to norm one")

    entries: list[tuple[int, Pair, str]] = []
    scanned = 0
    truncated = False
    for a_index, cand in enumerate(_mass_candidates(mu, gamma)):
        for u, v in space.pairs():
            scanned += 1
            fwd = check_augmented(space, cand, gamma, u, v)
            if isinstance(fwd, CmViolation):
                side = "forward"
            else:
                bwd = check_augmented(space, cand, gamma, v, u)
                if isinstance(bwd, CmViolation):
                    side = "backward"
                else:
                    f = synthesize_witness(space, bwd.pairs, gamma, bwd)
                    g = synthesize_witness(space, fwd.pairs, gamma, fwd)
                    cert = Ld2pCertificate(cand, f, g, u, v, gamma)
                    cert.replay(mu)
                    return Ld2pOutcome(cert)
            if len(entries) < MAX_LOG_ENTRIES:
                entries.append((a_index, (u, v), side))
            else:
                truncated = True
    return Ld2pOutcome(None, SearchLog(scanned, tuple(entries), truncated))


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


@dataclass(frozen=True)
class Sd2pOutcome:
    certificate: Optional[Sd2pCertificate]
    log: Optional[SearchLog] = None


def sd2p_certificate(mu_list: Sequence[PairMeasure],
                     gamma: Fraction) -> Sd2pOutcome:
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
        if not is_optimal(mu).optimal:
            raise InvalidInput("a measure is not optimal")
        if dual_norm(mu).norm != 1:
            raise InvalidInput("a measure is not normalized to norm one")
    candidates = [_mass_candidates(mu, gamma) for mu in mu_list]

    entries: list[tuple[int, Pair, str]] = []
    scanned = 0
    truncated = False
    for u, v in space.pairs():
        parts: list[Ld2pCertificate] = []
        for i, mu in enumerate(mu_list):
            found = None
            for cand in candidates[i]:
                scanned += 1
                fwd = check_augmented(space, cand, gamma, u, v)
                if isinstance(fwd, CmViolation):
                    continue
                bwd = check_augmented(space, cand, gamma, v, u)
                if isinstance(bwd, CmViolation):
                    continue
                f = synthesize_witness(space, bwd.pairs, gamma, bwd)
                g = synthesize_witness(space, fwd.pairs, gamma, fwd)
                found = Ld2pCertificate(cand, f, g, u, v, gamma)
                found.replay(mu)
                break
            if found is None:
                if len(entries) < MAX_LOG_ENTRIES:
                    entries.append((i, (u, v), "no-candidate"))
                else:
                    truncated = True
                break
            parts.append(found)
        if len(parts) == len(mu_list):
            cert = Sd2pCertificate(tuple(parts), u, v)
            cert.replay(mu_list)
            return Sd2pOutcome(cert)
    return Sd2pOutcome(None, SearchLog(scanned, tuple(entries), truncated))
