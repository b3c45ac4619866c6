import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipcert import d2p
from lipcert.cli import EXAMPLE52_EPS, EXAMPLE52_N, example52_function
from lipcert.d2p import (Ld2pCertificate, LipLtpViolation, LipLtpWitness,
                         ld2p_certificate, lip_ltp_witness, replay_two_sided,
                         sd2p_certificate, two_lip_ltp_witness)
from lipcert.errors import InvalidInput, SoundnessError
from lipcert.functionals import PairMeasure, slice_diameter
from lipcert.lipschitz import LipschitzFunction, lip_norm, slope
from lipcert.metric import FiniteMetricSpace, build_example52, build_line
from lipcert.monotone import CmCertificate, brute_force_cm_oracle, \
    check_gamma_cm
from lipcert.reports import lip_ltp_payload, verify_payload

from conftest import (random_ball_function, random_pairs, random_space,
                      star_optimal_measure)

LINE3 = build_line(3)
HALF = Fraction(1, 2)
SEEDS = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# Lip-LTP

def test_lip_ltp_trivial_subset():
    zero = LipschitzFunction(LINE3, {p: 0 for p in LINE3.points})
    res = lip_ltp_witness(LINE3, ["0"], HALF, zero)
    assert res.found
    assert res.pair == ("0", "1")  # first in declaration order


def test_lip_ltp_refutes_example52():
    space = build_example52(1)
    f = example52_function(space)
    res = lip_ltp_witness(space, EXAMPLE52_N, EXAMPLE52_EPS, f)
    assert not res.found
    rows = {(v.lhs, v.rhs) for v in res.violations}
    assert (Fraction(65, 28), Fraction(2)) in rows
    assert (Fraction(91, 28), Fraction(3)) in rows


def test_lip_ltp_succeeds_at_larger_eps():
    space = build_example52(1)
    f = example52_function(space)
    res = lip_ltp_witness(space, EXAMPLE52_N, HALF, f)
    assert res.found
    u, v = res.pair
    scale = 1 - HALF
    for x in EXAMPLE52_N:
        for y in EXAMPLE52_N:
            assert scale * (abs(f(x) - f(y)) + space.d(u, v)) <= \
                space.d(x, u) + space.d(y, v)


def test_lip_ltp_input_validation():
    zero = LipschitzFunction(LINE3, {p: 0 for p in LINE3.points})
    with pytest.raises(InvalidInput):
        lip_ltp_witness(LINE3, ["0"], Fraction(1), zero)
    big = LipschitzFunction(LINE3, {"0": 0, "1": 2, "2": 4})
    with pytest.raises(InvalidInput):
        lip_ltp_witness(LINE3, ["0"], HALF, big)


@pytest.mark.parametrize("levels, rows", [(1, 962), (2, 1952), (3, 3274)])
def test_lip_ltp_row_counts_on_example52(levels, rows):
    space = build_example52(levels)
    f = example52_function(space)
    res = lip_ltp_witness(space, EXAMPLE52_N, EXAMPLE52_EPS, f)
    assert not res.found and len(res.violations) == rows


def reference_lip_ltp(space, subset, eps, f):
    """The Lip-LTP scan written out in `Fraction`, as before the integer
    form: the first compatible (u, v), or every violating row."""
    pts = [p for p in space.points if p in set(subset)]
    scale = 1 - eps
    violations = []
    for u, v in space.pairs():
        bad_here = []
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


def _quasi_metric_space(rng, max_points=6, denom=6):
    """Positive rational distances with no symmetry or triangle
    inequality, so that d(x, u) and d(u, x) differ."""
    n = rng.randint(2, max_points)
    dist = [[Fraction(0) if i == j else
             Fraction(rng.randint(1, 3 * denom), rng.randint(1, denom))
             for j in range(n)] for i in range(n)]
    return FiniteMetricSpace([f"p{i}" for i in range(n)], "p0", dist)


@st.composite
def lip_ltp_instances(draw):
    rng = random.Random(draw(SEEDS))
    if draw(st.booleans()):
        space = random_space(rng, 6, denom=draw(st.integers(1, 7)))
    else:
        space = _quasi_metric_space(rng)
    f = random_ball_function(rng, space)
    q = draw(st.integers(2, 40))
    eps = Fraction(draw(st.integers(1, q - 1)), q)
    # Sizes past the point count mean the whole space: absent verdicts.
    size = min(len(space), draw(st.integers(0, len(space) + 2)))
    subset = rng.sample(space.points, size)
    if subset and draw(st.booleans()):
        subset.append(subset[0])
    return space, subset, eps, f


@settings(max_examples=300, deadline=None)
@given(lip_ltp_instances())
def test_lip_ltp_matches_the_fraction_loop(case):
    space, subset, eps, f = case
    res = lip_ltp_witness(space, subset, eps, f)
    assert res == reference_lip_ltp(space, subset, eps, f)
    payload = lip_ltp_payload(space, subset, eps, f, res)
    verify_payload(json.loads(json.dumps(payload)))


# ---------------------------------------------------------------------------
# 2-Lip-LTP

def test_two_lip_ltp_empty_set():
    res = two_lip_ltp_witness(LINE3, (), HALF)
    assert res.found
    assert slope(res.f, (res.pair[1], res.pair[0])) >= HALF
    assert slope(res.g, res.pair) >= HALF


def test_two_lip_ltp_requires_cm_input():
    with pytest.raises(InvalidInput):
        two_lip_ltp_witness(LINE3, (("0", "2"), ("2", "0")), HALF)


def test_two_lip_ltp_matches_augmentation_oracle():
    pairs = (("2", "1"), ("1", "0"))
    res = two_lip_ltp_witness(LINE3, pairs, HALF)
    gamma = 1 - HALF
    any_pair_works = any(
        brute_force_cm_oracle(LINE3, pairs + ((u, v),), gamma)
        and brute_force_cm_oracle(LINE3, pairs + ((v, u),), gamma)
        for u, v in LINE3.pairs())
    assert res.found == any_pair_works


def test_two_lip_ltp_on_example52():
    space = build_example52(2)
    res = two_lip_ltp_witness(space, (("x1", "y1"),), HALF)
    assert res.found
    gamma = 1 - HALF
    u, v = res.pair
    for x in ("x1", "y1"):
        for y in ("x1", "y1"):
            lhs = max(res.f(x) - res.f(y), res.g(y) - res.g(x)) + \
                gamma * space.d(u, v)
            assert lhs <= space.d(x, u) + space.d(y, v)


def test_two_lip_ltp_matches_oracle_randomly(rng):
    done = 0
    while done < 15:
        space = random_space(rng, 5)
        pairs = random_pairs(rng, space, 3)
        if not isinstance(check_gamma_cm(space, pairs, Fraction(1)),
                          CmCertificate):
            continue
        eps = rng.choice([Fraction(1, 4), HALF])
        res = two_lip_ltp_witness(space, pairs, eps)
        gamma = 1 - eps
        expected = any(
            brute_force_cm_oracle(space, pairs + ((u, v),), gamma)
            and brute_force_cm_oracle(space, pairs + ((v, u),), gamma)
            for u, v in space.pairs())
        assert res.found == expected
        done += 1


# ---------------------------------------------------------------------------
# LD2P certificates

def test_ld2p_unit_atom_on_example52():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    outcome = ld2p_certificate(mu, HALF)
    assert outcome.certificate is not None
    cert = outcome.certificate
    cert.replay(mu)
    assert cert.pair_set == (("x1", "y1"),)
    # Easier at smaller gamma as well.
    assert ld2p_certificate(mu, Fraction(1, 10)).certificate is not None


def _raised_by_one_unit(extension):
    """`extension` with its value raised by 1/K at the first point that is
    neither the base nor a landing point, K = lcm(L, value denominators).
    The inf-extension is tight there (f(p) - f(q) = d(p, q) at the landing
    point q that attains the min), so the result leaves the unit ball."""
    def broken(space, cert):
        f = extension(space, cert)
        lands = {y for _, y in cert.pairs}
        p = next(p for p in space.points
                 if p != space.base and p not in lands)
        K = math.lcm(space.scale, *(v.denominator for v in f.values.values()))
        return LipschitzFunction(space, {**f.values,
                                         p: f.values[p] + Fraction(1, K)})
    return broken


def test_searches_refuse_a_witness_off_by_one_unit(monkeypatch):
    """The two-sided step takes its witnesses unchecked; every search must
    still refuse a wrong one before it returns."""
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    assert ld2p_certificate(mu, HALF).certificate is not None
    assert two_lip_ltp_witness(space, (("x1", "y1"),), HALF).found
    monkeypatch.setattr(d2p, "inf_extension",
                        _raised_by_one_unit(d2p.inf_extension))
    with pytest.raises(SoundnessError):
        ld2p_certificate(mu, HALF)
    with pytest.raises(SoundnessError):
        sd2p_certificate([mu], HALF)
    with pytest.raises(SoundnessError):
        two_lip_ltp_witness(space, (("x1", "y1"),), HALF)


def test_ld2p_rejects_non_optimal_input():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): HALF, ("y1", "x1"): HALF})
    with pytest.raises(InvalidInput):
        ld2p_certificate(mu, HALF)


def test_ld2p_rejects_gamma_one_and_unnormalized():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    with pytest.raises(InvalidInput):
        ld2p_certificate(mu, Fraction(1))
    with pytest.raises(InvalidInput):
        ld2p_certificate(PairMeasure(space, {("x1", "y1"): HALF}), HALF)


def test_ld2p_certificate_tamper_detection():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    cert = ld2p_certificate(mu, HALF).certificate
    zero = LipschitzFunction(space, {p: 0 for p in space.points})
    bad = Ld2pCertificate(cert.pair_set, zero, cert.g, cert.u, cert.v,
                          cert.gamma)
    with pytest.raises(SoundnessError):
        bad.replay(mu)


def test_ld2p_implies_slice_diameter_bound():
    """A certificate at gamma forces slice diameter >= 2 gamma whenever
    gamma^2 >= 1 - alpha/2."""
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    gamma = HALF
    cert = ld2p_certificate(mu, gamma).certificate
    assert cert is not None
    alpha = 2 * (1 - gamma ** 2)
    assert slice_diameter(mu, alpha).diameter >= 2 * gamma


# ---------------------------------------------------------------------------
# SD2P certificates

def test_sd2p_single_measure_reduces_to_ld2p():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    solo = sd2p_certificate([mu], HALF)
    alone = ld2p_certificate(mu, HALF)
    assert (solo.certificate is None) == (alone.certificate is None)
    solo.certificate.replay([mu])


def test_sd2p_two_measures_common_pair():
    space = build_example52(2)
    mu1 = PairMeasure(space, {("x1", "y1"): 1})
    mu2 = PairMeasure(space, {("x2", "y2"): 1})
    outcome = sd2p_certificate([mu1, mu2], HALF)
    assert outcome.certificate is not None
    cert = outcome.certificate
    cert.replay([mu1, mu2])
    assert all((p.u, p.v) == (cert.u, cert.v) for p in cert.parts)


def test_sd2p_convex_combination_separates():
    """||sum lambda_i (f_i - g_i)|| >= 2 gamma via the common pair."""
    space = build_example52(2)
    mu1 = PairMeasure(space, {("x1", "y1"): 1})
    mu2 = PairMeasure(space, {("x2", "y2"): 1})
    cert = sd2p_certificate([mu1, mu2], HALF).certificate
    lam = [HALF, HALF]
    f = LipschitzFunction(space, {
        p: sum(l * part.f(p) for l, part in zip(lam, cert.parts))
        for p in space.points})
    g = LipschitzFunction(space, {
        p: sum(l * part.g(p) for l, part in zip(lam, cert.parts))
        for p in space.points})
    assert lip_norm(f) <= 1 and lip_norm(g) <= 1
    # Each f_i has quotient >= gamma across (v, u) and each g_i across
    # (u, v), so the difference separates at the common molecule.
    uv = (cert.u, cert.v)
    assert slope(g, uv) - slope(f, uv) >= 2 * HALF
    assert lip_norm(LipschitzFunction(space, {
        p: f(p) - g(p) for p in space.points})) >= 2 * HALF


def test_sd2p_input_validation():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    with pytest.raises(InvalidInput):
        sd2p_certificate([], HALF)
    other = PairMeasure(LINE3, {("1", "0"): 1})
    with pytest.raises(InvalidInput):
        sd2p_certificate([mu, other], HALF)


# ---------------------------------------------------------------------------
# The two-sided replay against the conditions it replaces

GAMMAS = st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4)])


def assert_two_sided_reference(space, pairs, gamma, u, v, f, g):
    """Both augmentations are gamma-CM by cycle enumeration, and the
    two-sided bound holds at every pair of points."""
    assert brute_force_cm_oracle(space, pairs + ((u, v),), gamma)
    assert brute_force_cm_oracle(space, pairs + ((v, u),), gamma)
    guv = gamma * space.d(u, v)
    for x in space.points:
        for y in space.points:
            assert max(f(x) - f(y), g(y) - g(x)) + guv <= \
                space.d(x, u) + space.d(y, v)


@settings(max_examples=80, deadline=None)
@given(SEEDS, GAMMAS)
def test_search_certificates_pass_the_replay(seed, gamma):
    rng = random.Random(seed)
    space = random_space(rng, 5)
    pairs = random_pairs(rng, space, 3)
    if isinstance(check_gamma_cm(space, pairs, Fraction(1)), CmCertificate):
        res = two_lip_ltp_witness(space, pairs, 1 - gamma)
        if res.found:
            replay_two_sided(pairs, gamma, *res.pair, res.f, res.g)
            assert_two_sided_reference(space, pairs, gamma, *res.pair,
                                       res.f, res.g)
    mu = star_optimal_measure(rng, space)
    cert = ld2p_certificate(mu, gamma).certificate
    if cert is not None:
        cert.replay(mu)
        assert_two_sided_reference(space, cert.pair_set, gamma, cert.u,
                                   cert.v, cert.f, cert.g)


def _cone(space, z, mix, rng):
    """mix * (d(., z) - d(base, z)) + (1 - mix) * a random ball function:
    in the unit ball, with slope >= mix across every (p, z)."""
    h = random_ball_function(rng, space)
    return LipschitzFunction(space, {
        p: mix * (space.d(p, z) - space.d(space.base, z)) + (1 - mix) * h(p)
        for p in space.points})


@st.composite
def two_sided_candidates(draw):
    rng = random.Random(draw(SEEDS))
    space = random_space(rng, 5)
    u, v = draw(st.sampled_from(list(space.pairs())))
    gamma = draw(GAMMAS)
    if draw(st.booleans()):
        mix = draw(st.sampled_from([Fraction(1), Fraction(3, 4), HALF]))
        f, g = _cone(space, u, mix, rng), _cone(space, v, mix, rng)
    else:
        f, g = random_ball_function(rng, space), random_ball_function(rng,
                                                                      space)
    steep = [p for p in space.pairs()
             if slope(f, p) >= gamma and slope(g, p) >= gamma]
    pairs = tuple(rng.sample(steep, draw(st.integers(0, min(3, len(steep))))))
    if draw(st.booleans()):
        pairs += (draw(st.sampled_from(list(space.pairs()))),)
    return space, pairs, gamma, u, v, f, g


@settings(max_examples=300, deadline=None)
@given(two_sided_candidates())
def test_replay_implies_the_searched_conditions(case):
    space, pairs, gamma, u, v, f, g = case
    try:
        replay_two_sided(pairs, gamma, u, v, f, g)
    except SoundnessError:
        return
    assert_two_sided_reference(space, pairs, gamma, u, v, f, g)


def test_replay_rejects_g_equal_f():
    space = build_example52(1)
    mu = PairMeasure(space, {("x1", "y1"): 1})
    cert = ld2p_certificate(mu, HALF).certificate
    with pytest.raises(SoundnessError):
        replay_two_sided(cert.pair_set, HALF, cert.u, cert.v, cert.f, cert.f)


# ---------------------------------------------------------------------------
# The refutation side implies small weak-star neighborhoods

def test_wstar_neighborhood_around_f_has_small_diameter():
    """With no compatible pair at eps = 1/14, the neighborhood
    {g in ball : |quotient(g - f, p)| <= eps on N-pairs} must have
    diameter < 2.  All constraints are difference bounds, so exact
    all-pairs shortest paths decide the sup diameter."""
    space = build_example52(1)
    f = example52_function(space)
    eps = EXAMPLE52_EPS
    n = len(space)
    pts = space.points
    bound = [[space.d(q, p) for p in pts] for q in pts]  # max of g(p) - g(q)
    for x in EXAMPLE52_N:
        for y in EXAMPLE52_N:
            if x == y:
                continue
            i, j = space.index(x), space.index(y)
            # g(x) - g(y) <= f(x) - f(y) + eps d(x, y)
            bound[j][i] = min(bound[j][i], f(x) - f(y) + eps * space.d(x, y))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = bound[i][k] + bound[k][j]
                if via < bound[i][j]:
                    bound[i][j] = via
    for i in range(n):
        assert bound[i][i] == 0  # nonempty: f itself is feasible
    diam = max((bound[j][i] + bound[i][j]) / space.d(pts[i], pts[j])
               for i in range(n) for j in range(n) if i != j)
    assert diam < 2
