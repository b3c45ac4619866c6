import json
import math
import random
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from lipcert.errors import InvalidInput, SoundnessError
from lipcert.functionals import PairMeasure
from lipcert.lipschitz import LipschitzFunction, lip_norm, slope
from lipcert.metric import FiniteMetricSpace, build_example52, build_line
from lipcert.monotone import (CmCertificate, CmViolation, _bellman_ford,
                              _has_cycle, beta, brute_force_cm_oracle,
                              check_augmented, check_gamma, check_gamma_cm,
                              cycle_sum, inf_extension, prune_to_cm,
                              replay_witness)
from lipcert.reports import cm_result_payload, verify_payload

from conftest import (closure, random_ball_function, random_pairs,
                      random_positive_measure, random_space)

LINE3 = build_line(3)
HALF = Fraction(1, 2)


def test_empty_set_is_vacuously_cm():
    result = check_gamma_cm(LINE3, (), Fraction(1))
    assert isinstance(result, CmCertificate)
    assert result.potentials == ()


def test_opposite_pair_violates():
    pairs = (("0", "2"), ("2", "0"))
    result = check_gamma_cm(LINE3, pairs, HALF)
    assert isinstance(result, CmViolation)
    assert result.deficit == -LINE3.d("0", "2")  # two terms of -d/2 each
    result.replay(LINE3)


def test_line_descent_is_cm_at_one():
    pairs = (("2", "1"), ("1", "0"))
    result = check_gamma_cm(LINE3, pairs, Fraction(1))
    assert isinstance(result, CmCertificate)
    result.replay(LINE3)
    # The definition's cycle sum for the 2-cycle is 1 + (-1) = 0.
    assert beta(LINE3, ("2", "1"), ("1", "0"), Fraction(1)) == 1
    assert beta(LINE3, ("1", "0"), ("2", "1"), Fraction(1)) == -1
    assert cycle_sum(LINE3, pairs, (0, 1), Fraction(1)) == 0


def test_gamma_range_is_enforced():
    for gamma in (0, -1, Fraction(3, 2)):
        with pytest.raises(InvalidInput):
            check_gamma_cm(LINE3, (), gamma)


def test_check_gamma_keeps_a_fraction_and_converts_the_rest():
    half = Fraction(1, 2)
    assert check_gamma(half) is half
    for given, want in ((1, Fraction(1)), ("3/4", Fraction(3, 4)),
                        (Fraction(1), Fraction(1))):
        got = check_gamma(given)
        assert type(got) is Fraction and got == want
    for gamma in (0, -1, Fraction(3, 2), "0", "5/4", Fraction(0)):
        with pytest.raises(InvalidInput, match=r"gamma must lie in \(0, 1\]"):
            check_gamma(gamma)


def test_oracle_examples():
    assert brute_force_cm_oracle(LINE3, (("0", "2"),), Fraction(1))
    assert not brute_force_cm_oracle(LINE3, (("0", "2"), ("2", "0")), HALF)
    with pytest.raises(InvalidInput):
        brute_force_cm_oracle(build_example52(1), tuple(
            build_example52(1).pairs())[:11], HALF)


def test_gamma_monotonicity(rng):
    """gamma-CM implies gamma'-CM for every gamma' <= gamma."""
    gammas = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
    for _ in range(60):
        space = random_space(rng, 6)
        pairs = random_pairs(rng, space, 5)
        verdicts = [isinstance(check_gamma_cm(space, pairs, g), CmCertificate)
                    for g in gammas]
        # Once it fails at some gamma it must fail at every larger gamma.
        assert verdicts == sorted(verdicts, reverse=True)


def test_subset_closure(rng):
    for _ in range(40):
        space = random_space(rng, 6)
        pairs = random_pairs(rng, space, 5)
        if not isinstance(check_gamma_cm(space, pairs, HALF), CmCertificate):
            continue
        for k in range(len(pairs)):
            sub = pairs[:k] + pairs[k + 1:]
            assert isinstance(check_gamma_cm(space, sub, HALF), CmCertificate)


# ---------------------------------------------------------------------------
# The landing-point quotient against the complete pair graph

def reference_check_gamma_cm(space, pairs, gamma):
    """`check_gamma_cm` as it ran before the landing-point quotient:
    Bellman-Ford on the complete graph of the m pairs, m^2 weights and up
    to m rounds, then the predecessor walk (without the self-replay)."""
    pairs = tuple(pairs)
    m = len(pairs)
    if m == 0:
        return CmCertificate(pairs, gamma, ())
    g, h = gamma.numerator, gamma.denominator
    hl = h * space.scale
    D = space.int_dist
    ends = [(space.index(x), space.index(y)) for x, y in pairs]
    ys = [y for _, y in ends]
    w = []
    for x, y in ends:
        Dx, Dy = D[x], D[y]
        t = g * Dx[y]
        w.append([min(h * Dx[yj] - t, h * Dy[yj]) for yj in ys])
    cols = [list(col) for col in zip(*w)]
    for j in range(m):
        cols[j][j] = 0
    dist = [0] * m
    pred: list[Optional[int]] = [None] * m
    bad = None
    for _ in range(m):
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
            return CmCertificate(pairs, gamma,
                                 tuple(Fraction(x, hl) for x in dist))
    node = bad
    for _ in range(m):
        node = pred[node]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    k = len(cycle)
    total = sum(w[cycle[t]][cycle[(t + 1) % k]] for t in range(k))
    return CmViolation(pairs, gamma, tuple(cycle), Fraction(total, hl))


def _matrix_space(rng, kind):
    """A metric space ("metric"), an asymmetric matrix that also breaks
    the triangle inequality ("quasi"), or such a matrix with a positive
    diagonal ("diagonal"), where some W_ii may be positive; at least
    three points, and off-diagonal distances stay positive."""
    if kind == "metric":
        while True:
            space = random_space(rng, 7, denom=rng.randint(1, 5))
            if len(space) >= 3:
                return space
    n = rng.randint(3, 7)
    dist = [[Fraction(rng.randint(1, 18), rng.randint(1, 6)) if i != j
             else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        for i in range(n):
            if rng.random() < 0.5:
                dist[i][i] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    return FiniteMetricSpace([f"p{i}" for i in range(n)], "p0", dist)


def _shaped_pairs(rng, space, shape):
    """Pairs whose landing points repeat ("repeated": k < m), all differ
    ("distinct": k = m), or are all one point ("single": k = 1)."""
    pts = space.points
    if shape == "single":
        y = rng.choice(pts)
        xs = [p for p in pts if p != y]
        return tuple((x, y) for x in rng.sample(xs, rng.randint(1, len(xs))))
    if shape == "distinct":
        ys = rng.sample(pts, rng.randint(1, len(pts)))
        return tuple((rng.choice([p for p in pts if p != y]), y) for y in ys)
    # Two pairs into one point, then more pairs anywhere; n >= 3 here.
    y = rng.choice(pts)
    pairs = [(x, y) for x in rng.sample([p for p in pts if p != y], 2)]
    pool = list(space.pairs())
    return tuple(dict.fromkeys(
        pairs + rng.sample(pool, rng.randint(0, min(7, len(pool))))))


@st.composite
def cm_instances(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    space = _matrix_space(
        rng, draw(st.sampled_from(["metric", "quasi", "diagonal"])))
    pairs = _shaped_pairs(
        rng, space, draw(st.sampled_from(["repeated", "distinct", "single"])))
    return space, pairs, Fraction(draw(st.integers(1, 6)), 6)


@settings(max_examples=400, deadline=None)
@given(cm_instances())
def test_quotient_kernel_matches_the_pair_graph(case):
    space, pairs, gamma = case
    assert check_gamma_cm(space, pairs, gamma) == \
        reference_check_gamma_cm(space, pairs, gamma)


def reference_bellman_ford(cols, stop_at_cycle):
    """`_bellman_ford` as it ran before the shift rule: every round up to
    len(cols), then the predecessor walk."""
    n = len(cols)
    # Virtual source with zero-weight edges to every node: dist starts at 0.
    dist = [0] * n
    pred: list[Optional[int]] = [None] * n
    bad = None
    for _ in range(n):
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


class CountedCols(list):
    """A weight matrix that counts the rounds run over it: each round
    iterates over the columns once."""
    rounds = 0

    def __iter__(self):
        self.rounds += 1
        return super().__iter__()


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9),
       st.sampled_from([-1, -3, -10, -30]), st.booleans(), st.booleans())
def test_shift_rule_keeps_the_distances_and_the_cycle(seed, n, low, zero_diag,
                                                      stop_at_cycle):
    rng = random.Random(seed)
    cols = [[rng.randint(low, 20) for _ in range(n)] for _ in range(n)]
    if zero_diag:
        for j in range(n):
            cols[j][j] = 0
    assert _bellman_ford([col[:] for col in cols], stop_at_cycle) == \
        reference_bellman_ford([col[:] for col in cols], stop_at_cycle)


def _violated_set(rng, n, m):
    """A cm-decide-shaped violated set: m - 2 random pairs of a random
    n-point metric and one opposite pair, shuffled."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    space = FiniteMetricSpace([f"p{i}" for i in range(n)], "p0", closure(w))
    a, b = rng.sample(space.points, 2)
    rest = [p for p in space.pairs() if p not in ((a, b), (b, a))]
    pairs = rng.sample(rest, m - 2) + [(a, b), (b, a)]
    rng.shuffle(pairs)
    return space, tuple(pairs)


@pytest.mark.parametrize("seed, n, m", [(1, 22, 45), (2, 22, 45), (3, 24, 120)])
def test_violated_benchmark_sets_match_the_pair_graph(seed, n, m):
    space, pairs = _violated_set(random.Random(seed), n, m)
    result = check_gamma_cm(space, pairs, HALF)
    assert isinstance(result, CmViolation)
    assert result == reference_check_gamma_cm(space, pairs, HALF)


def test_a_walk_that_never_shifts_runs_every_round():
    """Two disjoint negative 2-cycles lower their nodes by different
    amounts each round, so no round repeats the last one shifted.  One
    negative 2-cycle that leads to every node settles into a shift after
    two rounds."""
    big = 50
    cols = [[0, -1, big, big], [-1, 0, big, big],
            [big, big, 0, -2], [big, big, -3, 0]]
    counted = CountedCols(col[:] for col in cols)
    assert _bellman_ford(counted, stop_at_cycle=False) == \
        reference_bellman_ford(cols, stop_at_cycle=False)
    assert counted.rounds == len(cols)
    cols = [[0, -1, big, big], [-1, 0, 0, 0],
            [big, big, 0, big], [big, big, big, 0]]
    counted = CountedCols(col[:] for col in cols)
    assert _bellman_ford(counted, stop_at_cycle=False) == \
        reference_bellman_ford(cols, stop_at_cycle=False)
    assert counted.rounds == 2


def all_pairs_replay_accepts(space, pairs, gamma, potentials):
    """a_i <= a_j + beta_ij for every i, j, in `Fraction` (O(m^2))."""
    return all(ai <= aj + beta(space, pi, pj, gamma)
               for pi, ai in zip(pairs, potentials)
               for pj, aj in zip(pairs, potentials))


@settings(max_examples=400, deadline=None)
@given(cm_instances(), st.integers(0, 2 ** 32 - 1))
def test_regrouped_replay_matches_the_all_pairs_check(case, seed):
    """On the potentials of the kernel (zeros for a violated set) and on
    potentials nudged by +-1/K at one pair, K = lcm(h L, denominators),
    the replay accepts exactly when every pair inequality holds."""
    space, pairs, gamma = case
    rng = random.Random(seed)
    result = check_gamma_cm(space, pairs, gamma)
    start = (result.potentials if isinstance(result, CmCertificate)
             else (Fraction(0),) * len(pairs))
    K = math.lcm(gamma.denominator * space.scale,
                 *(a.denominator for a in start))
    i = rng.randrange(len(pairs))
    for nudge in (0, Fraction(1, K), -Fraction(1, K)):
        potentials = start[:i] + (start[i] + nudge,) + start[i + 1:]
        cert = CmCertificate(pairs, gamma, potentials)
        try:
            cert.replay(space)
            accepted = True
        except SoundnessError:
            accepted = False
        assert accepted == all_pairs_replay_accepts(space, pairs, gamma,
                                                    potentials)


# ---------------------------------------------------------------------------
# Witness synthesis

def test_witness_for_empty_set_is_zero():
    cert = check_gamma_cm(LINE3, (), Fraction(1))
    f = inf_extension(LINE3, cert)
    replay_witness((), Fraction(1), f)
    assert all(f(p) == 0 for p in LINE3.points)


def test_witness_on_line_descent():
    pairs = (("2", "1"), ("1", "0"))
    cert = check_gamma_cm(LINE3, pairs, Fraction(1))
    f = inf_extension(LINE3, cert)
    replay_witness(pairs, Fraction(1), f)
    assert lip_norm(f) <= 1
    assert slope(f, ("2", "1")) == 1 and slope(f, ("1", "0")) == 1


def test_tampered_certificate_fails_replay():
    pairs = (("2", "1"), ("1", "0"))
    cert = check_gamma_cm(LINE3, pairs, Fraction(1))
    bad = CmCertificate(pairs, Fraction(1),
                        (cert.potentials[0] + 5, cert.potentials[1]))
    with pytest.raises(SoundnessError):
        bad.replay(LINE3)


@settings(max_examples=300, deadline=None)
@given(cm_instances())
def test_certificate_survives_the_report_loader(case):
    """A certificate of `check_gamma_cm` (ints over h L) and the one the
    report loader rebuilds from its JSON rationals have equal potentials
    and byte-identical payloads, and both replay."""
    space, pairs, gamma = case
    assume(all(space.int_dist[i][i] == 0 for i in range(len(space))))
    cert = check_gamma_cm(space, pairs, gamma)
    assume(isinstance(cert, CmCertificate))
    assert cert.scale == gamma.denominator * space.scale
    payload = cm_result_payload(space, cert)
    with mock.patch.object(CmCertificate, "replay", autospec=True,
                           side_effect=CmCertificate.replay) as replay:
        verify_payload(payload)
    loaded = replay.call_args.args[0]
    assert loaded is not cert and loaded == cert
    assert loaded.potentials == cert.potentials
    assert json.dumps(cm_result_payload(space, loaded)) == json.dumps(payload)
    loaded.replay(space)
    cert.replay(space)


def test_wrong_potential_count_is_a_soundness_error():
    pairs = (("2", "1"), ("1", "0"))
    cert = check_gamma_cm(LINE3, pairs, Fraction(1))
    short = CmCertificate(pairs, Fraction(1), cert.potentials[:1])
    with pytest.raises(SoundnessError, match="potential count"):
        short.replay(LINE3)
    payload = cm_result_payload(LINE3, cert)
    payload["potentials"].append("0")
    with pytest.raises(InvalidInput, match="report rejected: potential count"):
        verify_payload(payload)


def test_tampered_violation_fails_replay():
    result = check_gamma_cm(LINE3, (("0", "2"), ("2", "0")), HALF)
    bad = CmViolation(result.pairs, HALF, result.cycle, result.deficit - 1)
    with pytest.raises(SoundnessError):
        bad.replay(LINE3)


SHIFTS = [Fraction(0)] * 4 + [Fraction(k, 4) for k in (-8, -3, -1, 1, 2, 5)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]))
def test_witness_from_tampered_potentials_is_sound_or_refused(seed, gamma):
    """The certificate is not replayed again; `replay_witness` must
    refuse the inf-extension of bad potentials or pass a function that
    really is a witness."""
    rng = random.Random(seed)
    space = random_space(rng, 5)
    pairs = random_pairs(rng, space, 4)
    result = check_gamma_cm(space, pairs, gamma)
    start = (result.potentials if isinstance(result, CmCertificate)
             else (Fraction(0),) * len(pairs))
    cert = CmCertificate(pairs, gamma,
                         tuple(a + rng.choice(SHIFTS) for a in start))
    f = inf_extension(space, cert)
    try:
        replay_witness(pairs, gamma, f)
    except SoundnessError:
        return
    assert lip_norm(f) <= 1
    assert all(slope(f, pair) >= gamma for pair in pairs)


@st.composite
def witness_candidates(draw):
    """A random space with rational distances; f a ball function (often of
    norm exactly one) stretched by 9/10, 1 or 11/10; gamma one of f's own
    slopes or k/8; pairs mostly drawn from those where f is steep."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    space = random_space(rng, 6)
    stretch = draw(st.sampled_from([Fraction(9, 10), Fraction(1),
                                    Fraction(11, 10)]))
    f = LipschitzFunction(space, {
        p: stretch * v
        for p, v in random_ball_function(rng, space).values.items()})
    pool = list(space.pairs())
    slopes = sorted({slope(f, p) for p in pool if 0 < slope(f, p) <= 1})
    if slopes and draw(st.booleans()):
        gamma = draw(st.sampled_from(slopes))
    else:
        gamma = Fraction(draw(st.integers(1, 8)), 8)
    steep = [p for p in pool if slope(f, p) >= gamma]
    pairs = tuple(rng.sample(steep, draw(st.integers(0, min(4, len(steep))))))
    if draw(st.booleans()):
        pairs += (draw(st.sampled_from(pool)),)
    return space, pairs, gamma, f, draw(st.sampled_from(space.points))


@settings(max_examples=300, deadline=None)
@given(witness_candidates())
def test_replay_witness_is_the_ball_and_slope_check(case):
    """Accepts exactly when lip_norm(f) <= 1 and every slope is >= gamma;
    a degenerate or unknown pair is invalid input whatever f is."""
    space, pairs, gamma, f, p = case
    try:
        replay_witness(pairs, gamma, f)
        accepted = True
    except SoundnessError:
        accepted = False
    assert accepted == (lip_norm(f) <= 1
                        and all(slope(f, pair) >= gamma for pair in pairs))
    for bad in ((p, p), (p, "nowhere")):
        with pytest.raises(InvalidInput):
            replay_witness(pairs + (bad,), gamma, f)


@settings(max_examples=300, deadline=None)
@given(witness_candidates(), st.integers(2, 6))
def test_replay_witness_matches_fraction_slopes_on_any_scale(case, c):
    """The integer replay accepts f, and f held over K * c, exactly when
    the `Fraction` slopes (f(x) - f(y)) / d(x, y) are all >= gamma and
    lip_norm(f) <= 1."""
    space, pairs, gamma, f, _ = case
    vals = f.values
    want = lip_norm(f) <= 1 and all(
        (vals[x] - vals[y]) / space.d(x, y) >= gamma for x, y in pairs)
    scaled = LipschitzFunction._scaled(space, f.K * c, [x * c for x in f.F])
    for h in (f, scaled):
        try:
            replay_witness(pairs, gamma, h)
            accepted = True
        except SoundnessError:
            accepted = False
        assert accepted == want


# ---------------------------------------------------------------------------
# Augmented sets

def test_augmented_empty_set_always_certifies():
    result = check_augmented(LINE3, (), HALF, "0", "2")
    assert isinstance(result, CmCertificate)


def test_augmented_with_reverse_pair_violates():
    result = check_augmented(LINE3, (("2", "0"),), HALF, "0", "2")
    assert isinstance(result, CmViolation)


def test_augmented_requires_distinct_endpoints():
    with pytest.raises(InvalidInput):
        check_augmented(LINE3, (), HALF, "1", "1")


def test_augmented_matches_oracle_on_example52():
    space = build_example52(1)
    pairs = (("x1", "y1"),)
    result = check_augmented(space, pairs, HALF, "u2_1", "v2_1")
    aug = pairs + (("u2_1", "v2_1"),)
    assert isinstance(result, CmCertificate) == \
        brute_force_cm_oracle(space, aug, HALF)


def test_augmented_matches_oracle_randomly(rng):
    for _ in range(50):
        space = random_space(rng, 6)
        pairs = random_pairs(rng, space, 4)
        u, v = rng.choice(list(space.pairs()))
        result = check_augmented(space, pairs, HALF, u, v)
        expected = brute_force_cm_oracle(space, pairs + ((u, v),), HALF)
        assert isinstance(result, CmCertificate) == expected


# ---------------------------------------------------------------------------
# Integer pruning

def test_prune_is_identity_at_gamma_one():
    pairs = (("2", "1"), ("1", "0"))
    mu = PairMeasure(LINE3, {("2", "1"): 1, ("1", "0"): 1})
    assert prune_to_cm(LINE3, pairs, mu, Fraction(1), 2) == pairs


def test_prune_requires_integer_metric_and_range():
    pairs = (("2", "1"),)
    mu = PairMeasure(LINE3, {("2", "1"): 1})
    with pytest.raises(InvalidInput):
        prune_to_cm(LINE3, pairs, mu, HALF, 2)  # n(1-gamma) = 1, not < 1
    with pytest.raises(InvalidInput):
        prune_to_cm(LINE3, pairs, mu, Fraction(1), 1)  # distances exceed n


def test_prune_keeps_mass_bound(rng):
    done = 0
    while done < 40:
        n = rng.randint(2, 4)
        space = random_space(rng, 6, integer_max=n)
        pairs = random_pairs(rng, space, 5)
        if not pairs:
            continue
        gamma = 1 - Fraction(1, n * rng.randint(2, 5))
        if not isinstance(check_gamma_cm(space, pairs, gamma), CmCertificate):
            continue
        mu = random_positive_measure(rng, space)
        kept = prune_to_cm(space, pairs, mu, gamma, n)
        assert set(kept) <= set(pairs)
        assert isinstance(check_gamma_cm(space, kept, Fraction(1)),
                          CmCertificate)
        bound = mu.mass_of(pairs) - 2 * n * (1 - gamma) * mu.total_mass()
        assert mu.mass_of(kept) >= bound
        done += 1
