import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipcert.errors import InvalidInput, SoundnessError
from lipcert.functionals import PairMeasure
from lipcert.lipschitz import lip_norm, slope
from lipcert.metric import build_example52, build_line
from lipcert.monotone import (CmCertificate, CmViolation, beta,
                              brute_force_cm_oracle, check_augmented,
                              check_gamma_cm, cycle_sum, prune_to_cm,
                              synthesize_witness)

from conftest import random_pairs, random_positive_measure, random_space

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
# Witness synthesis

def test_witness_for_empty_set_is_zero():
    cert = check_gamma_cm(LINE3, (), Fraction(1))
    f = synthesize_witness(LINE3, (), Fraction(1), cert)
    assert all(f(p) == 0 for p in LINE3.points)


def test_witness_on_line_descent():
    pairs = (("2", "1"), ("1", "0"))
    cert = check_gamma_cm(LINE3, pairs, Fraction(1))
    f = synthesize_witness(LINE3, pairs, Fraction(1), cert)
    assert lip_norm(f) <= 1
    assert slope(f, ("2", "1")) == 1 and slope(f, ("1", "0")) == 1


def test_witness_rejects_mismatched_certificate():
    cert = check_gamma_cm(LINE3, (("2", "1"),), Fraction(1))
    with pytest.raises(InvalidInput):
        synthesize_witness(LINE3, (("1", "0"),), Fraction(1), cert)


def test_tampered_certificate_fails_replay():
    pairs = (("2", "1"), ("1", "0"))
    cert = check_gamma_cm(LINE3, pairs, Fraction(1))
    bad = CmCertificate(pairs, Fraction(1),
                        (cert.potentials[0] + 5, cert.potentials[1]))
    with pytest.raises(SoundnessError):
        bad.replay(LINE3)


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
    """The certificate is not replayed again; the witness's own checks
    must refuse bad potentials or return a function that really is one."""
    rng = random.Random(seed)
    space = random_space(rng, 5)
    pairs = random_pairs(rng, space, 4)
    result = check_gamma_cm(space, pairs, gamma)
    start = (result.potentials if isinstance(result, CmCertificate)
             else (Fraction(0),) * len(pairs))
    cert = CmCertificate(pairs, gamma,
                         tuple(a + rng.choice(SHIFTS) for a in start))
    try:
        f = synthesize_witness(space, pairs, gamma, cert)
    except SoundnessError:
        return
    assert lip_norm(f) <= 1
    assert all(slope(f, pair) >= gamma for pair in pairs)


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
