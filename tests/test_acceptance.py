"""Acceptance gate: one test per criterion, one printed line each.

Random instances are seeded, so every run exercises the same corpus.
All assertions are exact (Fraction equality / inequality); there is no
tolerance anywhere.
"""
import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from lipcert.cli import main
from lipcert.d2p import ld2p_certificate
from lipcert.functionals import (PairMeasure, _ball_lp, _measure_objective,
                                 _point_to_function, apply_measure, dual_norm,
                                 is_optimal, positivize, slice_diameter)
from lipcert.lipschitz import (LipschitzFunction, PartialFunction, floor_round,
                               lip_norm, mcshane_sup_extension, slope)
from lipcert.metric import build_example52
from lipcert.monotone import (CmCertificate, CmViolation,
                              brute_force_cm_oracle, check_gamma_cm,
                              inf_extension, prune_to_cm, replay_witness)
from lipcert.lpcore import LinearProgram, solve_lp

from conftest import (lp_norm, random_ball_function, random_pairs,
                      random_positive_measure, random_signed_measure,
                      random_space, star_optimal_measure)
from lp_oracle import oracle_solve

GAMMAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


@pytest.fixture
def announce(capsys, request):
    """Print the criterion verdict straight to the terminal."""
    state = {"label": None}

    def _set(label):
        state["label"] = label

    yield _set
    if state["label"] is not None:
        failed = getattr(request.node, "rep_call_failed", None)
        verdict = "FAIL" if failed else "PASS"
        with capsys.disabled():
            print(f"\n[acceptance] {state['label']}: {verdict}")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        item.rep_call_failed = rep.failed


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--format", "json"] + argv)
    return code, json.loads(buf.getvalue())


def _cm_corpus():
    """The shared instance corpus for criteria 3 and 4."""
    rng = random.Random(3141592)
    corpus = []
    for _ in range(1000):
        space = random_space(rng, 8, denom=4)
        pairs = random_pairs(rng, space, 6)
        gamma = rng.choice(GAMMAS)
        corpus.append((space, pairs, gamma))
    return corpus


_CM_RESULTS = None


def _cm_results():
    global _CM_RESULTS
    if _CM_RESULTS is None:
        _CM_RESULTS = [(space, pairs, gamma,
                        check_gamma_cm(space, pairs, gamma))
                       for space, pairs, gamma in _cm_corpus()]
    return _CM_RESULTS


def test_criterion_1_wstar_d2p_refutation(announce):
    announce("criterion 1: three-cycle example, w*-D2P refuted at "
             "eps = 1/14 for 1..3 levels")
    for levels in (1, 2, 3):
        start = time.monotonic()
        code, report = _run_cli(["example52", "--levels", str(levels),
                                 "--part", "w-d2p"])
        elapsed = time.monotonic() - start
        assert code == 2
        body = report["payload"]["w_d2p"]
        assert body["found"] is False
        space = build_example52(levels)
        # Every ordered pair of the space is refuted.
        refuted = {tuple(v["candidate"]) for v in body["violations"]}
        assert refuted == set(space.pairs())
        rows = {(Fraction(v["lhs"]), Fraction(v["rhs"]))
                for v in body["violations"]}
        assert (Fraction(65, 28), Fraction(2)) in rows    # (13/14)(5/2) > 2
        assert (Fraction(91, 28), Fraction(3)) in rows    # (13/14)(7/2) > 3
        if levels == 3:
            assert elapsed < 5.0


def test_criterion_2_ld2p_certificates_and_slices(announce):
    announce("criterion 2: three-cycle example, LD2P certified for all "
             "unit atoms at 3 levels with matching slice diameters")
    space = build_example52(3)
    core = ("x1", "x2", "x3", "y1", "y2", "y3")
    start = time.monotonic()
    for gamma in (Fraction(1, 2), Fraction(9, 10)):
        alpha = 2 * (1 - gamma ** 2)   # smallest alpha with gamma^2 >= 1-a/2
        for a in core:
            for b in core:
                if a == b:
                    continue
                mu = PairMeasure(space, {(a, b): 1})
                outcome = ld2p_certificate(mu, gamma)
                assert outcome.certificate is not None, (a, b, gamma)
                outcome.certificate.replay(mu)
                assert slice_diameter(mu, alpha).diameter >= 2 * gamma
    assert time.monotonic() - start < 60.0


def test_criterion_3_cm_oracle_equivalence(announce):
    announce("criterion 3: cyclic-monotonicity checker agrees with the "
             "brute-force oracle on 1000 random instances")
    for space, pairs, gamma, result in _cm_results():
        expected = brute_force_cm_oracle(space, pairs, gamma)
        assert isinstance(result, CmCertificate) == expected
        result.replay(space)
        if isinstance(result, CmViolation):
            assert result.deficit < 0


def test_criterion_4_witness_duality(announce):
    announce("criterion 4: every certified instance yields a unit-ball "
             "witness with quotient >= gamma")
    certified = 0
    for space, pairs, gamma, result in _cm_results():
        if not isinstance(result, CmCertificate):
            continue
        certified += 1
        f = inf_extension(space, result)
        replay_witness(pairs, gamma, f)
        assert lip_norm(f) <= 1
        assert f(space.base) == 0
        assert all(slope(f, p) >= gamma for p in pairs)
    assert certified > 0


def test_criterion_5_optimality_lp_equivalence(announce):
    announce("criterion 5: optimality verdict matches the exact LP norm "
             "on 500 random positive measures")
    rng = random.Random(27182818)
    for _ in range(500):
        space = random_space(rng, 8, integer_max=4)
        mu = random_positive_measure(rng, space, 5)
        verdict = is_optimal(mu)
        norm = lp_norm(mu)
        assert verdict.optimal == (norm == mu.total_variation())
        if not verdict.optimal:
            assert verdict.gap == mu.total_variation() - norm > 0


def test_criterion_6_positivization(announce):
    announce("criterion 6: positivization preserves the functional and "
             "the total variation on 200 random signed measures")
    rng = random.Random(16180339)
    for _ in range(200):
        space = random_space(rng, 7)
        nu = random_signed_measure(rng, space, 5)
        mu = positivize(nu)
        assert mu.is_positive()
        assert mu.total_variation() == nu.total_variation()
        for _ in range(20):
            f = random_ball_function(rng, space)
            assert apply_measure(mu, f) == apply_measure(nu, f)


def test_criterion_7_integer_pruning(announce):
    announce("criterion 7: pruning on integer metrics is cyclically "
             "monotonic and keeps the mass bound, 200 instances")
    rng = random.Random(14142135)
    done = 0
    while done < 200:
        n = rng.randint(2, 4)
        space = random_space(rng, 6, integer_max=n)
        pairs = random_pairs(rng, space, 6)
        if not pairs:
            continue
        gamma = 1 - Fraction(1, n * rng.randint(2, 6))
        if not isinstance(check_gamma_cm(space, pairs, gamma), CmCertificate):
            continue
        mu = random_positive_measure(rng, space, 5)
        kept = prune_to_cm(space, pairs, mu, gamma, n)
        assert set(kept) <= set(pairs)
        assert isinstance(check_gamma_cm(space, kept, Fraction(1)),
                          CmCertificate)
        assert mu.mass_of(kept) >= \
            mu.mass_of(pairs) - 2 * n * (1 - gamma) * mu.total_mass()
        done += 1


def test_criterion_8_slice_lemma(announce):
    announce("criterion 8: slice members concentrate mass on steep "
             "atoms, 100 generated optimal measures")
    rng = random.Random(17320508)
    for _ in range(100):
        space = random_space(rng, 6)
        mu = star_optimal_measure(rng, space)
        assert dual_norm(mu).norm == 1
        for alpha in (Fraction(1, 4), Fraction(1, 2)):
            # A random vertex of the ball cut with the alpha^2 slice.
            lp, free = _ball_lp(space)
            slice_row = [-c for c in _measure_objective(mu, free)]
            lp.add_constraint(slice_row, -(1 - alpha ** 2))
            lp.set_objective([Fraction(rng.randint(-3, 3))
                              for _ in range(len(free))])
            res = solve_lp(lp)
            assert res.status == "optimal"
            f = _point_to_function(space, free, res.point)
            assert apply_measure(mu, f) >= 1 - alpha ** 2
            steep = [p for p in mu.support() if slope(f, p) >= 1 - alpha]
            assert mu.mass_of(steep) >= 1 - alpha


def test_criterion_9_floor_rounding(announce):
    announce("criterion 9: floor rounding stays integer, 1-Lipschitz and "
             "steep on the pinned pairs, 200 instances")
    rng = random.Random(22360679)
    done = 0
    while done < 200:
        space = random_space(rng, 6, integer_max=4)
        if rng.random() < 1 / 4:
            g = random_ball_function(rng, space)
            pairs = ()
        else:
            x, y = rng.choice(list(space.pairs()))
            theta = Fraction(rng.randint(0, 3), 4)
            part = PartialFunction(space, {y: theta,
                                           x: theta + space.d(x, y)})
            g, _ = mcshane_sup_extension(part, space)
            pairs = ((x, y),)
            assert slope(g, (x, y)) == 1
        f = floor_round(g, pairs)
        assert f.is_integer_valued()
        assert lip_norm(f) <= 1
        assert all(slope(f, p) == 1 for p in pairs)
        done += 1


def test_criterion_10_lp_vs_vertex_enumeration(announce):
    announce("criterion 10: simplex agrees with vertex enumeration on "
             "500 random small linear programs")
    rng = random.Random(26457513)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 6), rng.randint(1, 3))
               for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        lp = LinearProgram(n)
        for row, bound in zip(rows, rhs):
            lp.add_constraint(row, bound)
        lp.set_objective(obj)
        res = solve_lp(lp)
        ref = oracle_solve(n, rows, rhs, obj)
        assert res.status == ref[0]
        if ref[0] == "optimal":
            assert res.value == ref[1]
            for row, bound in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, res.point)) <= bound
