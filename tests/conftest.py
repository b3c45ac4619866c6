"""Shared generators for randomized tests.

Random metric spaces are built by shortest-path closure of a random
positive symmetric weight matrix, so the triangle inequality holds by
construction and every distance stays an exact rational.
"""
import random
from fractions import Fraction

import pytest

from lipcert.functionals import PairMeasure, _ball_lp, _measure_objective
from lipcert.lipschitz import LipschitzFunction, lip_norm
from lipcert.lpcore import solve_lp
from lipcert.metric import FiniteMetricSpace


def closure(weights):
    n = len(weights)
    d = [row[:] for row in weights]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def random_space(rng: random.Random, max_points=8, denom=4,
                 integer_max=None) -> FiniteMetricSpace:
    """Random space; rational distances with denominator <= `denom`, or
    integer distances in {1, ..., integer_max}."""
    n = rng.randint(2, max_points)
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if integer_max is not None:
                x = Fraction(rng.randint(1, integer_max))
            else:
                x = Fraction(rng.randint(1, 2 * denom), rng.randint(1, denom))
            w[i][j] = w[j][i] = x
    return FiniteMetricSpace([f"p{i}" for i in range(n)], "p0", closure(w))


def random_pairs(rng: random.Random, space, max_pairs=6):
    pool = list(space.pairs())
    k = rng.randint(0, min(max_pairs, len(pool)))
    return tuple(rng.sample(pool, k))


def random_positive_measure(rng: random.Random, space, max_atoms=5):
    pool = list(space.pairs())
    k = rng.randint(1, min(max_atoms, len(pool)))
    return PairMeasure(space, {
        p: Fraction(rng.randint(1, 8), rng.randint(1, 4))
        for p in rng.sample(pool, k)})


def random_signed_measure(rng: random.Random, space, max_atoms=5):
    pool = list(space.pairs())
    k = rng.randint(1, min(max_atoms, len(pool)))
    return PairMeasure(space, {
        p: Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 4))
        for p in rng.sample(pool, k)})


def lp_norm(mu: PairMeasure) -> Fraction:
    """The dual norm of mu from the ball LP alone, solved by `lpcore`: the
    reference for the routes that `dual_norm` and `is_optimal` pick."""
    lp, free = _ball_lp(mu.space)
    lp.set_objective(_measure_objective(mu, free))
    res = solve_lp(lp)
    assert res.status == "optimal"
    return res.value


def random_ball_function(rng: random.Random, space) -> LipschitzFunction:
    vals = {p: Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            for p in space.points}
    vals[space.base] = Fraction(0)
    f = LipschitzFunction(space, vals)
    nrm = lip_norm(f)
    if nrm > 1:
        f = LipschitzFunction(space, {p: v / nrm for p, v in vals.items()})
    return f


def star_optimal_measure(rng: random.Random, space) -> PairMeasure:
    """Normalized positive measure on pairs (x_i, z): optimal because the
    cone f(p) = d(p, z) - d(base, z) has quotient one across every atom."""
    z = rng.choice(space.points)
    sources = [p for p in space.points if p != z]
    k = rng.randint(1, min(4, len(sources)))
    chosen = rng.sample(sources, k)
    weights = [Fraction(rng.randint(1, 5)) for _ in chosen]
    total = sum(weights)
    return PairMeasure(space, {(x, z): w / total
                               for x, w in zip(chosen, weights)})


@pytest.fixture
def rng():
    return random.Random(20260826)
