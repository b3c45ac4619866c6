import random
from fractions import Fraction

import pytest

from lipcert.errors import InvalidInput
from lipcert.functionals import (PairMeasure, _apsp_with_slice, _ball_lp,
                                 _measure_objective, _point_to_function,
                                 apply_measure, dual_norm, is_optimal,
                                 measure_from_json, measure_to_json,
                                 positivize, slice_diameter)
from lipcert.lipschitz import LipschitzFunction, lip_norm, slope
from lipcert.lpcore import solve_lp
from lipcert.metric import FiniteMetricSpace, build_line
from lipcert.monotone import check_gamma_cm, CmCertificate

from conftest import (lp_norm, random_ball_function,
                      random_positive_measure, random_signed_measure,
                      random_space, star_optimal_measure)

LINE3 = build_line(3)
IDENT = LipschitzFunction(LINE3, {"0": 0, "1": 1, "2": 2})
HALF = Fraction(1, 2)


def test_apply_examples():
    mu = PairMeasure(LINE3, {("2", "0"): 1})
    assert apply_measure(mu, IDENT) == slope(IDENT, ("2", "0")) == 1
    sym = PairMeasure(LINE3, {("2", "0"): 1, ("0", "2"): 1})
    assert apply_measure(sym, IDENT) == 0


def test_apply_is_bilinear(rng):
    for _ in range(20):
        space = random_space(rng, 6)
        mu = random_signed_measure(rng, space)
        nu = random_signed_measure(rng, space)
        f = random_ball_function(rng, space)
        g = random_ball_function(rng, space)
        joint = PairMeasure(space, {
            p: mu.atoms.get(p, Fraction(0)) + nu.atoms.get(p, Fraction(0))
            for p in set(mu.atoms) | set(nu.atoms)
            if mu.atoms.get(p, Fraction(0)) + nu.atoms.get(p, Fraction(0)) != 0})
        assert apply_measure(joint, f) == \
            apply_measure(mu, f) + apply_measure(nu, f)
        h = LipschitzFunction(space, {p: f(p) + g(p) for p in space.points})
        assert apply_measure(mu, h) == \
            apply_measure(mu, f) + apply_measure(mu, g)


def test_measure_validation():
    with pytest.raises(InvalidInput):
        PairMeasure(LINE3, {("0", "0"): 1})
    with pytest.raises(InvalidInput):
        PairMeasure(LINE3, {("0", "1"): 0})


# ---------------------------------------------------------------------------
# Positivization

def test_positivize_reflects_negative_atom():
    nu = PairMeasure(LINE3, {("0", "1"): -2})
    mu = positivize(nu)
    assert mu.atoms == {("1", "0"): 2}


def test_positivize_keeps_positive_measure():
    mu = PairMeasure(LINE3, {("1", "0"): Fraction(1, 3)})
    assert positivize(mu).atoms == mu.atoms


def test_positivize_merges_reflections():
    nu = PairMeasure(LINE3, {("0", "1"): 1, ("1", "0"): -1})
    assert positivize(nu).atoms == {("0", "1"): 2}


def test_positivize_preserves_functional_and_variation(rng):
    for _ in range(30):
        space = random_space(rng, 6)
        nu = random_signed_measure(rng, space)
        mu = positivize(nu)
        assert mu.is_positive()
        assert mu.total_variation() == nu.total_variation()
        for _ in range(5):
            f = random_ball_function(rng, space)
            assert apply_measure(mu, f) == apply_measure(nu, f)


# ---------------------------------------------------------------------------
# Dual norm

def test_unit_molecule_has_norm_one():
    for pair in LINE3.pairs():
        res = dual_norm(PairMeasure(LINE3, {pair: 1}))
        assert res.norm == 1
        assert apply_measure(PairMeasure(LINE3, {pair: 1}), res.maximizer) == 1


def test_cancelling_atoms_have_norm_zero():
    mu = PairMeasure(LINE3, {("0", "2"): HALF, ("2", "0"): HALF})
    res = dual_norm(mu)
    assert res.norm == 0 and res.method == "lp"
    assert mu.total_variation() == 1


def test_line_descent_measure():
    mu = PairMeasure(LINE3, {("2", "1"): HALF, ("1", "0"): HALF})
    res = dual_norm(mu)
    assert res.norm == 1
    assert apply_measure(mu, res.maximizer) == 1
    assert lip_norm(res.maximizer) <= 1


def test_fast_path_agrees_with_lp(rng):
    for _ in range(15):
        space = random_space(rng, 5)
        mu = random_positive_measure(rng, space, 4)
        assert dual_norm(mu).norm == lp_norm(mu)


# ---------------------------------------------------------------------------
# Optimality

def test_unit_atom_is_optimal():
    verdict = is_optimal(PairMeasure(LINE3, {("2", "0"): 1}))
    assert verdict.optimal and verdict.certificate is not None


def test_opposite_atoms_are_not_optimal():
    verdict = is_optimal(PairMeasure(LINE3, {("0", "2"): HALF,
                                             ("2", "0"): HALF}))
    assert not verdict.optimal
    assert verdict.gap == 1
    assert verdict.violation is not None


def test_is_optimal_rejects_signed_measures():
    with pytest.raises(InvalidInput):
        is_optimal(PairMeasure(LINE3, {("0", "1"): -1}))


def test_star_measures_are_optimal(rng):
    for _ in range(10):
        space = random_space(rng, 6)
        mu = star_optimal_measure(rng, space)
        assert mu.total_mass() == 1
        assert is_optimal(mu).optimal
        assert dual_norm(mu).norm == mu.total_variation() == 1


# ---------------------------------------------------------------------------
# Slice diameter

def test_two_point_slice_diameter():
    space = FiniteMetricSpace(["0", "x"], "0", [[0, 3], [3, 0]])
    mu = PairMeasure(space, {("x", "0"): 1})
    res = slice_diameter(mu, Fraction(1, 4))
    assert res.diameter == Fraction(1, 4)


def test_full_ball_slice_on_line():
    mu = PairMeasure(LINE3, {("1", "0"): 1})
    res = slice_diameter(mu, Fraction(1))
    assert res.diameter == 2


def test_slice_requires_normalization_and_range():
    mu = PairMeasure(LINE3, {("1", "0"): HALF})
    with pytest.raises(InvalidInput):
        slice_diameter(mu, Fraction(1, 4))
    unit = PairMeasure(LINE3, {("1", "0"): 1})
    with pytest.raises(InvalidInput):
        slice_diameter(unit, Fraction(0))
    with pytest.raises(InvalidInput):
        slice_diameter(unit, Fraction(5, 2))


def test_slice_fast_path_agrees_with_lp(rng):
    for _ in range(6):
        space = random_space(rng, 5)
        pair = rng.choice(list(space.pairs()))
        mu = PairMeasure(space, {pair: 1})
        alpha = rng.choice([Fraction(1, 4), HALF, Fraction(3, 2)])
        fast = slice_diameter(mu, alpha)
        assert fast.method == "shortest-path"
        assert fast.diameter == per_pair_slice_lp(mu, alpha)[0]


def floyd_warshall_with_slice(space, atom, alpha):
    """Reference for the closed form: O(n^3) relaxation over every point."""
    pts = space.points
    n = len(pts)
    dist = [[space.d(q, p) for p in pts] for q in pts]
    a, b = atom
    ia, ib = space.index(a), space.index(b)
    dist[ia][ib] = min(dist[ia][ib], -(1 - alpha) * space.d(a, b))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


@pytest.mark.parametrize("alpha", [Fraction(1, 4), HALF, Fraction(1),
                                   Fraction(3, 2), Fraction(2)])
def test_closed_form_apsp_matches_floyd_warshall(rng, alpha):
    for _ in range(15):
        space = random_space(rng, 7, denom=5)
        atom = rng.choice(list(space.pairs()))
        scale, dist = _apsp_with_slice(space, atom, alpha)
        got = [[Fraction(x, scale) for x in row] for row in dist]
        assert got == floyd_warshall_with_slice(space, atom, alpha)


def test_slice_diameter_general_measure():
    mu = PairMeasure(LINE3, {("2", "1"): HALF, ("1", "0"): HALF})
    res = slice_diameter(mu, HALF)
    assert res.method == "lp"
    assert 0 < res.diameter <= 2
    assert apply_measure(mu, res.f) >= HALF
    assert apply_measure(mu, res.g) >= HALF


def per_pair_slice_lp(mu, alpha):
    """Reference for the LP route: one fresh ball-plus-slice LP per ordered
    pair, then the same best-pair scan."""
    space = mu.space
    best, cache = None, {}
    for u, v in space.pairs():
        lp, free = _ball_lp(space)
        lp.add_constraint([-c for c in _measure_objective(mu, free)],
                          -(1 - alpha))
        obj = [Fraction(0)] * len(free)
        if u != space.base:
            obj[free.index(u)] += 1
        if v != space.base:
            obj[free.index(v)] -= 1
        lp.set_objective(obj)
        res = solve_lp(lp)
        assert res.status == "optimal"
        cache[(u, v)] = (res.value / space.d(u, v),
                         _point_to_function(space, free, res.point))
    for i, u in enumerate(space.points):
        for v in space.points[i + 1:]:
            cand = cache[(u, v)][0] + cache[(v, u)][0]
            if best is None or cand > best[0]:
                best = (cand, u, v)
    diam, u, v = best
    return diam, (u, v), cache[(u, v)][1], cache[(v, u)][1]


@pytest.mark.parametrize("alpha", [Fraction(1, 4), HALF, Fraction(1),
                                   Fraction(3, 2), Fraction(2)])
def test_slice_lp_route_matches_one_lp_per_pair(alpha):
    rng = random.Random(f"slice-lp-{alpha}")
    lp_draws = 0
    for _ in range(6):
        space = random_space(rng, 6)
        while len(space) < 4:
            space = random_space(rng, 6)
        nu = random_signed_measure(rng, space, max_atoms=4)
        norm = dual_norm(nu).norm
        if norm == 0:
            continue
        mu = nu.scaled(1 / norm)
        got = slice_diameter(mu, alpha)
        diam, pair, f, g = per_pair_slice_lp(mu, alpha)
        assert got.diameter == diam
        if got.method == "lp":
            lp_draws += 1
            assert got.pair == pair
            assert got.f.values == f.values and got.g.values == g.values
    assert lp_draws > 0


def test_measure_json_roundtrip():
    mu = PairMeasure(LINE3, {("2", "0"): Fraction(-3, 7), ("0", "1"): 2})
    back = measure_from_json(LINE3, measure_to_json(mu))
    assert back.atoms == mu.atoms


def test_supports_of_star_measures_are_cm(rng):
    for _ in range(10):
        space = random_space(rng, 6)
        mu = star_optimal_measure(rng, space)
        assert isinstance(check_gamma_cm(space, mu.support(), Fraction(1)),
                          CmCertificate)
