from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipcert import lpcore
from lipcert.errors import InvalidInput
from lipcert.functionals import PairMeasure, _ball_lp, _measure_objective
from lipcert.lpcore import LinearProgram, solve_lp, solve_lps
from lipcert.metric import FiniteMetricSpace, validate_metric

from lp_oracle import oracle_solve


def _lp(num_vars, constraints, objective):
    lp = LinearProgram(num_vars)
    for row, bound in constraints:
        lp.add_constraint([Fraction(c) for c in row], bound)
    lp.set_objective([Fraction(c) for c in objective])
    return lp


def test_simple_optimum():
    res = solve_lp(_lp(1, [([1], 1), ([-1], 0)], [1]))
    assert res.status == "optimal"
    assert res.value == 1 and res.point == (1,)


def test_infeasible():
    res = solve_lp(_lp(1, [([-1], -2), ([1], 1)], [1]))
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp(_lp(1, [([-1], 0)], [1]))
    assert res.status == "unbounded"


def test_two_variable_vertex():
    # max x + y over the triangle x,y >= 0, x + y <= 3/2
    res = solve_lp(_lp(2, [([1, 1], Fraction(3, 2)), ([-1, 0], 0),
                           ([0, -1], 0)], [1, 1]))
    assert res.status == "optimal"
    assert res.value == Fraction(3, 2)


def test_free_variables_can_go_negative():
    res = solve_lp(_lp(1, [([1], -3)], [1]))
    assert res.status == "optimal"
    assert res.value == -3 and res.point == (-3,)


def test_optimal_point_satisfies_constraints_exactly(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        cons = [([Fraction(rng.randint(-3, 3)) for _ in range(n)],
                 Fraction(rng.randint(-4, 6), rng.randint(1, 3)))
                for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = solve_lp(_lp(n, cons, obj))
        if res.status != "optimal":
            continue
        for row, bound in cons:
            assert sum(c * x for c, x in zip(row, res.point)) <= bound
        assert sum(c * x for c, x in zip(obj, res.point)) == res.value


def test_matches_vertex_enumeration_oracle(rng):
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 6), rng.randint(1, 3))
               for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = solve_lp(_lp(n, list(zip(rows, rhs)), obj))
        ref = oracle_solve(n, rows, rhs, obj)
        assert res.status == ref[0]
        if ref[0] == "optimal":
            assert res.value == ref[1]


def test_shape_validation():
    lp = LinearProgram(2)
    with pytest.raises(InvalidInput):
        lp.add_constraint([1], 0)
    with pytest.raises(InvalidInput):
        lp.set_objective([1, 2, 3])
    lp2 = LinearProgram(1)
    lp2.add_constraint([1], 1)
    with pytest.raises(InvalidInput):
        solve_lp(lp2)  # objective not set
    with pytest.raises(InvalidInput):
        solve_lps(lp2, [[1], [1, 0]])
    assert solve_lps(lp2, []) == []


def test_rows_keep_ints_and_fractions_and_parse_the_rest():
    lp = LinearProgram(3)
    lp.add_constraint([1, F(1, 2), "1/2"], 1)
    assert lp.rows[0] == [1, F(1, 2), F(1, 2)]
    assert [type(c) for c in lp.rows[0]] == [int, F, F]
    lp.set_objective([True, 2, "-3"])
    assert [type(c) for c in lp.objective] == [F, int, F]
    ball, _ = _ball_lp(SPACE5)
    assert all(type(c) is int for row in ball.rows for c in row)


# ---------------------------------------------------------------------------
# Pinned vertices.  Criterion 10 and the oracle compare statuses and optimal
# values only, so a different choice among optimal vertices would pass them.
# These points and (row, column) pivot sequences were recorded with the
# earlier dense-tableau implementation of the same Bland rule.

F = Fraction
SPACE7 = FiniteMetricSpace(
    [f"p{i}" for i in range(7)], "p0",
    [[0, 2, 3, 5, 4, 6, 3],
     [2, 0, 1, F(7, 2), 3, 4, 3],
     [3, 1, 0, F(5, 2), 2, 3, 4],
     [5, F(7, 2), F(5, 2), 0, 2, 3, 5],
     [4, 3, 2, 2, 0, 2, 3],
     [6, 4, 3, 3, 2, 0, 3],
     [3, 3, 4, 5, 3, 3, 0]])
SPACE5 = FiniteMetricSpace(
    [f"q{i}" for i in range(5)], "q0",
    [[0, 1, 2, 3, 2], [1, 0, 1, 2, 2], [2, 1, 0, 1, 2], [3, 2, 1, 0, 1],
     [2, 2, 2, 1, 0]])


def _signed_ball_lp():
    mu = PairMeasure(SPACE7, {("p3", "p0"): 2, ("p5", "p1"): F(-1, 2),
                              ("p6", "p2"): F(3, 4), ("p4", "p6"): -1})
    lp, free = _ball_lp(SPACE7)
    lp.set_objective(_measure_objective(mu, free))
    return lp


def _slice_lp():
    # Max f(q4) - f(q1) over the ball and mu(f) >= 1/2 for a norm-one mu:
    # the slice row has a negative bound, so phase 1 needs an artificial.
    mu = PairMeasure(SPACE5, {("q3", "q0"): F(6, 11), ("q2", "q4"): F(9, 11)})
    lp, free = _ball_lp(SPACE5)
    lp.add_constraint([-c for c in _measure_objective(mu, free)], F(-1, 2))
    obj = [F(0)] * len(free)
    obj[free.index("q4")], obj[free.index("q1")] = F(1), F(-1)
    lp.set_objective(obj)
    return lp


def _degenerate_face_lp():
    # x1 <= x2 <= x3 and x1 + x2 + x3 <= 0 with zero bounds: every optimum
    # has x1 + x2 + x3 = 0, and three degenerate pivots reach the origin.
    return _lp(3, [([1, -1, 0], 0), ([0, 1, -1], 0), ([1, 1, 1], 0),
                   ([-1, 0, 0], 2), ([0, 0, 1], 1)], [1, 1, 1])


def _redundant_equality_lp():
    # x + y = -1 stated three times: phase 1 leaves artificials basic at
    # zero, and both are driven out before phase 2.
    return _lp(2, [([1, 1], -1), ([-1, -1], 1), ([2, 2], -2), ([1, -1], 0),
                   ([-1, 0], 4)], [0, 1])


PINNED = [
    (_signed_ball_lp, F(1211, 480), (F(3, 2), F(1, 2), 3, 1, 0, 3),
     [(7, 0), (21, 2), (20, 3), (22, 1), (36, 5), (41, 10)]),
    (_slice_lp, F(14, 13), (F(12, 13), F(25, 13), F(38, 13), 2),
     [(9, 1), (10, 0), (20, 2), (4, 3), (16, 18), (13, 12)]),
    (_degenerate_face_lp, 0, (0, 0, 0), [(0, 0), (1, 1), (2, 2)]),
    (_redundant_equality_lp, 3, (-4, 3), [(1, 2), (0, 4), (2, 5), (4, 1)]),
]


def test_pinned_spaces_are_metrics():
    assert validate_metric(SPACE7).ok and validate_metric(SPACE5).ok


@pytest.mark.parametrize("build, value, point, pivots", PINNED,
                         ids=["ball7-signed", "slice5-artificial",
                              "degenerate-face", "redundant-equality"])
def test_pinned_vertex_and_pivot_sequence(monkeypatch, build, value, point,
                                          pivots):
    seen = []
    pivot = lpcore._pivot

    def recording(rows, dens, basis, r, c):
        seen.append((r, c))
        pivot(rows, dens, basis, r, c)

    monkeypatch.setattr(lpcore, "_pivot", recording)
    res = solve_lp(build())
    assert res.status == "optimal"
    assert res.value == value
    assert res.point == point
    assert seen == pivots


@st.composite
def small_lps(draw):
    """Small LPs with many zero bounds (degenerate vertices), negative
    bounds (phase 1) and no box, so infeasible and unbounded ones occur."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    coeff = st.integers(-3, 3)
    bound = st.one_of(st.just(0), st.fractions(-4, 6, max_denominator=3))
    rows = [[F(draw(coeff)) for _ in range(n)] for _ in range(m)]
    rhs = [F(draw(bound)) for _ in range(m)]
    obj = [F(draw(coeff)) for _ in range(n)]
    return n, rows, rhs, obj


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_solve_lp_matches_oracle(case):
    n, rows, rhs, obj = case
    res = solve_lp(_lp(n, list(zip(rows, rhs)), obj))
    ref = oracle_solve(n, rows, rhs, obj)
    assert res.status == ref[0]
    if res.status == "optimal":
        assert res.value == ref[1]
        for row, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, res.point)) <= b


@st.composite
def lps_with_objectives(draw):
    """`small_lps` constraints with zero to four objectives."""
    n, rows, rhs, _ = draw(small_lps())
    coeff = st.integers(-3, 3)
    objs = [[F(draw(coeff)) for _ in range(n)]
            for _ in range(draw(st.integers(0, 4)))]
    return n, rows, rhs, objs


def _traced(solve):
    """Run `solve()` and return (result, events): one "simplex" per phase
    run and one (row, column) per pivot."""
    events = []
    simplex, pivot = lpcore._simplex, lpcore._pivot

    def recording_simplex(*args):
        events.append("simplex")
        return simplex(*args)

    def recording_pivot(rows, dens, basis, r, c):
        events.append((r, c))
        pivot(rows, dens, basis, r, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpcore, "_simplex", recording_simplex)
        mp.setattr(lpcore, "_pivot", recording_pivot)
        return solve(), events


@settings(max_examples=300, deadline=None)
@given(lps_with_objectives())
def test_solve_lps_matches_a_fresh_solve_per_objective(case):
    n, rows, rhs, objs = case
    cons = list(zip(rows, rhs))
    shared, events = _traced(lambda: solve_lps(_lp(n, cons, [0] * n), objs))
    assert len(shared) == len(objs)
    phase1, phase2 = None, []
    for obj, got in zip(objs, shared):
        want, seen = _traced(lambda: solve_lp(_lp(n, cons, obj)))
        assert (got.status, got.value, got.point) == \
            (want.status, want.value, want.point)
        # Phase 2 is the last simplex run, unless phase 1 proved the LP
        # infeasible; everything before it reads no objective.
        cut = (len(seen) if want.status == "infeasible"
               else len(seen) - seen[::-1].index("simplex") - 1)
        assert phase1 is None or seen[:cut] == phase1
        phase1 = seen[:cut]
        phase2 += seen[cut:]
    if objs:
        # One phase 1, then each objective's phase 2 as a fresh solve takes it.
        assert events == phase1 + phase2
