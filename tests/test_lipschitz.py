import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lipcert.cli import example52_function
from lipcert.errors import InvalidInput
from lipcert.lipschitz import (LipschitzFunction, PartialFunction, floor_round,
                               function_from_json, function_to_json,
                               in_unit_ball, lip_norm, mcshane_sup_extension,
                               slope)
from lipcert.metric import FiniteMetricSpace, build_example52, build_line

from conftest import closure, random_space

LINE3 = build_line(3)
IDENT = LipschitzFunction(LINE3, {"0": 0, "1": 1, "2": 2})


def test_lip_norm_examples():
    assert lip_norm(IDENT) == 1
    zero = LipschitzFunction(LINE3, {p: 0 for p in LINE3.points})
    assert lip_norm(zero) == 0


def test_example52_refutation_function_is_norm_one():
    space = build_example52(1)
    f = example52_function(space)
    assert lip_norm(f) == 1
    assert f("x2") == 2 and f("y2") == Fraction(1, 2) and f("u1_1") == 1


def test_slope_examples():
    assert slope(IDENT, ("2", "0")) == 1
    assert slope(IDENT, ("0", "2")) == -1
    f = example52_function(build_example52(1))
    assert slope(f, ("x2", "x1")) == 1


def test_slope_antisymmetry(rng):
    space = random_space(rng, 5)
    vals = {p: Fraction(rng.randint(-4, 4)) for p in space.points}
    vals[space.base] = Fraction(0)
    f = LipschitzFunction(space, vals)
    for pair in space.pairs():
        assert slope(f, pair) == -slope(f, (pair[1], pair[0]))


def test_function_requires_base_zero_and_full_domain():
    with pytest.raises(InvalidInput):
        LipschitzFunction(LINE3, {"0": 1, "1": 0, "2": 0})
    with pytest.raises(InvalidInput):
        LipschitzFunction(LINE3, {"0": 0, "1": 1})


# ---------------------------------------------------------------------------
# Unit-ball membership on the integer matrix

def test_in_unit_ball_examples():
    assert in_unit_ball(IDENT)
    double = LipschitzFunction(LINE3, {"0": 0, "1": 2, "2": 4})
    assert not in_unit_ball(double)
    thirds = FiniteMetricSpace(["a", "b"], "a", [[0, Fraction(1, 3)],
                                                 [Fraction(1, 3), 0]])
    assert in_unit_ball(LipschitzFunction(thirds, {"a": 0, "b": "1/3"}))
    assert not in_unit_ball(LipschitzFunction(thirds, {"a": 0, "b": "2/5"}))


RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def rational_metrics(draw):
    """A random metric on 2-6 points with rational distances."""
    n = draw(st.integers(2, 6))
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = draw(
                st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
    return FiniteMetricSpace([f"p{i}" for i in range(n)], "p0", closure(w))


@st.composite
def metric_functions(draw):
    """A function on a random rational metric: as drawn, rescaled to
    norm exactly one (slopes of exactly 1), or rescaled and then nudged
    by 1/97 at one point (mixed denominators either side of the bound)."""
    space = draw(rational_metrics())
    vals = {p: draw(RATIONALS) for p in space.points}
    vals[space.base] = Fraction(0)
    mode = draw(st.sampled_from(["drawn", "norm-one", "nudged"]))
    norm = lip_norm(LipschitzFunction(space, vals))
    if mode != "drawn" and norm > 0:
        vals = {p: v / norm for p, v in vals.items()}
        if mode == "nudged":
            p = draw(st.sampled_from(space.points[1:]))
            vals[p] += draw(st.sampled_from([Fraction(1, 97),
                                             Fraction(-1, 97)]))
    return LipschitzFunction(space, vals)


@settings(max_examples=300, deadline=None)
@given(metric_functions())
def test_in_unit_ball_matches_lip_norm(f):
    assert in_unit_ball(f) == (lip_norm(f) <= 1)


@settings(max_examples=300, deadline=None)
@given(rational_metrics(), st.data(), st.integers(2, 12))
def test_integer_form_reads_as_its_fraction_values(space, data, c):
    """A function holds ints F over K, a multiple of L.  Its values, its
    calls and its JSON are those of the rationals it was built from, also
    when the same function is held over K * c, a K that is not minimal;
    its ball membership is lip_norm <= 1 on either scale."""
    vals = {p: data.draw(RATIONALS) for p in space.points}
    vals[space.base] = Fraction(0)
    if data.draw(st.booleans()):
        norm = max(abs(vals[x] - vals[y]) / space.d(x, y)
                   for x, y in space.pairs())
        if norm:  # rescaled to norm one: slopes of exactly 1
            vals = {p: v / norm for p, v in vals.items()}
    f = LipschitzFunction(space, vals)
    assert f.K % space.scale == 0 and len(f.F) == len(space)
    g = LipschitzFunction._scaled(space, f.K * c, [x * c for x in f.F])
    text = json.dumps({"values": {p: str(vals[p]) for p in space.points}})
    for h in (f, g):
        assert h.values == vals
        assert all(h(p) == vals[p] for p in space.points)
        assert json.dumps(function_to_json(h)) == text
        assert in_unit_ball(h) == (lip_norm(f) <= 1)
    assert function_from_json(space, json.loads(text)).values == vals


# ---------------------------------------------------------------------------
# Extensions

def test_extensions_identity_on_full_domain():
    part = PartialFunction(LINE3, {"0": 0, "1": 1, "2": 2})
    f, shift = mcshane_sup_extension(part, LINE3)
    assert shift == 0
    assert all(f(p) == IDENT(p) for p in LINE3.points)


def test_extensions_fill_middle_of_line():
    part = PartialFunction(LINE3, {"0": 0, "2": 2})
    f, _ = mcshane_sup_extension(part, LINE3)
    assert f("1") == 1


def test_sup_extension_from_base_singleton():
    part = PartialFunction(LINE3, {"0": 0})
    f, shift = mcshane_sup_extension(part, LINE3)
    assert shift == 0
    assert all(f(p) == -LINE3.d("0", p) for p in LINE3.points)


def test_extension_rejects_non_lipschitz_partial():
    part = PartialFunction(LINE3, {"0": 0, "1": 5})
    with pytest.raises(InvalidInput):
        mcshane_sup_extension(part, LINE3)
    # A label of another space is refused, not extended.
    elsewhere = PartialFunction(build_line(4), {"0": 0, "3": 1})
    with pytest.raises(InvalidInput, match="unknown point label '3'"):
        mcshane_sup_extension(elsewhere, LINE3)


def fraction_sup_extension(partial, space):
    """The McShane sup-extension in `Fraction`, as a reference: the same
    check and message, F_y = max_x (partial(x) - d(x, y)) off the domain,
    then shifted to vanish at the base.  Returns (values, shift)."""
    vals = partial.values
    dom = [p for p in space.points if p in vals]
    for a in dom:
        for b in dom:
            if a != b and vals[a] - vals[b] > space.d(a, b):
                raise InvalidInput(f"partial function is not 1-Lipschitz: "
                                   f"f({a}) - f({b}) > d({a},{b})")
    ext = {y: vals[y] if y in vals else max(vals[x] - space.d(x, y)
                                            for x in dom)
           for y in space.points}
    shift = ext[space.base]
    return {p: v - shift for p, v in ext.items()}, shift


PARTIAL_VALUES = st.builds(Fraction, st.integers(-12, 12),
                           st.sampled_from([1, 2, 3, 7, 8, 9, 11, 13]))


@st.composite
def partial_functions(draw):
    """A partial function on a rational metric with L > 1, some value of
    which has a denominator that does not divide L: as drawn (mostly not
    1-Lipschitz), rescaled to slope exactly 1 on its domain, or rescaled
    and then nudged by 1/97 at one point."""
    space = draw(rational_metrics().filter(lambda s: s.scale > 1))
    dom = draw(st.lists(st.sampled_from(space.points), min_size=1,
                        max_size=len(space), unique=True))
    vals = {p: draw(PARTIAL_VALUES) for p in dom}
    mode = draw(st.sampled_from(["drawn", "slope-one", "nudged"]))
    norm = max((abs(vals[x] - vals[y]) / space.d(x, y)
                for x in dom for y in dom if x != y), default=0)
    if mode != "drawn" and norm > 0:
        vals = {p: v / norm for p, v in vals.items()}
        if mode == "nudged":
            vals[draw(st.sampled_from(dom))] += draw(st.sampled_from(
                [Fraction(1, 97), Fraction(-1, 97)]))
    assume(any(space.scale % v.denominator for v in vals.values()))
    return space, PartialFunction(space, vals)


@settings(max_examples=400, deadline=None)
@given(partial_functions())
def test_sup_extension_matches_the_fraction_formula(case):
    """The integer extension gives the `Fraction` formula's values, shift
    and JSON byte for byte, and refuses a partial function that is not
    1-Lipschitz with the same message."""
    space, part = case
    try:
        want, want_shift = fraction_sup_extension(part, space)
    except InvalidInput as exc:
        with pytest.raises(InvalidInput) as got:
            mcshane_sup_extension(part, space)
        assert str(got.value) == str(exc)
        return
    f, shift = mcshane_sup_extension(part, space)
    assert f.values == want and shift == want_shift
    assert type(shift) is Fraction
    assert f.K % space.scale == 0
    assert json.dumps(function_to_json(f)) == json.dumps(
        {"values": {p: str(want[p]) for p in space.points}})
    assert in_unit_ball(f)


def _lipschitz_samples(rng, space, dom_vals, count):
    """Random 1-Lipschitz extensions of dom_vals, values on a quarter-
    integer grid inside the feasible window at each point in turn."""
    out = []
    for _ in range(count):
        vals = dict(dom_vals)
        ok = True
        for p in space.points:
            if p in vals:
                continue
            lo = max(v - space.d(p, q) for q, v in vals.items())
            hi = min(v + space.d(p, q) for q, v in vals.items())
            if lo > hi:
                ok = False
                break
            steps = int((hi - lo) * 4)
            vals[p] = lo + Fraction(rng.randint(0, steps), 4) if steps else lo
        if ok:
            out.append(vals)
    return out


def test_sup_extension_is_pointwise_minimal(rng):
    """Every 1-Lipschitz extension dominates the sup-extension, checked
    against grid samples."""
    for _ in range(25):
        space = random_space(rng, 5)
        dom = rng.sample(space.points, rng.randint(1, len(space) - 1))
        anchor = {dom[0]: Fraction(0)}
        for p in dom[1:]:
            lo = max(v - space.d(p, q) for q, v in anchor.items())
            hi = min(v + space.d(p, q) for q, v in anchor.items())
            steps = int((hi - lo) * 4)
            anchor[p] = lo + Fraction(rng.randint(0, steps), 4) if steps else lo
        part = PartialFunction(space, anchor)
        low, lo_shift = mcshane_sup_extension(part, space)
        for vals in _lipschitz_samples(rng, space, anchor, 8):
            for p in space.points:
                assert low(p) + lo_shift <= vals[p]


# ---------------------------------------------------------------------------
# Integer rounding

def test_floor_round_identity_on_integer_values():
    f = floor_round(IDENT, (("2", "1"), ("1", "0")))
    assert all(f(p) == IDENT(p) for p in LINE3.points)


def test_floor_round_line_example():
    g = LipschitzFunction(LINE3, {"0": 0, "1": Fraction(1, 2),
                                  "2": Fraction(3, 2)})
    f = floor_round(g, ())
    assert [f("0"), f("1"), f("2")] == [0, 0, 1]
    assert lip_norm(f) <= 1


def test_floor_round_keeps_unit_quotient():
    space = FiniteMetricSpace(["0", "y", "x"], "0",
                              [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    g = LipschitzFunction(space, {"0": 0, "y": Fraction(1, 2),
                                  "x": Fraction(5, 2)})
    assert slope(g, ("x", "y")) == 1
    f = floor_round(g, (("x", "y"),))
    assert f("y") == 0 and f("x") == 2
    assert slope(f, ("x", "y")) == 1


def test_floor_round_preconditions():
    frac_space = FiniteMetricSpace(["0", "1"], "0",
                                   [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    g = LipschitzFunction(frac_space, {"0": 0, "1": Fraction(1, 4)})
    with pytest.raises(InvalidInput):
        floor_round(g, ())
    too_big = LipschitzFunction(LINE3, {"0": 0, "1": 2, "2": 4})
    with pytest.raises(InvalidInput):
        floor_round(too_big, ())
    with pytest.raises(InvalidInput):
        floor_round(IDENT, (("0", "2"),))  # quotient is -1, not 1


def test_function_json_roundtrip():
    f = LipschitzFunction(LINE3, {"0": 0, "1": Fraction(1, 2), "2": 1})
    g = function_from_json(LINE3, function_to_json(f))
    assert all(g(p) == f(p) for p in LINE3.points)
