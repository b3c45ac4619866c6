import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipcert.errors import InvalidInput
from lipcert.metric import (MAX_BUILTIN_POINTS, FiniteMetricSpace,
                            build_example52, build_line, builtin_space,
                            make_pair_set, parse_rational, reflect,
                            space_from_json, space_to_json, validate_metric)

LINE3 = build_line(3)


def test_line_is_valid():
    report = validate_metric(LINE3)
    assert report.ok
    assert LINE3.d("0", "1") == 1 and LINE3.d("0", "2") == 2


def test_triangle_violation_detected():
    bad = FiniteMetricSpace(["0", "1", "2"], "0",
                            [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    report = validate_metric(bad)
    assert not report.ok
    assert report.failure == "triangle"
    assert set(report.witness) == {"0", "1", "2"}


def test_positivity_violation_detected():
    bad = FiniteMetricSpace(["0", "1"], "0", [[0, 0], [0, 0]])
    report = validate_metric(bad)
    assert not report.ok
    assert report.failure == "positivity"


def test_compiled_integer_matrix():
    space = FiniteMetricSpace(["a", "b", "c"], "a",
                              [[0, "1/2", "5/6"], ["1/2", 0, "1/3"],
                               ["5/6", "1/3", 0]])
    assert space.scale == 6
    assert space.int_dist == ((0, 3, 5), (3, 0, 2), (5, 2, 0))
    assert space.int_dist is space.int_dist  # compiled once per object


@st.composite
def _distance_cell(draw):
    """An int, a `Fraction` or a string literal, canonical or not."""
    num, den = draw(st.integers(-30, 30)), draw(st.integers(1, 12))
    return draw(st.sampled_from([
        num, Fraction(num, den), str(Fraction(num, den)), f"{num}/{den}",
        f" {num}/{den} ", f"{2 * num}/{2 * den}", "-0", "2/4", " 1/2 "]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_distance_cell(), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_table_compile_equals_the_per_cell_compile(rows):
    """The table over distinct cells gives what one `Fraction` per cell
    gives, and the space keeps no reference to the caller's rows."""
    points = [f"p{i}" for i in range(len(rows))]
    values = [[Fraction(x) for x in row] for row in rows]
    scale = math.lcm(*(v.denominator for row in values for v in row))
    space = FiniteMetricSpace(points, "p0", rows)
    rows[0][0] = "7/3"
    rows[-1].append(5)
    rows.append(["1"] * len(points))
    assert space.scale == scale
    assert space.int_dist == tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row)
        for row in values)
    assert space.dist_str == tuple(tuple(str(v) for v in row)
                                   for row in values)
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert space.d(p, q) == values[i][j]


@pytest.mark.parametrize("rows, bad", [
    ([[0, 0.5], [0.5, 0]], 0.5), ([[0, True], [True, 0]], True),
    ([[0, 1], [True, 0]], True), ([[0, Fraction(1, 2)], [0.5, 0]], 0.5),
    ([[0, "abc"], [0.5, 0]], "abc"), ([[0, None], [None, 0]], None),
    ([[0, "1/0"], ["1/0", 0]], "1/0"), ([[0, [1]], [[1], 0]], [1])])
def test_constructor_reads_cells_as_rational_literals(rows, bad):
    """Every cell goes through `parse_rational`'s grammar, and the first
    bad one in row order gets its error, even where a bool or a float
    equals a valid cell."""
    with pytest.raises(InvalidInput) as expected:
        parse_rational(bad)
    with pytest.raises(InvalidInput) as raised:
        FiniteMetricSpace(["a", "b"], "a", rows)
    assert str(raised.value) == str(expected.value)


def test_validation_messages_keep_rational_values():
    bad = FiniteMetricSpace(["0", "1"], "0", [[0, "-1/2"], ["-1/2", 0]])
    report = validate_metric(bad)
    assert report.failure == "positivity"
    assert report.message == "d(0,1) = -1/2 <= 0"
    with pytest.raises(InvalidInput, match="positive distance"):
        bad.require_positive()
    assert LINE3.require_positive() is LINE3


def test_symmetry_violation_detected():
    bad = FiniteMetricSpace(["0", "1"], "0", [[0, 1], [2, 0]])
    assert validate_metric(bad).failure == "symmetry"


def test_construction_errors():
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "a"], "a", [[0, 1], [1, 0]])
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "b"], "c", [[0, 1], [1, 0]])
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "b"], "a", [[0, 1]])


# ---------------------------------------------------------------------------
# The three-cycle example space

def test_example52_sizes_and_distances():
    s1 = build_example52(1)
    assert len(s1) == 12
    assert s1.d("x1", "y1") == 2
    assert s1.d("v2_1", "y2") == 1
    s3 = build_example52(3)
    assert len(s3) == 24
    assert s3.d("u1_1", "u1_2") == 2


def test_example52_unit_edges():
    s = build_example52(2)
    for a, b in [("y1", "x2"), ("y2", "x3"), ("y3", "x1")]:
        assert s.d(a, b) == 1 and s.d(b, a) == 1
    for j in (1, 2):
        for i in (1, 2, 3):
            assert s.d(f"x{i}", f"u{i}_{j}") == 1
            assert s.d(f"u{i}_{j}", f"v{i}_{j}") == 1
            assert s.d(f"v{i}_{j}", f"y{i}") == 1
    assert s.base == "x1"


@pytest.mark.parametrize("levels", range(1, 11))
def test_example52_validates(levels):
    s = build_example52(levels)
    assert validate_metric(s).ok
    assert all(s.d(p, q) in (1, 2) for p, q in s.pairs())
    assert s.integer_bound() == 2


def test_example52_rejects_zero_levels():
    with pytest.raises(InvalidInput):
        build_example52(0)


# ---------------------------------------------------------------------------
# Pair-space helpers

def test_reflect_examples():
    assert reflect(("x", "y")) == ("y", "x")
    assert reflect(reflect(("a", "b"))) == ("a", "b")


def test_make_pair_set_dedupes_and_validates():
    assert make_pair_set(LINE3, [("0", "1"), ("0", "1"), ("1", "2")]) == \
        (("0", "1"), ("1", "2"))
    with pytest.raises(InvalidInput):
        make_pair_set(LINE3, [("0", "0")])
    with pytest.raises(InvalidInput):
        make_pair_set(LINE3, [("0", "9")])


def test_pairs_enumeration_order():
    assert list(build_line(2).pairs()) == [("0", "1"), ("1", "0")]


# ---------------------------------------------------------------------------
# Serialization and builtins

def test_space_json_roundtrip():
    s = FiniteMetricSpace(["a", "b", "c"], "b",
                          [[0, 1, Fraction(3, 2)], [1, 0, 2],
                           [Fraction(3, 2), 2, 0]])
    t = space_from_json(space_to_json(s))
    assert t.points == s.points and t.base == s.base
    assert all(t.d(p, q) == s.d(p, q) for p in s.points for q in s.points)


def test_space_to_json_is_fresh_on_every_call():
    s = FiniteMetricSpace(["a", "b"], "a", [[0, Fraction(1, 2)],
                                            [Fraction(1, 2), 0]])
    first = space_to_json(s)
    assert first["distances"] == [["0", "1/2"], ["1/2", "0"]]
    first["distances"][0][1] = "7"
    first["distances"].append(["x"])
    first["points"].append("c")
    assert space_to_json(s) == {"points": ["a", "b"], "base": "a",
                                "distances": [["0", "1/2"], ["1/2", "0"]]}


def test_builtin_space_resolution():
    assert len(builtin_space("example52:2")) == 18
    assert len(builtin_space("line:5")) == 5
    for bad in ("example52", "line:x", "torus:3"):
        with pytest.raises(InvalidInput):
            builtin_space(bad)


# The fewest example52 levels whose space has more than the cap's points.
OVER_CAP_LEVELS = (MAX_BUILTIN_POINTS - 6) // 6 + 1


def test_builtin_sizes_are_refused_above_the_cap_before_allocation():
    """One point cap for both builders, far above every size in use, and
    the refusal comes before the n x n matrix exists."""
    assert len(build_example52(3)) == 24 < MAX_BUILTIN_POINTS // 10
    assert 6 + 6 * OVER_CAP_LEVELS > MAX_BUILTIN_POINTS
    for build, size, name in (
            (build_line, MAX_BUILTIN_POINTS + 1, "line"),
            (build_example52, OVER_CAP_LEVELS, "example52")):
        for call in (lambda: build(size), lambda: builtin_space(
                f"{name}:{size}")):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidInput, match=(
                        f"^{name}:{size} is above {MAX_BUILTIN_POINTS} "
                        "points$")):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000, peak
    assert len(build_line(MAX_BUILTIN_POINTS)) == MAX_BUILTIN_POINTS
