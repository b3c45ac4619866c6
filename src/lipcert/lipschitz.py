"""Real functions on a finite pointed metric space, vanishing at the base.

Holds the norm / difference-quotient computations, the unit-ball
membership test, the two McShane-type extensions of a partial
1-Lipschitz function, and integer rounding of a unit-ball function on
integer metrics.  `lip_norm` computes the reported value in `Fraction`;
`in_unit_ball` decides lip_norm <= 1 on the space's integer matrix
without a division.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import InvalidInput
from .metric import (FiniteMetricSpace, Pair, PairSet, _common_scale,
                     _literal_parser, rational_str)


class LipschitzFunction:
    """Function M -> Q with value 0 at the base point."""

    def __init__(self, space: FiniteMetricSpace,
                 values: Mapping[str, Fraction | int | str]):
        self.space = space
        vals = {p: v if isinstance(v, Fraction) else Fraction(v)
                for p, v in values.items()}
        missing = [p for p in space.points if p not in vals]
        if missing:
            raise InvalidInput(f"function undefined at {missing}")
        extra = [p for p in vals if p not in space]
        if extra:
            raise InvalidInput(f"function defined at unknown points {extra}")
        if vals[space.base] != 0:
            raise InvalidInput(
                f"value at base {space.base!r} is {vals[space.base]}, not 0")
        self.values = vals

    def __call__(self, p: str) -> Fraction:
        return self.values[p]

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values.values())


class PartialFunction:
    """Function values on a nonempty subset of the points of a space."""

    def __init__(self, space: FiniteMetricSpace,
                 values: Mapping[str, Fraction | int | str]):
        if not values:
            raise InvalidInput("partial function domain is empty")
        self.space = space
        self.values = {p: v if isinstance(v, Fraction) else Fraction(v)
                       for p, v in values.items()}
        for p in self.values:
            space.index(p)

    @property
    def domain(self) -> list[str]:
        return [p for p in self.space.points if p in self.values]

    def check_one_lipschitz(self) -> None:
        dom = self.domain
        for a in dom:
            for b in dom:
                if a != b and self.values[a] - self.values[b] > self.space.d(a, b):
                    raise InvalidInput(
                        f"partial function is not 1-Lipschitz: "
                        f"f({a}) - f({b}) > d({a},{b})")


def lip_norm(f: LipschitzFunction) -> Fraction:
    """Best Lipschitz constant: max |f(x)-f(y)| / d(x,y) over pairs."""
    space = f.space
    best = Fraction(0)
    pts = space.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            q = abs(f(x) - f(y)) / space.d(x, y)
            if q > best:
                best = q
    return best


def in_unit_ball(f: LipschitzFunction) -> bool:
    """Whether lip_norm(f) <= 1, decided on integers.

    With D = L * d and F = K * f over K = lcm(L, value denominators),
    |f(x) - f(y)| <= d(x, y) iff |F_x - F_y| <= (K / L) * D_xy.
    """
    space = f.space
    K, F = _common_scale(space.scale, [f.values[p] for p in space.points])
    s = K // space.scale
    n = len(F)
    for i, row in enumerate(space.int_dist):
        Fi = F[i]
        for j in range(i + 1, n):
            if abs(Fi - F[j]) > s * row[j]:
                return False
    return True


def slope(f: LipschitzFunction, pair: Pair) -> Fraction:
    """Difference quotient (f(x) - f(y)) / d(x, y) for pair (x, y)."""
    x, y = f.space.check_pair(pair)
    return (f(x) - f(y)) / f.space.d(x, y)


def _extended(partial: PartialFunction, space: FiniteMetricSpace,
              sup: bool) -> tuple[LipschitzFunction, Fraction]:
    partial.check_one_lipschitz()
    dom = partial.domain
    vals: dict[str, Fraction] = dict(partial.values)
    for y in space.points:
        if y in vals:
            continue
        if sup:
            vals[y] = max(partial.values[x] - space.d(x, y) for x in dom)
        else:
            vals[y] = min(partial.values[x] + space.d(x, y) for x in dom)
    shift = vals[space.base]
    return (LipschitzFunction(space, {p: v - shift for p, v in vals.items()}),
            shift)


def mcshane_sup_extension(partial: PartialFunction,
                          space: FiniteMetricSpace
                          ) -> tuple[LipschitzFunction, Fraction]:
    """Largest 1-Lipschitz extension from below, re-based to vanish at 0.

    Off the domain D the value is max over x in D of partial(x) - d(x, y);
    the whole function is then shifted by the returned constant so that it
    vanishes at the base point.
    """
    return _extended(partial, space, sup=True)


def mcshane_inf_extension(partial: PartialFunction,
                          space: FiniteMetricSpace
                          ) -> tuple[LipschitzFunction, Fraction]:
    """Smallest 1-Lipschitz extension from above (min of value + distance)."""
    return _extended(partial, space, sup=False)


def floor_round(g: LipschitzFunction, pairs: PairSet) -> LipschitzFunction:
    """Round a unit-ball function to integer values on an integer metric.

    Requires every distance to be an integer, lip_norm(g) <= 1, and the
    difference quotient of g to be exactly 1 across every pair in `pairs`.
    The pointwise floor then stays 1-Lipschitz and keeps quotient 1 on
    `pairs`; the result is re-based to vanish at the base point.
    """
    space = g.space
    if space.integer_bound() is None:
        raise InvalidInput("floor rounding needs an integer-valued metric")
    if not in_unit_ball(g):
        raise InvalidInput("function is outside the unit ball")
    for pair in pairs:
        if slope(g, pair) != 1:
            raise InvalidInput(f"difference quotient across {pair} is not 1")
    base_floor = math.floor(g(space.base))
    return LipschitzFunction(
        space, {p: Fraction(math.floor(v) - base_floor)
                for p, v in g.values.items()})


# ---------------------------------------------------------------------------
# JSON round-trip

def function_from_json(space: FiniteMetricSpace, obj: dict) -> LipschitzFunction:
    try:
        raw = obj["values"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed function JSON: {exc}") from None
    parse = _literal_parser()
    return LipschitzFunction(space, {p: parse(v) for p, v in raw.items()})


def function_to_json(f: LipschitzFunction) -> dict:
    return {"values": {p: rational_str(f(p)) for p in f.space.points}}
