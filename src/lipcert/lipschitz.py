"""Real functions on a finite pointed metric space, vanishing at the base.

Holds the norm / difference-quotient computations, the unit-ball
membership test, the McShane extension of a partial 1-Lipschitz
function, and integer rounding of a unit-ball function on integer
metrics.  A `LipschitzFunction` holds ints F over one scale K, so
`in_unit_ball`, `slope`, the extension and every replay read F and
D = L * d as they are.  `lip_norm` computes the reported value in
`Fraction`, the reference for `in_unit_ball`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InvalidInput
from .metric import (FiniteMetricSpace, Pair, PairSet, _common_scale,
                     _literal_parser, _scaled_str)


class LipschitzFunction:
    """Function M -> Q with value 0 at the base point, held as (K, F):
    the value at `space.points[i]` is F[i] / K, and K is a positive
    multiple of `space.scale`.  `values` and calls give `Fraction`s."""

    def __init__(self, space: FiniteMetricSpace,
                 values: Mapping[str, Fraction | int | str]):
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
        self.space = space
        self.K, F = _common_scale(space.scale,
                                  [vals[p] for p in space.points])
        self.F = tuple(F)

    @classmethod
    def _scaled(cls, space, K: int, F) -> LipschitzFunction:
        """The function F / K, unchecked: K must be a positive multiple of
        `space.scale` and F must be 0 at the base."""
        f = cls.__new__(cls)
        f.space, f.K, f.F = space, K, tuple(F)
        return f

    @property
    def values(self) -> dict[str, Fraction]:
        K = self.K
        return {p: Fraction(x, K) for p, x in zip(self.space.points, self.F)}

    def __call__(self, p: str) -> Fraction:
        return Fraction(self.F[self.space.index(p)], self.K)

    def is_integer_valued(self) -> bool:
        return all(x % self.K == 0 for x in self.F)


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


def lip_norm(f: LipschitzFunction) -> Fraction:
    """Best Lipschitz constant: max |f(x)-f(y)| / d(x,y) over pairs."""
    space = f.space
    best = Fraction(0)
    pts = space.points
    vals = f.values
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            q = abs(vals[x] - vals[y]) / space.d(x, y)
            if q > best:
                best = q
    return best


def in_unit_ball(f: LipschitzFunction) -> bool:
    """Whether lip_norm(f) <= 1, decided on f's own ints.

    With D = L * d and f = F / K, |f(x) - f(y)| <= d(x, y) iff
    |F_x - F_y| <= (K / L) * D_xy.
    """
    space, F = f.space, f.F
    s = f.K // space.scale
    n = len(F)
    for i, row in enumerate(space.int_dist):
        Fi = F[i]
        for j in range(i + 1, n):
            if abs(Fi - F[j]) > s * row[j]:
                return False
    return True


def slope(f: LipschitzFunction, pair: Pair) -> Fraction:
    """Difference quotient (F_x - F_y) / ((K / L) * D_xy) for (x, y)."""
    space = f.space
    x, y = map(space.index, space.check_pair(pair))
    return Fraction(f.F[x] - f.F[y],
                    f.K // space.scale * space.int_dist[x][y])


def mcshane_sup_extension(partial: PartialFunction,
                          space: FiniteMetricSpace
                          ) -> tuple[LipschitzFunction, Fraction]:
    """Largest 1-Lipschitz extension from below, re-based to vanish at 0.

    Off the domain the value is max over x in it of partial(x) - d(x, y)
    (McShane); the whole function is then shifted by the returned constant
    so that it vanishes at the base point.  Over K = lcm(L, denominators)
    with A = K * partial and s = K / L, both the check
    A_x - A_y <= s * D_xy and F_y = max_x (A_x - s * D_xy) run on ints.
    """
    pts, D = space.points, space.int_dist
    dom = sorted(map(space.index, partial.values))
    K, A = _common_scale(space.scale, [partial.values[pts[i]] for i in dom])
    s = K // space.scale
    known = dict(zip(dom, A))
    for i, a in known.items():
        for j, b in known.items():
            if i != j and a - b > s * D[i][j]:
                raise InvalidInput(
                    f"partial function is not 1-Lipschitz: "
                    f"f({pts[i]}) - f({pts[j]}) > d({pts[i]},{pts[j]})")
    F = [known[y] if y in known else max(a - s * D[i][y]
                                         for i, a in known.items())
         for y in range(len(pts))]
    shift = F[space.index(space.base)]
    return (LipschitzFunction._scaled(space, K, [v - shift for v in F]),
            Fraction(shift, K))


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
    return LipschitzFunction._scaled(space, 1, [x // g.K for x in g.F])


# ---------------------------------------------------------------------------
# JSON round-trip

def function_from_json(space: FiniteMetricSpace, obj: dict) -> LipschitzFunction:
    try:
        items = obj["values"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"malformed function JSON: {exc}") from None
    parse = _literal_parser()
    return LipschitzFunction(space, {p: parse(v) for p, v in items})


def function_to_json(f: LipschitzFunction) -> dict:
    """The reduced ``"p/q"`` literal of each F_p / K, whatever K is."""
    K = f.K
    return {"values": {p: _scaled_str(x, K)
                       for p, x in zip(f.space.points, f.F)}}
