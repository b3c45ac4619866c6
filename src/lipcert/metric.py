"""Finite pointed metric spaces and the ordered-pair space.

Distances are exact rationals (`fractions.Fraction`); nothing in this
module (or anywhere downstream) uses floating point.  The constructor
compiles each space to an integer form, once per distinct distance
literal: the scale L (the lcm of the distance denominators) and the
matrix D = L * d of ints.  The hot kernels (metric validation,
Bellman-Ford, certificate replay, unit-ball membership, the witness
inf-extension, slice shortest paths) run on D over a common scale such as
h * L for gamma = g / h, and `Fraction` appears only at the API and JSON
boundary.  The pair space M~ = {(x, y) : x != y} is never materialised:
operations either receive explicit finite pair sets or iterate over all
n(n-1) ordered pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidInput

# An ordered pair of point labels, first != second.
Pair = tuple[str, str]
# A finite pair set; kept as a tuple so element order is deterministic.
PairSet = tuple[Pair, ...]
# The builders refuse a space above this many points before they allocate
# its n x n matrix; the largest in use, example52:3, has 24.
MAX_BUILTIN_POINTS = 1000


class FiniteMetricSpace:
    """Immutable finite pointed metric space with rational distances.

    The constructor checks shape (matrix size, label uniqueness, known
    base) and the cells: each is an int, a `Fraction` or a ``"p/q"``
    string, read by `parse_rational` like every other rational literal.
    The metric axioms are checked by :func:`validate_metric`, and a zero
    diagonal with positivity alone by :meth:`require_positive`.  Point
    order is the declaration order; certificates always reference labels,
    never indices.  ``scale`` and ``int_dist`` are the compiled integer
    form.  The constructor builds them from one table over the distinct
    cells, so each literal is parsed and scaled once, however often it
    repeats; ``dist_str`` and the `Fraction` matrix behind :meth:`d` map
    the same cells through that table on first use.
    """

    def __init__(self, points: Sequence[str], base: str,
                 dist: Sequence[Sequence[Fraction | int | str]]):
        # Own copies of the rows: the caller may change theirs later.
        self._cells, self._values = _compile_cells(dist)
        self.points: tuple[str, ...] = tuple(points)
        try:
            self._index = {p: i for i, p in enumerate(self.points)}
            known_base = base in self._index
        except TypeError as exc:  # a JSON list or object as a label
            raise InvalidInput(f"bad point label: {exc}") from None
        if len(self._index) != len(self.points):
            raise InvalidInput("duplicate point labels")
        if not known_base:
            raise InvalidInput(f"unknown base label {base!r}")
        self.base = base
        n = len(self.points)
        if len(self._cells) != n or any(len(row) != n for row in self._cells):
            raise InvalidInput("distance matrix does not match point count")
        #: L: the least common denominator of all distances.
        self.scale: int = math.lcm(
            *(x.denominator for x in self._values.values()))
        #: D = L * d, indexed by point number.
        self.int_dist: tuple[tuple[int, ...], ...] = self._map_cells(
            {x: v.numerator * (self.scale // v.denominator)
             for x, v in self._values.items()})

    def _map_cells(self, table: dict) -> tuple[tuple, ...]:
        return tuple(tuple(map(table.__getitem__, row)) for row in self._cells)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: str) -> bool:
        return p in self._index

    @cached_property
    def _dist(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._map_cells(self._values)

    @cached_property
    def dist_str(self) -> tuple[tuple[str, ...], ...]:
        """The distances as their ``"p/q"`` JSON literals."""
        return self._map_cells({x: rational_str(v)
                                for x, v in self._values.items()})

    def require_positive(self) -> FiniteMetricSpace:
        """Reject a nonzero diagonal, or a zero or negative distance between
        distinct points."""
        for i, row in enumerate(self.int_dist):
            p = self.points[i]
            if row[i] != 0:
                raise InvalidInput(f"d({p},{p}) = {self._dist[i][i]} != 0: "
                                   "a point needs distance zero to itself")
            if min(row) == 0 and row.count(0) == 1:
                continue  # the zero is d(p, p), the rest are positive
            j = next(j for j, x in enumerate(row) if x <= 0 and j != i)
            raise InvalidInput(
                f"d({p},{self.points[j]}) = {self._dist[i][j]} <= 0: "
                "distinct points need a positive distance")
        return self

    def index(self, p: str) -> int:
        try:
            return self._index[p]
        except (KeyError, TypeError):
            raise InvalidInput(f"unknown point label {p!r}") from None

    def d(self, p: str, q: str) -> Fraction:
        return self._dist[self.index(p)][self.index(q)]

    def pairs(self) -> Iterator[Pair]:
        """All ordered pairs of distinct points, in declaration order."""
        for p in self.points:
            for q in self.points:
                if p != q:
                    yield (p, q)

    def check_pair(self, pair: Pair) -> Pair:
        try:
            p, q = pair
        except (TypeError, ValueError):
            raise InvalidInput(
                f"a pair needs exactly two labels, got {pair!r}") from None
        if p == q:
            raise InvalidInput(f"degenerate pair ({p!r}, {q!r})")
        self.index(p), self.index(q)
        return (p, q)

    def integer_bound(self) -> Optional[int]:
        """Largest distance if all distances are integers, else None."""
        if self.scale != 1:
            return None
        return max(0, *map(max, self.int_dist))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: Optional[str] = None          # axiom name
    witness: Optional[tuple[str, ...]] = None  # offending points
    message: str = "OK"


def validate_metric(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustively check the metric axioms (O(n^3)) on the int matrix."""
    pts = space.points
    D = space.int_dist
    n = len(pts)
    for i, p in enumerate(pts):
        if D[i][i] != 0:
            return ValidationReport(False, "zero-diagonal", (p,),
                                    f"d({p},{p}) = {space.d(p, p)} != 0")
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i == j:
                continue
            if D[i][j] != D[j][i]:
                return ValidationReport(False, "symmetry", (p, q),
                                        f"d({p},{q}) != d({q},{p})")
            if D[i][j] <= 0:
                return ValidationReport(False, "positivity", (p, q),
                                        f"d({p},{q}) = {space.d(p, q)} <= 0")
    for i in range(n):
        Di = D[i]
        for j in range(n):
            Dij, Dj = Di[j], D[j]
            for k in range(n):
                if Di[k] > Dij + Dj[k]:
                    p, q, r = pts[i], pts[j], pts[k]
                    return ValidationReport(
                        False, "triangle", (p, q, r),
                        f"d({p},{r}) > d({p},{q}) + d({q},{r})")
    return ValidationReport(True)


def reflect(pair: Pair) -> Pair:
    x, y = pair
    return (y, x)



def make_pair_set(space: FiniteMetricSpace, pairs: Iterable[Pair]) -> PairSet:
    """Validate endpoints and drop duplicates, keeping first-seen order."""
    seen: dict[Pair, None] = {}
    for pair in pairs:
        seen.setdefault(space.check_pair(pair), None)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Builders

def build_line(n: int) -> FiniteMetricSpace:
    """Path metric on n collinear points 0, 1, ..., n-1 with unit steps."""
    if n < 1:
        raise InvalidInput("line needs at least one point")
    if n > MAX_BUILTIN_POINTS:
        raise InvalidInput(f"line:{n} is above {MAX_BUILTIN_POINTS} points")
    points = [str(i) for i in range(n)]
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(points, "0", dist)


def build_example52(levels: int) -> FiniteMetricSpace:
    """Three-cycle space with `levels` detour levels per branch.

    Points x_i, y_i (i = 1..3) and u_i^j, v_i^j (j = 1..levels, written
    ``ui_j`` / ``vi_j``).  Unit distances: y1-x2, y2-x3, y3-x1 and the
    chains xi-ui_j-vi_j-yi; every other pair of distinct points is at
    distance 2.  Base point is x1.
    """
    if levels < 1:
        raise InvalidInput("levels must be >= 1")
    if 6 + 6 * levels > MAX_BUILTIN_POINTS:
        raise InvalidInput(f"example52:{levels} is above "
                           f"{MAX_BUILTIN_POINTS} points")
    points = ["x1", "x2", "x3", "y1", "y2", "y3"]
    for j in range(1, levels + 1):
        for i in (1, 2, 3):
            points.append(f"u{i}_{j}")
            points.append(f"v{i}_{j}")
    ones = {("y1", "x2"), ("y2", "x3"), ("y3", "x1")}
    for j in range(1, levels + 1):
        for i in (1, 2, 3):
            ones |= {(f"x{i}", f"u{i}_{j}"), (f"u{i}_{j}", f"v{i}_{j}"),
                     (f"v{i}_{j}", f"y{i}")}
    ones |= {(b, a) for a, b in ones}
    dist = [[0 if a == b else 1 if (a, b) in ones else 2 for b in points]
            for a in points]
    return FiniteMetricSpace(points, "x1", dist)


def builtin_space(name: str) -> FiniteMetricSpace:
    """Resolve a generator reference like ``example52:3`` or ``line:5``."""
    kind, sep, arg = name.partition(":")
    if not sep:
        raise InvalidInput(f"builtin reference {name!r} needs a parameter, "
                           "e.g. 'example52:2'")
    try:
        value = int(arg)
    except ValueError:
        raise InvalidInput(f"bad builtin parameter {arg!r}") from None
    if kind == "example52":
        return build_example52(value)
    if kind == "line":
        return build_line(value)
    raise InvalidInput(f"unknown builtin space {kind!r}")


# ---------------------------------------------------------------------------
# JSON round-trip

def parse_rational(s: str | int) -> Fraction:
    """An int or a ``"p/q"`` string; a JSON float or bool is refused."""
    if isinstance(s, (bool, float)):
        raise InvalidInput(f"bad rational literal {s!r}: write an integer "
                           "or a 'p/q' string")
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidInput(f"bad rational literal {s!r}") from None


def rational_str(x: Fraction) -> str:
    return str(x)


def _scaled_str(x: int, K: int) -> str:
    """`rational_str(Fraction(x, K))` for K > 0, reduced by one gcd."""
    g = math.gcd(x, K)
    return str(x // g) if g == K else f"{x // g}/{K // g}"


# The types a distance cell may have.  They are checked on every cell, not
# on the distinct ones: True == 1 and 0.5 == Fraction(1, 2), so a bool or
# a float would share the key of a valid cell in the table.
_CELL_TYPES = frozenset({str, int, Fraction})


def _compile_cells(dist) -> tuple[tuple[tuple, ...], dict]:
    """(rows, values): the rows of `dist` as tuples, and the `Fraction` of
    each distinct cell, read once by `parse_rational`.

    A bad cell raises `parse_rational`'s error for the first one in row
    order, and a row that is not a sequence the shape error.  A string is
    not a row, though it unpacks into one-character cells.
    """
    rows = dist
    try:
        if str in set(map(type, dist)):
            raise TypeError("a string is not a row")
        rows = tuple(map(tuple, dist))
        if set(map(type, chain.from_iterable(rows))) <= _CELL_TYPES:
            return rows, {x: parse_rational(x)
                          for x in set(chain.from_iterable(rows))}
    except (TypeError, InvalidInput):
        pass
    # Some cell or row is bad: walk the cells in row order to name it.
    try:
        for row in rows:
            if type(row) is str:
                break
            for x in row:
                parse_rational(x)
                if type(x) not in _CELL_TYPES:
                    raise InvalidInput(f"bad rational literal {x!r}: write "
                                       "an integer or a 'p/q' string")
    except TypeError:
        pass
    raise InvalidInput("distance matrix does not match point count")


def _literal_parser():
    """`parse_rational` with a memo of the ``str`` literals it has parsed.

    Make one per load: a report repeats a few literals thousands of times.
    Any other value goes to `parse_rational` on every call, so it is
    refused as there.
    """
    memo: dict[str, Fraction] = {}

    def parse(x):
        if type(x) is not str:
            return parse_rational(x)
        value = memo.get(x)
        if value is None:
            value = memo[x] = parse_rational(x)
        return value
    return parse


def _common_scale(scale: int, values: Sequence[Fraction]
                  ) -> tuple[int, list[int]]:
    """(K, X): K = lcm(scale, denominators of values), X[i] = K * values[i].

    Nothing is rounded: K is a multiple of every denominator, so the
    integers X stand for the values exactly on the scale K.
    """
    K = math.lcm(scale, *(v.denominator for v in values))
    return K, [v.numerator * (K // v.denominator) for v in values]


def space_from_json(obj: dict) -> FiniteMetricSpace:
    try:
        if isinstance(obj["points"], str):
            raise TypeError("'points' is a string, not a list of labels")
        points = list(obj["points"])
        base = obj["base"]
        rows = obj["distances"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed metric JSON: {exc}") from None
    return FiniteMetricSpace(points, base, rows)


def space_to_json(space: FiniteMetricSpace) -> dict:
    """A fresh dict each call, so a caller may change it freely."""
    return {
        "points": list(space.points),
        "base": space.base,
        "distances": [list(row) for row in space.dist_str],
    }
