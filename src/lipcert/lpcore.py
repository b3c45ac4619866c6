"""Exact rational linear programming.

Maximises linear objectives over {x : Ax <= b} with x free, via a
two-phase tableau simplex with Bland's anti-cycling rule.  Returned optima
satisfy every constraint exactly.  `solve_lps` builds one tableau for
several objectives over the same constraints: phase 1 reads no objective,
so it runs once, and phase 2 runs per objective on a copy of the
post-phase-1 tableau, taking the same pivots a fresh `solve_lp` would.

The tableau is fraction-free: row i holds Python ints over one positive
denominator of its own, and every right-hand side is first multiplied by
the lcm of their denominators, which scales each basic solution alike and
leaves every pivot choice unchanged.  The reduced costs are one more
tableau row, eliminated against the basis once per phase and then kept
current by each pivot instead of being recomputed per iteration.  A pivot
touches only the rows with a nonzero in the pivot column; when the
normalised pivot row has denominator 1 (always, on the unit-ball
constraints, whose matrix is totally unimodular) it touches only the
pivot row's nonzero cells.  `Fraction` appears only at the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidInput

Row = list[Fraction | int]


@dataclass
class LinearProgram:
    num_vars: int
    rows: list[Row] = field(default_factory=list)       # constraint coefficients
    rhs: list[Fraction] = field(default_factory=list)   # bounds, sense <=
    objective: Row = field(default_factory=list)        # maximised

    def add_constraint(self, coeffs: Sequence[Fraction | int], bound) -> None:
        self.rows.append(self._rationals(coeffs, "constraint"))
        self.rhs.append(Fraction(bound))

    def set_objective(self, coeffs: Sequence[Fraction | int]) -> None:
        self.objective = self._rationals(coeffs, "objective")

    def _rationals(self, coeffs, what: str) -> Row:
        """The coefficients as exact rationals; an int or a Fraction is
        kept as it is."""
        row = [c if type(c) is int or type(c) is Fraction else Fraction(c)
               for c in coeffs]
        if len(row) != self.num_vars:
            raise InvalidInput(f"{what} length does not match num_vars")
        return row


@dataclass(frozen=True)
class LpResult:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None


def solve_lp(lp: LinearProgram) -> LpResult:
    """Two-phase simplex on the split-variable standard form."""
    if not lp.objective:
        raise InvalidInput("objective is not set")
    return solve_lps(lp, [lp.objective])[0]


def solve_lps(lp: LinearProgram,
              objectives: Sequence[Sequence[Fraction | int]]
              ) -> list[LpResult]:
    """`solve_lp` for each objective in turn over the constraints of `lp`,
    with the same status, value, point and pivots, from one tableau and
    one phase 1."""
    objectives = [lp._rationals(obj, "objective") for obj in objectives]
    n, m = lp.num_vars, len(lp.rows)
    # Free x becomes u - v with u, v >= 0; slacks close the inequalities.
    # A row with a negative right-hand side is negated and gets an
    # artificial column.  Row i stands for rows[i] / dens[i], with its
    # right-hand side (times `scale`) in the last cell.
    scale = math.lcm(*(b.denominator for b in lp.rhs))
    art_rows = [i for i, b in enumerate(lp.rhs) if b < 0]
    ncols = 2 * n + m
    total = ncols + len(art_rows)
    art_index = {i: ncols + k for k, i in enumerate(art_rows)}
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for i, (coeffs, b) in enumerate(zip(lp.rows, lp.rhs)):
        den, num = _integer_row(coeffs)
        b = b.numerator * (scale // b.denominator) * den
        sign = -1 if b < 0 else 1
        row = [sign * c for c in num]
        row += [-c for c in row] + [0] * (total - 2 * n) + [sign * b]
        row[2 * n + i] = sign * den
        basis.append(art_index.get(i, 2 * n + i))
        row[basis[i]] = den
        rows.append(row)
        dens.append(den)

    if art_rows:
        phase1 = [0] * (total + 1)
        for col in art_index.values():
            phase1[col] = -1  # maximise -(sum of artificials)
        status = _simplex(rows, dens, basis, phase1, total)
        assert status == "optimal"  # phase-1 objective is bounded above by 0
        if any(rows[i][total] for i, col in enumerate(basis) if col >= ncols):
            return [LpResult("infeasible")] * len(objectives)
        _drive_out_artificials(rows, dens, basis, ncols)

    results = []
    for objective in objectives:
        # Phase 2 pivots in place, so each objective starts from a copy.
        tab, tdens, tbasis = [list(r) for r in rows], list(dens), list(basis)
        _, num = _integer_row(objective)
        obj = num + [-c for c in num] + [0] * (total + 1 - 2 * n)
        if _simplex(tab, tdens, tbasis, obj, ncols) == "unbounded":
            results.append(LpResult("unbounded"))
            continue
        x = [Fraction(0)] * (2 * n)
        for i, col in enumerate(tbasis):
            if col < 2 * n:
                x[col] = Fraction(tab[i][total], tdens[i] * scale)
        point = tuple(x[j] - x[n + j] for j in range(n))
        value = sum((c * p for c, p in zip(objective, point)), Fraction(0))
        results.append(LpResult("optimal", value, point))
    return results


def _integer_row(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) for L the lcm of the denominators."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return den, [v.numerator * (den // d) for v, d in zip(values, dens)]


def _simplex(rows, dens, basis, obj, ncols) -> str:
    """In-place primal simplex with Bland's rule over the columns < ncols.

    `obj` is a positive multiple of the objective, with a 0 in the
    right-hand-side cell.  It is turned into the reduced-cost row
    c - c_B B^-1 A once, then rides along as the last tableau row so that
    every pivot updates it; only its signs are read.
    """
    m = len(basis)
    red, red_den = list(obj), 1
    for i, col in enumerate(basis):
        if red[col]:
            red_den = _eliminate(red, red_den, rows[i], col,
                                 [j for j, a in enumerate(rows[i]) if a])
    rows.append(red)
    dens.append(red_den)
    while True:
        # Bland: lowest improving index.  Basic columns have red == 0.
        entering = next((j for j in range(ncols) if red[j] > 0), -1)
        if entering < 0:
            status = "optimal"
            break
        # Ratio test on rhs_i / a_i, compared crosswise: dens[i] cancels.
        leaving = -1
        for i in range(m):
            row = rows[i]
            a = row[entering]
            if a > 0:
                if leaving >= 0:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                        continue
                leaving, best_b, best_a = i, row[-1], a
        if leaving < 0:
            status = "unbounded"
            break
        _pivot(rows, dens, basis, leaving, entering)
    rows.pop()
    dens.pop()
    return status


def _pivot(rows, dens, basis, r, c) -> None:
    """Pivot on cell (r, c) in place: row r gets a 1 in column c, and each
    other row with a nonzero in column c loses the multiple that clears it."""
    prow = rows[r]
    if prow[c] < 0:
        prow[:] = [-a for a in prow]
    g = math.gcd(*prow)
    if g != 1:
        prow[:] = [a // g for a in prow]
    dens[r] = prow[c]
    nonzero = [j for j, a in enumerate(prow) if a]
    for i, row in enumerate(rows):
        if row[c] and i != r:
            dens[i] = _eliminate(row, dens[i], prow, c, nonzero)
    basis[r] = c


def _eliminate(row, den, src, c, nonzero) -> int:
    """row / den -= (row[c] / den) * (src / src[c]) in place; returns the
    new denominator.  `nonzero` lists the nonzero cells of `src`."""
    f, p = row[c], src[c]
    if p == 1:
        for j in nonzero:
            row[j] -= f * src[j]
        return den
    row[:] = [a * p - f * b for a, b in zip(row, src)]
    g = math.gcd(den * p, *row)
    if g != 1:
        row[:] = [a // g for a in row]
    return den * p // g


def _drive_out_artificials(rows, dens, basis, ncols) -> None:
    for i in range(len(rows)):
        if basis[i] >= ncols:
            for j in range(ncols):
                if rows[i][j] != 0:
                    _pivot(rows, dens, basis, i, j)
                    break
            # A fully zero structural row is redundant; its artificial stays
            # basic at value zero, which is harmless for phase 2.
