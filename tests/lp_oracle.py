"""Brute-force reference for small linear programs.

Feasibility and the optimum come from enumerating all candidate vertices
(intersections of n constraint hyperplanes) of the system boxed inside
|x_i| <= BOX; the box is far outside every vertex of the instances we
generate, so the boxed polytope is empty iff the original one is.
Unboundedness is decided separately by searching the (bounded) direction
polytope {A d <= 0, -1 <= d_i <= 1} for a direction with c . d > 0.

Each row and its bound are scaled to integers by the lcm of their
denominators.  A candidate vertex comes from fraction-free (Bareiss)
Gauss-Jordan elimination as integer Cramer numerators over the
determinant, and it is tested against every row by cross-multiplying, so
the only `Fraction`s built are the feasible vertices.
"""
import math
from fractions import Fraction
from itertools import combinations

BOX = Fraction(10 ** 6)


def _integer_rows(rows, rhs):
    """[a | b] for each row a . x <= b, times the lcm of its denominators."""
    out = []
    for row, b in zip(rows, rhs):
        cells = [Fraction(c) for c in row] + [Fraction(b)]
        den = math.lcm(*(c.denominator for c in cells))
        out.append([c.numerator * (den // c.denominator) for c in cells])
    return out


def _solve_square(a):
    """Solve the n x n integer system given as augmented rows [A | b].

    Fraction-free Gauss-Jordan: the pivot of step k is the leading
    (k + 1)-minor of the row-permuted A, and each division by the previous
    pivot is exact.  At the end every diagonal cell holds the last pivot,
    D = ±det A, and column n holds D times x (Cramer's rule).  Returns None
    if A is singular, else (det, nums) with det = |D| and
    x_i = nums[i] / det.
    """
    n = len(a)
    a = [list(row) for row in a]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        p = pk[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pk)]
        prev = p
    det = prev
    nums = [row[n] for row in a]
    if det < 0:
        det, nums = -det, [-x for x in nums]
    return det, nums


def _vertices(rows, rhs, num_vars):
    out = []
    irows = _integer_rows(rows, rhs)
    for subset in combinations(irows, num_vars):
        solved = _solve_square(subset)
        if solved is None:
            continue
        det, nums = solved
        if all(sum(c * x for c, x in zip(row, nums)) <= row[-1] * det
               for row in irows):
            out.append([Fraction(x, det) for x in nums])
    return out


def _boxed(rows, rhs, num_vars, bound):
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    for j in range(num_vars):
        unit = [Fraction(0)] * num_vars
        unit[j] = Fraction(1)
        rows.append(list(unit))
        rhs.append(bound)
        rows.append([-x for x in unit])
        rhs.append(bound)
    return rows, rhs


def oracle_solve(num_vars, rows, rhs, objective):
    """Returns ("infeasible",), ("unbounded",) or ("optimal", value)."""
    brows, brhs = _boxed(rows, rhs, num_vars, BOX)
    verts = _vertices(brows, brhs, num_vars)
    if not verts:
        return ("infeasible",)
    drows, drhs = _boxed(rows, [Fraction(0)] * len(rows), num_vars,
                         Fraction(1))
    for d in _vertices(drows, drhs, num_vars):
        if sum(c * x for c, x in zip(objective, d)) > 0:
            return ("unbounded",)
    best = max(sum(c * x for c, x in zip(objective, v)) for v in verts)
    return ("optimal", best)
