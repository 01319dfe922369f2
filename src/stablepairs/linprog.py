"""Exact integer linear programming for convex-hull membership.

Callers pass homogenised integer columns (a weight point's key with the
convexity entry n appended), so x is in the cone of the columns,
sum_k lam_k p_k = x with lam_k >= 0, iff it is in the hull of the points.
This is decided by a phase-1 simplex on a fraction-free integer tableau:
rows are flipped so the right-hand side b is nonnegative, one artificial
column per row (cost 1) starts the basis, and every entry, the reduced-cost
row r included, is ``den`` times its rational value.  A pivot on ``lead``
keeps the pivot row, sets every other row to (lead * row - f * pivot_row)
// den, an exact division, and then den = lead; pivots are positive, so
signs are read off the integers.  Bland's rule: the smallest column with
r_j < 0 enters, and among the rows of least ratio b_i / a_i (compared
cross-multiplied) the one with the smallest basic index leaves.

x is in the cone iff the phase-1 optimum is 0.  Otherwise den times the
prices y = c_B B^-1 of the final basis, read off the artificial columns as
den - r_(n+i) with the row flips undone, is an integer Farkas certificate:
y . b > 0 and y . a_k <= 0 for every column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def hull_membership(
    points: Sequence[Sequence[int]], x: Sequence[int]
) -> Tuple[bool, Optional[List[int]]]:
    """Decide x in cone(points) exactly, for integer vectors.

    Returns (True, None) when feasible, else (False, y) with an integer
    separating functional y satisfying y.x > 0 >= y.p_k for every k.
    """
    n, m = len(points), len(x)
    # row i: sign_i * (a_0[i] ... a_(n-1)[i] | e_i | b_i), flipped so b_i >= 0
    signs = [-1 if v < 0 else 1 for v in x]
    tab = [[s * p[i] for p in points] + [int(k == i) for k in range(m)] + [s * x[i]]
           for i, s in enumerate(signs)]
    # reduced costs of the all-artificial basis, 0 on its own columns; the
    # last entry is -objective
    red = [-sum(col) for col in zip(*tab)]
    red[n:n + m] = [0] * m
    basis = list(range(n, n + m))
    den = 1

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0 and (leave is None
                          or (row[-1] * best_a, basis[i]) < (best_b * a, basis[leave])):
                best_b, best_a, leave = row[-1], a, i
        if leave is None:
            raise ArithmeticError("phase-1 LP unbounded; cannot happen")
        prow = tab[leave]
        lead = prow[enter]
        for row in tab + [red]:
            if row is not prow:
                f = row[enter]
                row[:] = [(lead * a - f * p) // den for a, p in zip(row, prow)]
        den = lead
        basis[leave] = enter

    if red[-1] == 0:
        return True, None
    return False, [s * (den - red[n + i]) for i, s in enumerate(signs)]
