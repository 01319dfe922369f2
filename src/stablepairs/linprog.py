"""Exact rational linear programming for convex-hull membership.

Membership of a point x in the convex hull of a finite set is the
feasibility of

    sum_k  lam_k * p_k = x,   sum_k lam_k = 1,   lam_k >= 0.

This is decided by a phase-1 simplex on a Fraction tableau.  Rows are
flipped so the right-hand side b is nonnegative, and one artificial column
per row starts the basis; the phase-1 cost is 1 on each artificial column.
Every pivot updates the tableau and its reduced-cost row r in place, with
Bland's rule: the smallest column with r_j < 0 enters, and among the rows
of least ratio the one with the smallest basic index leaves.

x is in the hull iff the phase-1 optimum is 0.  Otherwise the prices
y = c_B B^-1 of the final basis are a Farkas certificate, read off the
artificial columns as y_i = 1 - r_(n+i) (and the row flips undone): then
y . b > 0 and y . a_k <= 0 for every column, which separates x from the hull.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Vec = List[Fraction]


def hull_membership(
    points: Sequence[Sequence[Fraction]], x: Sequence[Fraction]
) -> Tuple[bool, Optional[Vec]]:
    """Decide x in conv(points) exactly.

    Returns (True, None) when feasible, else (False, y) with a rational
    separating functional y satisfying y.x > max_k y.p_k (strictly).
    """
    one, zero = Fraction(1), Fraction(0)
    cols = [list(p) + [one] for p in points]
    b = list(x) + [one]
    n, m = len(cols), len(b)
    # row i: sign_i * (a_0[i] ... a_(n-1)[i] | e_i | b_i), flipped so b_i >= 0
    signs = [-1 if v < 0 else 1 for v in b]
    tab = [[s * c[i] for c in cols] + [one if k == i else zero for k in range(m)] + [s * b[i]]
           for i, s in enumerate(signs)]
    # reduced costs of the all-artificial basis; the last entry is -objective
    red = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        red[n + i] += one
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("phase-1 LP unbounded; cannot happen")
        prow = tab[leave]
        lead = prow[enter]
        prow[:] = [a / lead for a in prow]
        for row in tab + [red]:
            f = row[enter]
            if row is not prow and f != 0:
                row[:] = [a - f * p for a, p in zip(row, prow)]
        basis[leave] = enter

    if red[-1] == 0:
        return True, None
    return False, [s * (one - red[n + i]) for i, s in enumerate(signs)]
