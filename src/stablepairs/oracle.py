"""Independent differential-geometric oracle for rational curves.

Everything here is computed from the parametrization gamma alone, by
quadrature over P^1, never from resultants, hyperdiscriminants, or Mahler
measures, so it can sit on the other side of the energy identities from the
algebraic formulas.

Conventions (unit-volume normalization of the ambient Fubini-Study class):

    omega = (sqrt(-1)/2pi) ddbar log |A gamma(zeta)|^2,

so the local metric coefficient is g = d^2/(dzeta dzetabar) of the potential
and (1,1)-forms integrate as (1/pi) g dx dy.  For a holomorphic immersion
v(zeta) the pullback metric is g = |v ^ v'|^2 / |v|^4, the wedge curve
w = v ^ v' is again holomorphic, and the Gauss-curvature identity

    Scal = 2 - g_w / g,   g_w = FS pullback through [w(zeta)]

turns fourth derivatives of the potential into exact evaluations of
polynomial data (no finite differencing).  Degree bookkeeping follows:
integral of g is d, integral of g_w is 2d - 2, so Scal integrates to 2 and
the average scalar curvature is mu = 2/d.

The K-energy is integrated along the Bergman path sigma_t = exp(t H) with
sigma = u exp(H) the polar decomposition (the unitary factor drops out of
every potential), Gauss-Legendre in t.  H = U diag(lam) U^* is diagonalised
once per grid; with y = U^* gamma and y~ = (/\\^2 U)^* w, whose coordinates
scale by exp(t lam2_a) for the pair sums lam2_a = lam_i + lam_j (i < j),

    |v_t|^2        = sum_k exp(2t lam_k) |y_k|^2,
    <H v_t, v_t>   = sum_k lam_k exp(2t lam_k) |y_k|^2,
    |w_t|^2        = sum_a exp(2t lam2_a) |y~_a|^2,
    |w_t'|^2       = sum_a exp(2t lam2_a) |y~'_a|^2,
    <w_t', w_t>    = sum_a exp(2t lam2_a) y~'_a conj(y~_a),
    |w_t ^ w_t'|^2 = |w_t|^2 |w_t'|^2 - |<w_t', w_t>|^2      (Lagrange),

so the t-independent weights are a few rows per coordinate of v and of w,
never one row per pair of wedge coordinates.  Each t-node (t = 0 for V and
mu, t = 1 for phi_sigma, J and F0, and the Gauss-Legendre nodes) costs a
few matrix-vector products.  Every result is formed from sums over the grid
points: V, the mu numerator, J, the F0 log term, and per t-node the
integrals of phidot g_t, phidot g_w,t and g_w,t.  nu = -(1/V) sum_t w_t
[(2 - mu) int phidot g_t - int phidot g_w,t] is linear in them, so a grid
is reduced over chunks of POINT_CHUNK points in one pass, and its memory
stays bounded whatever its size.

Every t-node also yields the integral of g_w,t, which equals 2d - 2
exactly; the largest deviation over the t-nodes is reported per grid as
`gauss_bonnet_drift`.  It tracks the error of nu on under-resolved
curvature, so it is a stopping condition of the refinement alongside the
agreement of successive grids.

P^1 is tiled exactly by the closed unit disks of the two standard charts;
each disk carries a Gauss-Legendre (radius) x trapezoid (angle) polar grid,
started coarse and refined until successive grids agree and the drift is
small, within a budget of grid points (`curve_geometry_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import List

import numpy as np

from .errors import NonConvergenceError, PreconditionError
from .forms import RationalCurve
from .poly import binary_coeffs
from .scalars import scalar_to_complex


@dataclass
class CurveGeometryReport:
    """Quadrature results for one (curve, sigma): all finite, V > 0."""

    volume: float
    mu: float
    k_energy: float
    aubin_j: float
    aubin_f0: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "volume": self.volume,
            "mu": self.mu,
            "k_energy": self.k_energy,
            "aubin_j": self.aubin_j,
            "aubin_f0": self.aubin_f0,
            "diagnostics": self.diagnostics,
        }


def _chart_coeff_arrays(curve: RationalCurve) -> List[np.ndarray]:
    """Per chart: (N+1, d+1) complex coefficient matrix, ascending powers.

    Chart 0 is zeta = t at s = 1; chart 1 is eta = s at t = 1.
    """
    d = curve.d
    out = []
    for chart in (0, 1):
        rows = []
        for gm in curve.gamma:
            desc = [scalar_to_complex(c) for c in binary_coeffs(gm)]
            # desc[i] multiplies s^(d-i) t^i
            if chart == 0:
                asc = desc  # coefficient of t^i is desc[i]
            else:
                asc = desc[::-1]  # coefficient of s^(d-i): ascending in s
            rows.append(np.array(asc, dtype=np.complex128))
        out.append(np.vstack(rows))
    return out


def _polyder_rows(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[1]
    if n <= 1:
        return np.zeros((coeffs.shape[0], 1), dtype=np.complex128)
    return coeffs[:, 1:] * np.arange(1, n)


def _wedge_coeff_rows(z: np.ndarray) -> np.ndarray:
    """Coefficients of w_(i,j) = z_i z_j' - z_j z_i' for i < j."""
    zp = _polyder_rows(z)
    return np.array([np.convolve(z[i], zp[j]) - np.convolve(z[j], zp[i])
                     for i, j in combinations(range(z.shape[0]), 2)])


def wedge_square_matrix(A: np.ndarray) -> np.ndarray:
    """Matrix of /\\^2 A on the ordered basis e_i ^ e_j, i < j."""
    k, l = np.triu_indices(A.shape[0], 1)
    return A[np.ix_(k, k)] * A[np.ix_(l, l)] - A[np.ix_(k, l)] * A[np.ix_(l, k)]


class _CurveCharts:
    """Precomputed holomorphic data of gamma and its wedge on both charts."""

    def __init__(self, curve: RationalCurve):
        self.curve = curve
        self.z_coeffs = _chart_coeff_arrays(curve)
        self.zp_coeffs = [_polyder_rows(c) for c in self.z_coeffs]
        self.w_coeffs = [_wedge_coeff_rows(c) for c in self.z_coeffs]
        self.wp_coeffs = [_polyder_rows(c) for c in self.w_coeffs]

    def grids(self, n: int):
        """n x n polar grid of the closed unit disk (n radii, n angles) with
        (1/pi) dx dy weights."""
        nodes, wts = np.polynomial.legendre.leggauss(n)
        r = 0.5 * (nodes + 1.0)
        wr = 0.5 * wts
        th = 2.0 * math.pi * np.arange(n) / n
        pts = np.outer(r, np.exp(1j * th)).ravel()
        W = (np.outer(wr * r, np.full(n, 2.0 / n))).ravel()
        return pts, W

    def chart_values(self, pts: np.ndarray, A: np.ndarray):
        """(A gamma, A gamma', /\\^2 A w, /\\^2 A w') at pts, chart 0 then chart 1.

        Each is (rows, 2 * npts), one column per point; one power table
        serves both charts.
        """
        A2 = wedge_square_matrix(A)
        powers = np.vander(pts, max(c.shape[1] for c in self.w_coeffs), increasing=True).T
        return tuple(
            np.hstack([M @ c @ powers[: c.shape[1]] for c in per_chart])
            for M, per_chart in ((A, self.z_coeffs), (A, self.zp_coeffs),
                                 (A2, self.w_coeffs), (A2, self.wp_coeffs))
        )


def _chunk_sums(charts: _CurveCharts, Uh: np.ndarray, lam: np.ndarray, lam2: np.ndarray,
                pts: np.ndarray, W: np.ndarray, t_nodes: np.ndarray) -> np.ndarray:
    """The sums over one chunk of grid points behind one grid's results.

    In order: V, the mu numerator int (2 g - g_w), 2 V J = int |dphi|^2, the
    F0 log term int log(|v_1|^2 / |v_0|^2) g, and per t-node int phidot g_t,
    int phidot g_w,t and int g_w,t.
    """
    Wq = np.tile(W, 2)
    y, yp, wy, wyp = charts.chart_values(pts, Uh)
    v_wt = np.abs(y) ** 2
    cross_wt = yp * y.conj()
    w_wt = np.abs(wy) ** 2
    wp_wt = np.abs(wyp) ** 2
    wcross_wt = wyp * wy.conj()

    def at(t: float):
        """(|v_t|^2, g_t, g_w,t, phidot_t) at every point, v_t = exp(tH) gamma."""
        ev = np.exp(2.0 * t * lam)
        v2 = ev @ v_wt
        ew = np.exp(2.0 * t * lam2)
        w2 = ew @ w_wt
        # |w_t ^ w_t'|^2 = |w_t|^2 |w_t'|^2 - |<w_t', w_t>|^2 (Lagrange)
        g_w = (w2 * (ew @ wp_wt) - np.abs(ew @ wcross_wt) ** 2) / w2**2
        return v2, w2 / v2**2, g_w, 2.0 * ((lam * ev) @ v_wt) / v2

    v2_ref, g_ref, g_w_ref, _ = at(0.0)
    # phi_sigma and the Aubin functionals see sigma only through
    # sigma^* sigma = exp(2H), so they are the t = 1 values
    v2_s = at(1.0)[0]
    dphi = (np.exp(2.0 * lam) @ cross_wt) / v2_s - cross_wt.sum(axis=0) / v2_ref
    sums = [g_ref @ Wq, (2.0 * g_ref - g_w_ref) @ Wq, np.abs(dphi) ** 2 @ Wq,
            (np.log(v2_s) - np.log(v2_ref)) * g_ref @ Wq]
    per_t = np.empty((3, t_nodes.size))
    for k, tv in enumerate(t_nodes):
        _, g_t, g_w_t, phidot = at(tv)
        per_t[:, k] = (phidot * g_t) @ Wq, (phidot * g_w_t) @ Wq, g_w_t @ Wq
    return np.concatenate([sums, per_t.ravel()])


# grid points per chunk of the point sums: bounds the per-point tables, so
# one grid's memory does not grow with its size
POINT_CHUNK = 4_096


def _run_grid(charts: _CurveCharts, sigma: np.ndarray, n: int, t_nodes: int) -> dict:
    pts, W = charts.grids(n)

    # sigma = u exp(H) with H = U diag(lam) U^*; in the eigenbasis every
    # squared norm along exp(tH) is a sum of exponentials in t (module doc).
    # lam2 lists the pairs i < j in the order of wedge_square_matrix
    vals, U = np.linalg.eigh(sigma.conj().T @ sigma)
    lam = 0.5 * np.log(vals)
    i, j = np.triu_indices(lam.size, 1)
    lam2 = lam[i] + lam[j]
    Uh = U.conj().T
    tn, tw = np.polynomial.legendre.leggauss(t_nodes)
    tn, tw = 0.5 * (tn + 1.0), 0.5 * tw
    sums = sum(_chunk_sums(charts, Uh, lam, lam2, pts[lo:lo + POINT_CHUNK],
                           W[lo:lo + POINT_CHUNK], tn)
               for lo in range(0, pts.size, POINT_CHUNK))
    V, mu_num, j2v, log_term = (float(x) for x in sums[:4])
    phidot_g, phidot_gw, gw = sums[4:].reshape(3, t_nodes)
    mu = mu_num / V
    J = j2v / (2.0 * V)
    F0 = J - log_term / V
    # K-energy along exp(tH), Gauss-Legendre in t, linear in the per-node
    # sums; and the Gauss-Bonnet sentinel: g_w,t integrates to 2d - 2 at every t
    nu = -float(tw @ ((2.0 - mu) * phidot_g - phidot_gw)) / V
    drift = float(np.max(np.abs(gw - (2 * charts.curve.d - 2))))
    return {"V": V, "mu": mu, "J": J, "F0": F0, "nu": nu, "gauss_bonnet_drift": drift}


# Gauss-Legendre nodes in t; the agreement required of successive grids,
# which also bounds the newer grid's Gauss-Bonnet drift; and the most grid
# points, summed n^2 over the n x n grids run, that one call may spend.
# The budget covers 96^2 + 144^2 + 216^2 and the 24^2 ... 271^2 schedule
# (132 192 points) of a twisted-cubic sigma of condition number 117.
T_NODES = 33
REFINE_TOL = 1e-3
GRID_POINT_BUDGET = 200_000


def curve_geometry_oracle(sigma, curve: RationalCurve, grid: int = 24) -> CurveGeometryReport:
    """Quadrature evaluation of V, mu, J, F0 and the K-energy of phi_sigma.

    Starts on a grid x grid polar grid per chart and refines it by 3/2
    until two conditions hold: successive grids agree to REFINE_TOL in V,
    mu, J, F0 and nu, and the newer grid's `gauss_bonnet_drift` is at most
    REFINE_TOL.  The newer grid is reported.  A grid is run only while the
    points spent, summed n^2 over the n x n grids run, stay within
    GRID_POINT_BUDGET.  Each grid's diagnostics record n as `n_r` (radii)
    and `n_th` (angles).  Running out of budget, or a grid with a non-finite
    entry (an overflowing sigma), raises NonConvergenceError at once with
    every grid run so far in its diagnostics.
    """
    sigma = np.asarray(sigma, dtype=np.complex128)
    if sigma.shape != (curve.N + 1, curve.N + 1):
        raise PreconditionError("sigma must be (N+1) x (N+1)")
    charts = _CurveCharts(curve)
    history: List[dict] = []
    spent = 0
    while spent + grid * grid <= GRID_POINT_BUDGET:
        spent += grid * grid
        # an overflowing sigma shows as non-finite entries, reported below
        with np.errstate(all="ignore"):
            cur = _run_grid(charts, sigma, grid, T_NODES)
        history.append(dict(cur, n_r=grid, n_th=grid))
        if not all(math.isfinite(v) for v in cur.values()):
            raise NonConvergenceError(
                f"non-finite quadrature on the {grid}x{grid} grid",
                diagnostics={"grids": history, "t_nodes": T_NODES},
            )
        if len(history) > 1:
            diff = max(abs(cur[k] - history[-2][k]) for k in ("V", "mu", "J", "F0", "nu"))
            if diff < REFINE_TOL and cur["gauss_bonnet_drift"] <= REFINE_TOL:
                return CurveGeometryReport(
                    volume=cur["V"],
                    mu=cur["mu"],
                    k_energy=cur["nu"],
                    aubin_j=cur["J"],
                    aubin_f0=cur["F0"],
                    diagnostics={"grids": history, "refinement_diff": diff, "t_nodes": T_NODES},
                )
        grid = (3 * grid) // 2
    raise NonConvergenceError(
        f"quadrature did not stabilize to {REFINE_TOL} within {GRID_POINT_BUDGET} grid "
        "points; grids: " + ", ".join(f"({h['n_r']}x{h['n_th']})" for h in history),
        diagnostics={"grids": history, "t_nodes": T_NODES},
    )
