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
every potential), Gauss-Legendre in t.  P^1 is tiled exactly by the closed
unit disks of the two standard charts; each disk carries a Gauss-Legendre
(radius) x trapezoid (angle) polar grid, refined until successive grids
agree to tolerance.
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


def _polymul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[0] + b.shape[0] - 1, dtype=np.complex128)
    for i, ai in enumerate(a):
        out[i : i + b.shape[0]] += ai * b
    return out


def _wedge_coeff_rows(z: np.ndarray) -> np.ndarray:
    """Coefficients of w_(i,j) = z_i z_j' - z_j z_i' for i < j."""
    zp = _polyder_rows(z)
    rows = []
    for i, j in combinations(range(z.shape[0]), 2):
        rows.append(_polymul_rows(z[i], zp[j]) - _polymul_rows(z[j], zp[i]))
    width = max(r.shape[0] for r in rows)
    out = np.zeros((len(rows), width), dtype=np.complex128)
    for k, r in enumerate(rows):
        out[k, : r.shape[0]] = r
    return out


def _eval_rows(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate each coefficient row at all points: (npts, nrows)."""
    powers = pts[:, None] ** np.arange(coeffs.shape[1])[None, :]
    return powers @ coeffs.T


def wedge_square_matrix(A: np.ndarray) -> np.ndarray:
    """Matrix of /\\^2 A on the ordered basis e_i ^ e_j, i < j."""
    n = A.shape[0]
    pairs = list(combinations(range(n), 2))
    out = np.empty((len(pairs), len(pairs)), dtype=np.complex128)
    for r, (k, l) in enumerate(pairs):
        for c, (i, j) in enumerate(pairs):
            out[r, c] = A[k, i] * A[l, j] - A[k, j] * A[l, i]
    return out


class _CurveCharts:
    """Precomputed holomorphic data of gamma and its wedge on both charts."""

    def __init__(self, curve: RationalCurve):
        self.curve = curve
        self.z_coeffs = _chart_coeff_arrays(curve)
        self.zp_coeffs = [_polyder_rows(c) for c in self.z_coeffs]
        self.w_coeffs = [_wedge_coeff_rows(c) for c in self.z_coeffs]
        self.wp_coeffs = [_polyder_rows(c) for c in self.w_coeffs]

    def grids(self, n_r: int, n_th: int):
        """Polar grid of the closed unit disk with (1/pi) dx dy weights."""
        nodes, wts = np.polynomial.legendre.leggauss(n_r)
        r = 0.5 * (nodes + 1.0)
        wr = 0.5 * wts
        th = 2.0 * math.pi * np.arange(n_th) / n_th
        R, TH = np.meshgrid(r, th, indexing="ij")
        pts = (R * np.exp(1j * TH)).ravel()
        W = (np.outer(wr * r, np.full(n_th, 2.0 / n_th))).ravel()
        return pts, W

    def chart_values(self, chart: int, pts: np.ndarray):
        Z = _eval_rows(self.z_coeffs[chart], pts)
        Zp = _eval_rows(self.zp_coeffs[chart], pts)
        Wz = _eval_rows(self.w_coeffs[chart], pts)
        Wzp = _eval_rows(self.wp_coeffs[chart], pts)
        return Z, Zp, Wz, Wzp


def _fs_pullback(v: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """(|v|^2 |v'|^2 - |<v', v>|^2) / |v|^4 rowwise."""
    n2 = np.sum(np.abs(v) ** 2, axis=1)
    np2 = np.sum(np.abs(vp) ** 2, axis=1)
    cross = np.abs(np.sum(vp * np.conj(v), axis=1)) ** 2
    return (n2 * np2 - cross) / n2**2


def _geometry_arrays(charts: _CurveCharts, A: np.ndarray, chart_data, W2: np.ndarray):
    """(g, g_w, |v|^2, v, vp) for the transformed curve on one chart grid."""
    Z, Zp, Wz, Wzp = chart_data
    v = Z @ A.T
    vp = Zp @ A.T
    w = Wz @ W2.T
    wp = Wzp @ W2.T
    v2 = np.sum(np.abs(v) ** 2, axis=1)
    w2 = np.sum(np.abs(w) ** 2, axis=1)
    g = w2 / v2**2
    g_w = _fs_pullback(w, wp)
    return g, g_w, v2, v, vp


def _polar_hermitian_log(sigma: np.ndarray) -> np.ndarray:
    """H with sigma = (unitary) exp(H): H = (1/2) log(sigma^* sigma)."""
    sts = sigma.conj().T @ sigma
    vals, vecs = np.linalg.eigh(sts)
    return (vecs * (0.5 * np.log(vals.real))) @ vecs.conj().T


def _hermitian_exp(H: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(t * vals.real)) @ vecs.conj().T


def _run_grid(charts: _CurveCharts, sigma: np.ndarray, n_r: int, n_th: int,
              t_nodes: int) -> dict:
    curve = charts.curve
    pts, Wq = charts.grids(n_r, n_th)
    data = [charts.chart_values(c, pts) for c in (0, 1)]
    eye = np.eye(curve.N + 1, dtype=np.complex128)
    W2_eye = wedge_square_matrix(eye)

    # reference geometry: V, mu
    V = 0.0
    total_scal = 0.0
    ref = []
    for chart in (0, 1):
        g, g_w, v2, _, _ = _geometry_arrays(charts, eye, data[chart], W2_eye)
        V += float(np.dot(g, Wq))
        total_scal += float(np.dot(2.0 * g - g_w, Wq))
        ref.append((g, v2))
    mu = total_scal / V

    # potential phi_sigma and the Aubin functionals
    W2_sigma = wedge_square_matrix(sigma)
    J = 0.0
    phi_mass = 0.0
    for chart in (0, 1):
        g_ref, v2_ref = ref[chart]
        _, _, v2_s, v_s, vp_s = _geometry_arrays(charts, sigma, data[chart], W2_sigma)
        Z, Zp, _, _ = data[chart]
        phi = np.log(v2_s) - np.log(v2_ref)
        dphi = (
            np.sum(vp_s * np.conj(v_s), axis=1) / v2_s
            - np.sum(Zp * np.conj(Z), axis=1) / v2_ref
        )
        J += float(np.dot(np.abs(dphi) ** 2, Wq))
        phi_mass += float(np.dot(phi * g_ref, Wq))
    J = J / (2.0 * V)
    F0 = J - phi_mass / V

    # K-energy along exp(tH), Gauss-Legendre in t
    H = _polar_hermitian_log(sigma)
    tn, tw = np.polynomial.legendre.leggauss(t_nodes)
    tvals = 0.5 * (tn + 1.0)
    twts = 0.5 * tw
    nu = 0.0
    for tv, wt in zip(tvals, twts):
        At = _hermitian_exp(H, tv)
        W2t = wedge_square_matrix(At)
        inner = 0.0
        for chart in (0, 1):
            g_t, g_w_t, v2_t, v_t, _ = _geometry_arrays(charts, At, data[chart], W2t)
            scal_t = 2.0 - g_w_t / g_t
            hv = v_t @ H.T  # row convention: (H v)^T = v^T H^T
            phidot = 2.0 * np.real(np.sum(hv * np.conj(v_t), axis=1)) / v2_t
            inner += float(np.dot(phidot * (scal_t - mu) * g_t, Wq))
        nu += wt * inner
    nu = -nu / V

    return {"V": V, "mu": mu, "J": J, "F0": F0, "nu": nu}


def curve_geometry_oracle(
    sigma,
    curve: RationalCurve,
    n_r: int = 96,
    n_th: int = 96,
    t_nodes: int = 33,
    tol: float = 1e-3,
    max_refine: int = 2,
) -> CurveGeometryReport:
    """Quadrature evaluation of V, mu, J, F0 and the K-energy of phi_sigma.

    Successive grid refinements must agree to `tol` in every entry; failure
    raises NonConvergenceError with the grid diagnostics attached.
    """
    sigma = np.asarray(sigma, dtype=np.complex128)
    if sigma.shape != (curve.N + 1, curve.N + 1):
        raise PreconditionError("sigma must be (N+1) x (N+1)")
    charts = _CurveCharts(curve)
    prev = _run_grid(charts, sigma, n_r, n_th, t_nodes)
    history = [dict(prev, n_r=n_r, n_th=n_th)]
    for _ in range(max_refine):
        n_r = (3 * n_r) // 2
        n_th = (3 * n_th) // 2
        cur = _run_grid(charts, sigma, n_r, n_th, t_nodes)
        history.append(dict(cur, n_r=n_r, n_th=n_th))
        diff = max(abs(cur[k] - prev[k]) for k in ("V", "mu", "J", "F0", "nu"))
        if diff < tol:
            return CurveGeometryReport(
                volume=cur["V"],
                mu=cur["mu"],
                k_energy=cur["nu"],
                aubin_j=cur["J"],
                aubin_f0=cur["F0"],
                diagnostics={"grids": history, "refinement_diff": diff, "t_nodes": t_nodes},
            )
        prev = cur
    raise NonConvergenceError(
        f"quadrature did not stabilize to {tol}; grids: "
        + ", ".join(f"({h['n_r']}x{h['n_th']})" for h in history)
    )
