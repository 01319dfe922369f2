"""Orbit distances and the finite-dimensional energy formulas.

Distance convention: this module always reports log tan^2 (squared norms),

    log_tan_sq_dist_p(sigma) = log ||sigma.Delta^deg(R)||_p^2
                             - log ||sigma.R^deg(Delta)||_p^2,

with both components unit-normalized in ||.||_p; the single-log-tan variant
of the asymptotic definitions is half of this, and the asymptotic report
exposes both normalizations.  Powers of R and Delta are never expanded:
every formula is additive in the logs of the base forms.

Energy formulas (n = dim X, d = deg X, curves have n = 1):

    d^2 (n+1) nu(phi_sigma) = deg(R) log(||sigma.Delta||_0^2 / ||Delta||_0^2)
                            - deg(Delta) log(||sigma.R||_0^2 / ||R||_0^2)

    -deg(R) F0(phi_sigma) = log ||sigma.R||_0            (R unit Mahler norm)

and the coercivity expression couples the tensored pair

    (v, w) = (I^q (x) R^((km-1) deg Delta), Delta^(km deg R)),
    q = deg(R) deg(Delta)

through the Hilbert-Schmidt norm of sigma on the identity factor:

    value = k^-(2n+1)/(n+1) * [ km degR log||sigma.Delta||_0^2
            - q log||sigma||_HS^2 - (km-1) degDelta log||sigma.R||_0^2 ].

All Mahler quantities are common-random-number Monte-Carlo ratios with
propagated standard errors.  Every X-pair quantity, the descent objective
``xpair_functional`` included, samples R on ``seed`` and Delta on ``seed + 1``
(``norms.MahlerSampleFunctional``, re-exported here).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionError
from .forms import XPair
from .norms import MahlerSampleFunctional, log_ratio_sq
from .pairs import DescentOptions, PairFunctional, StabilityCertificate, _sigma_np, descend


def _log_ratios(sig: np.ndarray, xp: XPair, p: float, samples: int, seed: int) -> tuple:
    """(dr, err_r, dd, err_d): ``log_ratio_sq`` of R on seed and of Delta on seed + 1."""
    return (*log_ratio_sq(xp.resultant, sig, p, samples=samples, seed=seed),
            *log_ratio_sq(xp.hyperdiscriminant, sig, p, samples=samples, seed=seed + 1))


def log_tan_dist_p(sigma, xp: XPair, p: float = 0.0, samples: int = 200_000,
                   seed: int = 0) -> dict:
    """log tan^2 distance at sigma between the pair point and the R-point."""
    xp.require_delta()
    dr, err_r, dd, err_d = _log_ratios(_sigma_np(sigma, xp.N + 1), xp, p, samples, seed)
    value = xp.deg_r * dd - xp.deg_delta * dr
    stderr = xp.deg_r * err_d + xp.deg_delta * err_r
    return {
        "log_tan_sq_dist": value,
        "stderr": stderr,
        "p": p,
        "components": {"delta_ratio_sq": dd, "r_ratio_sq": dr},
    }


def k_energy_algebraic(sigma, xp: XPair, samples: int = 200_000, seed: int = 0) -> dict:
    """nu(phi_sigma) from the Mahler-norm identity, divided by d^2 (n+1)."""
    base = log_tan_dist_p(sigma, xp, 0.0, samples=samples, seed=seed)
    scale = xp.d**2 * (xp.n + 1)
    return {
        "k_energy": base["log_tan_sq_dist"] / scale,
        "stderr": base["stderr"] / scale,
        "scale": scale,
        "components": base["components"],
    }


def aubin_f0_algebraic(sigma, xp: XPair, samples: int = 200_000, seed: int = 0) -> dict:
    """F0(phi_sigma) = -log ||sigma . R||_0^2 / deg R, with R unit-normalized.

    Squared-norm convention throughout this module: the quadrature oracle
    pins the Phillipon-Soule identity to the square of the Mahler norm
    (the single-bar variant is off by exactly the module's declared
    log tan vs log tan^2 factor).
    """
    sig = _sigma_np(sigma, xp.N + 1)
    dr, err = log_ratio_sq(xp.resultant, sig, 0.0, samples=samples, seed=seed)
    return {
        "aubin_f0": -dr / xp.deg_r,
        "stderr": err / xp.deg_r,
        "log_r_ratio_sq": dr,
    }


def coercivity_value(sigma, xp: XPair, m: int, k: int = 1,
                     samples: int = 200_000, seed: int = 0) -> dict:
    """Right side of the coercive estimate for the k-th tensored pair.

    Additive in log space; the identity factor contributes
    q log ||sigma||_HS^2 with q = deg(R) deg(Delta).
    """
    xp.require_delta()
    if m < 1 or k < 1:
        raise PreconditionError("need m >= 1 and k >= 1")
    sig = _sigma_np(sigma, xp.N + 1)
    dr, err_r, dd, err_d = _log_ratios(sig, xp, 0.0, samples, seed)
    q = xp.deg_r * xp.deg_delta
    hs2 = float(np.vdot(sig, sig).real)
    log_w_sq = k * m * xp.deg_r * dd
    log_v_sq = q * math.log(hs2) + (k * m - 1) * xp.deg_delta * dr
    prefactor = k ** (-(2 * xp.n + 1)) / (xp.n + 1)
    value = prefactor * (log_w_sq - log_v_sq)
    stderr = prefactor * (k * m * xp.deg_r * err_d + (k * m - 1) * xp.deg_delta * err_r)
    return {
        "coercivity": value,
        "stderr": stderr,
        "q": q,
        "m": m,
        "k": k,
        "prefactor": prefactor,
        "log_w_sq": log_w_sq,
        "log_v_sq": log_v_sq,
        "hilbert_schmidt_sq": hs2,
    }


# ---------------------------------------------------------------------------
# descent over the group at index p
# ---------------------------------------------------------------------------


def xpair_functional(xp: XPair, p: float = 0.0, samples: int = 20_000,
                     seed: int = 0) -> PairFunctional:
    """Descent objective deg(R) log||sigma.Delta||_p^2 - deg(Delta) log||sigma.R||_p^2."""
    xp.require_delta()
    n = xp.N + 1
    return PairFunctional(
        [(xp.deg_r, xp.hyperdiscriminant), (-xp.deg_delta, xp.resultant)],
        n,
        [MahlerSampleFunctional(xp.hyperdiscriminant, p, samples, seed + 1),
         MahlerSampleFunctional(xp.resultant, p, samples, seed)],
    )


def orbit_distance(xp: XPair, p: float = 0.0, opts: Optional[DescentOptions] = None,
                   samples: int = 20_000) -> StabilityCertificate:
    """Descent estimate of the orbit-closure log tan^2 distance at index p."""
    opts = opts or DescentOptions()
    func = xpair_functional(xp, p, samples=samples, seed=opts.seed)
    cert = descend(func, opts)
    cert.diagnostics["p"] = p
    cert.diagnostics["mc_samples"] = samples
    cert.diagnostics["convention"] = "log tan^2"
    return cert


def asymptotic_report(entries: Sequence[Tuple[int, XPair]], p: float = 0.0,
                      opts: Optional[DescentOptions] = None,
                      samples: int = 20_000) -> dict:
    """Observational table of -log tan^2 dist against the k-power scalings.

    No verdict is attached: the definitions compare against C k^(2n)
    (semistability) and C k^(2n+1) (stability); the rows also expose the
    degree-based normalization d^2 = k^(2n) for curves embedded by degree.
    """
    if not entries:
        raise PreconditionError("need at least one (k, XPair) entry")
    rows: List[dict] = []
    for k, xp in entries:
        cert = orbit_distance(xp, p, opts=opts, samples=samples)
        est = cert.inf_estimate
        # null, not NaN, when descent gave no finite infimum estimate
        neg = -est if est is not None and math.isfinite(est) else None

        def per(scale):
            return None if neg is None else neg / scale

        rows.append(
            {
                "k": k,
                "d": xp.d,
                "neg_log_tan_sq_dist": neg,
                "per_k2n": per(k ** (2 * xp.n)),
                "per_k2n_plus_1": per(k ** (2 * xp.n + 1)),
                "per_d2": per(xp.d**2),
                "verdict": cert.verdict,
            }
        )
    return {
        "p": p,
        "convention": "log tan^2; single-log-tan values are half of these",
        "rows": rows,
        "note": "observational only; no stability verdict is implied",
    }
