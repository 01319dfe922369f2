"""Hot numeric kernel: batched sparse-polynomial evaluation.

Only ``norms`` calls this module.  Its ``MahlerSampleFunctional`` -- the
one sample set behind the Monte-Carlo Mahler and L^p estimates and the
X-pair descent objective -- spends nearly all its time evaluating one
sparse polynomial on 1e4..1e6 complex sample points; the sup-norm ascent
and ``fs_pointwise`` evaluate it at single points.  (The curve quadrature
oracle evaluates its charts by itself and never calls it.)

One algorithm, a power table.  For a chunk of sample rows, every variable
that some term uses is raised to the powers 0..M (M the largest exponent)
by repeated multiplication; each term's monomial is the product over those
variables of the power table gathered at the term's exponents, and the
values are the monomials times the coefficients.  Products of powers are
exact at zero (0^0 = 1, 0^e = 0), so no logarithm and no floor enters the
values; only ``poly_log_abs`` floors log |P| where P vanishes.
"""

from __future__ import annotations

import numpy as np

# rows per chunk: keeps the gathered (terms x variables x rows) table in cache
_CHUNK = 1024
_LOG_FLOOR = -745.0  # log of the smallest positive double


def backend_name() -> str:
    """Name of the evaluation algorithm, recorded in run provenance."""
    return "numpy-power-table"


def poly_values(expo: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """P(z) for every sample row z, with P = sum coeffs * z^expo."""
    expo = np.asarray(expo, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    used = np.flatnonzero(expo.max(axis=0, initial=0))
    E = expo[:, used]
    top = int(E.max(initial=0))
    var = np.arange(used.size)
    Zt = Z.T[used]  # (used variables, rows), one contiguous copy
    S = Z.shape[0]
    out = np.empty(S, np.complex128)
    for lo in range(0, S, _CHUNK):
        hi = min(lo + _CHUNK, S)
        pows = np.empty((top + 1, used.size, hi - lo), np.complex128)
        pows[0] = 1.0
        for e in range(1, top + 1):
            np.multiply(pows[e - 1], Zt[:, lo:hi], out=pows[e])
        out[lo:hi] = coeffs @ pows[E, var].prod(axis=1)
    return out


def poly_log_abs(expo: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """log |P(z)| per sample, floored at the smallest representable double."""
    vals = poly_values(expo, coeffs, Z)
    mag = np.abs(vals)
    return np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), _LOG_FLOOR)
