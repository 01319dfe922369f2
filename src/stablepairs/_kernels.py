"""Hot numeric kernel: batched sparse-polynomial evaluation.

Only ``norms`` calls this module.  Its ``MahlerSampleFunctional`` -- the
one sample set behind the Monte-Carlo Mahler and L^p estimates and the
X-pair descent objective -- spends nearly all its time evaluating one
sparse polynomial on 1e4..1e6 complex sample points; the descent's moment
needs P and all its first partials on the same points, and the sup-norm
ascent needs them at one point per objective evaluation.  (The curve
quadrature oracle evaluates its charts by itself and never calls it.)

One algorithm, a power table.  For a chunk of sample rows, every variable
that some monomial uses is raised to the powers 0..M (M the largest
exponent) by repeated multiplication; each monomial is the product over
those variables, one variable at a time, of the power table gathered at its
exponents, and the values are the coefficients times the monomials.  A coefficient matrix
(k, monomials) evaluates k polynomials on one shared monomial list -- P and
its partials, say -- from one power table and one gather, so one call
replaces 1 + nvars.  Products of powers are exact at zero (0^0 = 1,
0^e = 0), so no logarithm and no floor enters the values; only
``poly_log_abs`` floors log |P| where P vanishes.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1024  # most sample rows per chunk, which bounds the power table
# most (monomials x rows) entries per chunk, so the monomial products stay in
# cache: a 182-monomial jet runs 180 rows at a time, a 34-term form 963
_TABLE = 1 << 15
_LOG_FLOOR = -745.0  # log of the smallest positive double


def backend_name() -> str:
    """Name of the evaluation algorithm, recorded in run provenance."""
    return "numpy-power-table"


def poly_values(expo: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """P(z) for every sample row z, with P = sum coeffs * z^expo.

    ``coeffs`` is a (terms,) vector, giving (S,) values, or a (k, terms)
    matrix of k polynomials on the same monomials, giving (k, S) values.
    """
    expo = np.asarray(expo, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    # the variables some monomial uses; a constant reads z_0^0 = 1
    used = np.flatnonzero(expo.max(axis=0)) if expo.any() else np.arange(1)
    E = expo[:, used]
    top = int(E.max(initial=0))
    Zt = Z.T[used]  # (used variables, rows), one contiguous copy
    S = Z.shape[0]
    out = np.empty(coeffs.shape[:-1] + (S,), np.complex128)
    chunk = max(1, min(_CHUNK, _TABLE // max(1, E.shape[0])))
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        pows = np.empty((top + 1, used.size, hi - lo), np.complex128)
        pows[0] = 1.0
        for e in range(1, top + 1):
            np.multiply(pows[e - 1], Zt[:, lo:hi], out=pows[e])
        mono = pows[E[:, 0], 0]
        for v in range(1, used.size):
            mono *= pows[E[:, v], v]
        out[..., lo:hi] = coeffs @ mono
    return out


def poly_log_abs(expo: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """log |P(z)| per sample, floored at the smallest representable double."""
    vals = poly_values(expo, coeffs, Z)
    mag = np.abs(vals)
    return np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), _LOG_FLOOR)
