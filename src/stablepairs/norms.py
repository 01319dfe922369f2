"""L^p and Mahler norms on projective space, and the inequality suite.

The pointwise Fubini-Study norm of a degree-d polynomial at [z] is

    |P|^2([z]) = |P(z)|^2 / (|z_0|^2 + ... )^d,

and the L^p norms integrate |P|^p against the unit-volume Fubini-Study
measure (p = 0 is the Mahler measure: exp of the mean of log |P|).  Uniform
sampling on P^M is a normalized standard complex Gaussian, which also gives
the exact monomial moments used as oracles in the tests:

    E Prod |u_i|^(2 a_i) = M! a! / (M+d)!   (u = z / |z|),

so log ||z^a||_0 = -(d/2) H_M for every degree-d monomial.

Every Monte-Carlo estimate here and the X-pair descent objective in
``energy`` read one seeded sample set, ``MahlerSampleFunctional``, and one
reduction of its per-sample logs, ``MahlerSampleFunctional.reduce``.

All estimates are seeded and reproducible; Monte-Carlo results carry their
sample standard error.  ``lp_norm(...).log_value`` is the log of the norm
itself (single bar); callers that work in the log tan^2 convention double it
explicitly.  The sup norm is a certified lower bound (multi-start ascent
refined to stationarity), which is the safe direction for every inequality
it enters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ._kernels import poly_log_abs, poly_values
from .errors import PreconditionError
from .poly import HomogeneousPolynomial

MIN_SAMPLES = 1_000
DRAW_ROWS = 4_096  # sample rows per draw and per log ||z||^2 block


def harmonic(N: int) -> float:
    """H_N = sum_{j=1..N} 1/j; the Arestov constant is (d/2) H_N."""
    return sum(1.0 / j for j in range(1, N + 1))


@dataclass
class MahlerEstimate:
    """Monte-Carlo norm estimate: log value, standard error, provenance."""

    log_value: float
    stderr: float
    samples: int
    seed: int
    p: float

    def to_json(self) -> dict:
        return asdict(self)


def _terms_arrays(P: HomogeneousPolynomial) -> Tuple[np.ndarray, np.ndarray]:
    """Exponents (terms, nvars) and complex coefficients, in sorted-term order."""
    items = P.sorted_terms()
    expo = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), P.shape.nvars)
    coeffs = np.array([complex(c) for _, c in items], dtype=np.complex128)
    return expo, coeffs


def sample_points(nvars: int, samples: int, seed: int) -> np.ndarray:
    """Standard complex Gaussian rows; projectively uniform on P^(nvars-1).

    The stream is (re + 1j im) / sqrt(2) with re, then im, drawn as one
    (samples, nvars) normal array each.  Both halves are drawn DRAW_ROWS rows
    at a time through one small buffer straight into the complex result, and
    scaled by the reciprocal of sqrt(2), which is the multiplication numpy's
    complex division by a real makes: the bits are those of the one-shot
    draw, and no full-size temporary exists.

    Every estimator draws here, so this is where fewer than MIN_SAMPLES fail."""
    if samples < MIN_SAMPLES:
        raise PreconditionError(f"need at least {MIN_SAMPLES} samples")
    rng = np.random.default_rng(seed)
    Z = np.empty((samples, nvars), np.complex128)
    buf = np.empty((min(DRAW_ROWS, samples), nvars))
    scale = 1.0 / math.sqrt(2.0)
    for half in (Z.real, Z.imag):
        for lo in range(0, samples, DRAW_ROWS):
            block = buf[: min(DRAW_ROWS, samples - lo)]
            rng.standard_normal(out=block)
            np.multiply(block, scale, out=half[lo:lo + block.shape[0]])
    return Z


class MahlerSampleFunctional:
    """The seeded Fubini-Study sample set of P, and log ||sigma . P||_p^2 on it.

    Holds Z = ``sample_points(nvars, samples, seed)`` and the float terms of
    P.  Two tables are built on first read: log ||z||^2, summed DRAW_ROWS
    rows at a time, and the ``jet`` -- the union of the monomials of P and
    of every dP/dz_v, with one row of coefficients per polynomial -- so
    ``moment`` and the sup-norm ascent get P and its gradient from one
    kernel call.  ``log_ratio_sq`` at p = 0 (normalisers cancel) builds
    neither.  sigma = s sigma_hat with s its largest entry modulus, so far
    out on a diverging descent log |P(z sigma)| = log |P(z sigma_hat)| +
    d log s cannot overflow.  sigma_hat goes to the kernel, which moves the
    samples chunk by chunk: Z is the one full-size point array a pass holds,
    and every other per-sample array is one value per sample.  ``reduce``
    alone turns per-sample logs into an estimate; ``moment`` weights p > 0
    by the softmax of the p-th power.
    """

    def __init__(self, P: HomogeneousPolynomial, p: float = 0.0,
                 samples: int = 20_000, seed: int = 0):
        self.p = float(p)
        if not (math.isfinite(self.p) and self.p >= 0):
            raise PreconditionError(f"p must be a finite number >= 0, got {p}")
        P = P.to_float().require_nonzero()
        self.P = P
        self.shape = P.shape
        self.degree = P.degree
        self.expo, self.coeffs = _terms_arrays(P)
        self.Z = sample_points(P.shape.nvars, samples, seed)

    @cached_property
    def logz2(self) -> np.ndarray:
        out = np.empty(self.Z.shape[0])
        for lo in range(0, out.size, DRAW_ROWS):
            block = self.Z[lo:lo + DRAW_ROWS]
            out[lo:lo + block.shape[0]] = np.log(np.sum(np.abs(block) ** 2, axis=1))
        return out

    @cached_property
    def jet(self) -> Tuple[np.ndarray, np.ndarray]:
        """(monomials, coefficient matrix): the union of the monomials of P and
        its first partials, and one row of coefficients for P, dP/dz_0, ..."""
        polys = [self.P] + [self.P.derivative(v) for v in range(self.shape.nvars)]
        index = {}
        for Q in polys:
            for e, _ in Q.sorted_terms():
                index.setdefault(e, len(index))
        expo = np.array(list(index), dtype=np.int64).reshape(len(index), self.shape.nvars)
        coeffs = np.zeros((len(polys), len(index)), dtype=np.complex128)
        for k, Q in enumerate(polys):
            for e, c in Q.terms.items():
                coeffs[k, index[e]] = complex(c)
        return expo, coeffs

    def log_abs(self, sigma: Optional[np.ndarray] = None) -> np.ndarray:
        """log |P(z sigma)| per sample; None is the identity, with no transform."""
        if sigma is None:
            return poly_log_abs(self.expo, self.coeffs, self.Z)
        s = float(np.max(np.abs(sigma)))
        out = poly_log_abs(self.expo, self.coeffs, self.Z, sigma / s)
        out += self.degree * math.log(s)
        return out

    def log_fs2(self, sigma: Optional[np.ndarray] = None) -> np.ndarray:
        """log |sigma.P|_FS^2 per sample: 2 log |P(z sigma)| - d log ||z||^2."""
        return 2.0 * self.log_abs(sigma) - self.degree * self.logz2

    def reduce(self, lv: np.ndarray, p: Optional[float] = None) -> Tuple[float, float]:
        """(log ||.||_p^2, stderr) from per-sample logs lv of |.|_FS^2 at p (default
        the functional's): mean(lv) at p = 0, else (2/p) log mean exp(p lv / 2)."""
        p = self.p if p is None else p
        if p == 0:
            return float(np.mean(lv)), float(np.std(lv, ddof=1) / math.sqrt(lv.size))
        X = 0.5 * p * lv
        mx = float(np.max(X))
        w = np.exp(X - mx)
        m = float(np.mean(w))
        rel_err = float(np.std(w, ddof=1) / math.sqrt(lv.size)) / m
        return 2.0 * (mx + math.log(m)) / p, 2.0 * rel_err / p

    def log_norm2(self, sigma: np.ndarray) -> float:
        return self.reduce(self.log_fs2(sigma))[0]

    def log_ratio_sq(self, sigma: np.ndarray) -> Tuple[float, float]:
        """(log ||sigma.P||_p^2 - log ||P||_p^2, stderr), common random numbers.

        At p = 0 the FS normalisers cancel pointwise: the paired mean of
        2(log|P(z sigma)| - log|P(z)|) has small variance near the unitaries."""
        moved, base = self.log_abs(sigma), self.log_abs()
        if self.p == 0:
            return self.reduce(2.0 * (moved - base))
        z2 = self.degree * self.logz2
        (v_moved, e_moved), (v_base, e_base) = (self.reduce(2.0 * x - z2) for x in (moved, base))
        return v_moved - v_base, e_moved + e_base

    def moment(self, sigma: np.ndarray) -> np.ndarray:
        sig_hat = sigma / float(np.max(np.abs(sigma)))
        jet = poly_values(*self.jet, self.Z, sig_hat)
        vals = jet[0]
        S = self.Z.shape[0]
        if self.p == 0:
            weights = np.full(S, 1.0 / S)
        else:
            lv = 2.0 * np.log(np.abs(vals)) - self.degree * self.logz2
            X = 0.5 * self.p * lv
            w = np.exp(X - np.max(X))
            weights = w / np.sum(w)
        # m = E_w [ W^T (grad/val) sig_hat^T ] over the matrix rows of every
        # sample, one GEMM; holomorphic chain rule, the conjugate half is
        # supplied by the 2 Re Tr(H m^T) wrapper
        jet[1:] *= weights / vals
        G = jet[1:].T
        cols = self.shape.cols
        contrib = self.Z.reshape(-1, cols).T @ G.reshape(-1, cols)
        return contrib @ sig_hat.T


def fs_pointwise(P: HomogeneousPolynomial, z) -> float:
    """Squared pointwise Fubini-Study norm |P|^2([z]); scale-invariant."""
    z = np.asarray(z, dtype=np.complex128).reshape(1, -1)
    if z.shape[1] != P.shape.nvars:
        raise PreconditionError("point length does not match the polynomial shape")
    if not np.any(z):
        raise PreconditionError("zero point has no projective class")
    expo, coeffs = _terms_arrays(P.to_float())
    y = poly_log_abs(expo, coeffs, z) - 0.5 * P.degree * np.log(np.sum(np.abs(z) ** 2, axis=1))
    return float(np.exp(2.0 * y[0]))


def _estimate(reduced: Tuple[float, float], samples: int, seed: int, p: float) -> MahlerEstimate:
    """The single-bar estimate of log ||.||_p from ``reduce``'s squared one."""
    log_value2, stderr2 = reduced
    return MahlerEstimate(0.5 * log_value2, 0.5 * stderr2, samples, seed, float(p))


def lp_norm(P: HomogeneousPolynomial, p: float, samples: int = 200_000,
            seed: int = 0) -> MahlerEstimate:
    """Monte-Carlo estimate of log ||P||_p (p = 0 is Mahler)."""
    f = MahlerSampleFunctional(P, p, samples, seed)
    return _estimate(f.reduce(f.log_fs2()), samples, seed, p)


def log_ratio_sq(P: HomogeneousPolynomial, sigma: np.ndarray, p: float,
                 samples: int = 200_000, seed: int = 0) -> Tuple[float, float]:
    """``MahlerSampleFunctional.log_ratio_sq`` on the seeded sample set of P."""
    return MahlerSampleFunctional(P, p, samples, seed).log_ratio_sq(sigma)


# multi-start ascent of ``sup_norm``: start points, gradient stationarity,
# iterations per start, Armijo constant, least step before a start gives up,
# and the relative curvature margin below which the BFGS update is skipped
SUP_STARTS = 8
SUP_GTOL = 1e-8
SUP_MAXITER = 500
ARMIJO_C = 1e-4
STEP_FLOOR = 1e-12
CURVATURE_MARGIN = 1e-10


def _bfgs_min(objective, x):
    """Least value a dense BFGS descent of ``objective`` from x accepts.

    ``objective(x)`` returns (f, grad f); a point it cannot value returns
    f = +inf, which no Armijo test accepts.  The test is strict, so a step
    that leaves f unchanged in floating point is not accepted either and a
    start at the limit of precision ends at the step floor instead of
    spending its iterations on zero steps.  H approximates the inverse
    Hessian: it starts at I, is rescaled by s.y / y.y after the first step
    (Nocedal-Wright 6.20) and is updated only while s.y > 0 by a relative
    margin; when -H g is no descent direction it is reset to I.  The
    descent stops at max |g| <= SUP_GTOL, after SUP_MAXITER iterations, or
    when halving t from 1 finds no Armijo step above STEP_FLOOR.
    """
    f, g = objective(x)
    eye = np.eye(x.size)
    H, scaled = eye, False
    for _ in range(SUP_MAXITER):
        if np.max(np.abs(g)) <= SUP_GTOL:
            break
        step = -(H @ g)
        slope = float(g @ step)
        if not slope < 0:
            H, scaled = eye, False
            step, slope = -g, -float(g @ g)
        t = 1.0
        while True:
            f_new, g_new = objective(x + t * step)
            if f_new < f + ARMIJO_C * t * slope:
                break
            t *= 0.5
            if t < STEP_FLOOR:
                return f
        s, y = t * step, g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_MARGIN * np.linalg.norm(s) * np.linalg.norm(y):
            if not scaled:
                H, scaled = (sy / float(y @ y)) * eye, True
            Hy = H @ y
            rho = 1.0 / sy
            H = (H - rho * (np.outer(s, Hy) + np.outer(Hy, s))
                 + (rho * rho * float(y @ Hy) + rho) * np.outer(s, s))
        x, f, g = x + s, f_new, g_new
    return f


def sup_norm(P: HomogeneousPolynomial, samples: int = 20_000, seed: int = 0) -> float:
    """Certified lower bound for ||P||_inf: sample max plus projected ascent.

    Multi-start quasi-Newton ascent of log |P|_FS from the SUP_STARTS best
    sample points, on x = (Re z, Im z), refined to gradient stationarity
    SUP_GTOL; never claimed to be the exact supremum.  Each start is the
    dense BFGS of ``_bfgs_min`` on -log |P|_FS, whose every evaluation is
    one ``poly_values`` call on the jet of P; the bound is the best value
    accepted at an actual point, so it is |P|_FS somewhere.  Only numpy is
    used, and no start costs more than SUP_MAXITER iterations.
    """
    fn = MahlerSampleFunctional(P, 0.0, samples, seed)
    nv, d = fn.shape.nvars, fn.degree
    Y = 0.5 * fn.log_fs2()
    order = np.argsort(Y)[::-1]
    expo, coeffs = fn.jet

    def objective(x):
        z = (x[:nv] + 1j * x[nv:]).reshape(1, nv)
        jet = poly_values(expo, coeffs, z)[:, 0]
        val = jet[0]
        z2 = float(np.sum(np.abs(z) ** 2))
        if val == 0 or z2 == 0:
            return math.inf, np.zeros(2 * nv)
        ratio = jet[1:] / val
        f = -(math.log(abs(val)) - 0.5 * d * math.log(z2))
        zz = z.ravel()
        grad_re = -(np.real(ratio) - d * np.real(zz) / z2)
        grad_im = -(-np.imag(ratio) - d * np.imag(zz) / z2)
        return f, np.concatenate([grad_re, grad_im])

    best = float(np.max(Y))
    for k in range(min(SUP_STARTS, samples)):
        z0 = fn.Z[order[k]]
        best = max(best, -_bfgs_min(objective, np.concatenate([np.real(z0), np.imag(z0)])))
    return math.exp(best)


# ---------------------------------------------------------------------------
# inequality suite and the conformal factor
# ---------------------------------------------------------------------------


def arestov_check(P: HomogeneousPolynomial, samples: int = 200_000, seed: int = 0) -> dict:
    """Both sides of the sup/Mahler sandwich with 3-sigma slack margins."""
    N = P.shape.nvars - 1
    est0 = lp_norm(P, 0, samples=samples, seed=seed)
    log_sup = math.log(sup_norm(P, seed=seed + 1))
    constant = 0.5 * P.degree * harmonic(N)
    lower_margin = est0.log_value - (log_sup - constant)
    upper_margin = log_sup - est0.log_value
    slack = 3.0 * est0.stderr
    return {
        "log_l0": est0.to_json(),
        "log_sup": log_sup,
        "arestov_constant": constant,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
        "slack": slack,
        "lower_holds": lower_margin >= -slack,
        "upper_holds": upper_margin >= -slack,
    }


def jensen_check(P: HomogeneousPolynomial, p: float = 2.0,
                 samples: int = 200_000, seed: int = 0) -> dict:
    """log ||P||_0 <= log ||P||_p, within combined 3-sigma slack; both sides
    reduce one per-sample vector of one seeded sample set."""
    if not (math.isfinite(p) and p > 0):
        raise PreconditionError(f"jensen comparison needs a finite p > 0, got {p}")
    f = MahlerSampleFunctional(P, 0.0, samples, seed)
    lv = f.log_fs2()
    est0 = _estimate(f.reduce(lv, 0.0), samples, seed, 0.0)
    estp = _estimate(f.reduce(lv, p), samples, seed, p)
    margin = estp.log_value - est0.log_value
    slack = 3.0 * (est0.stderr + estp.stderr)
    return {
        "log_l0": est0.to_json(),
        "log_lp": estp.to_json(),
        "p": p,
        "margin": margin,
        "slack": slack,
        "holds": margin >= -slack,
    }


def l2_norm_log_exact(P: HomogeneousPolynomial) -> float:
    """log ||P||_L2 from the exact monomial Gram: the unit-volume Fubini-Study
    L^2 Gram is diagonal with ||z^a||^2 = M! a! / (M+d)! on P^M."""
    P = P.require_nonzero().to_float()
    base = math.lgamma(P.shape.nvars) - math.lgamma(P.shape.nvars + P.degree)
    logs = [2.0 * math.log(abs(c)) + base + sum(math.lgamma(e + 1) for e in exp)
            for exp, c in P.terms.items()]
    mx = max(logs)
    return 0.5 * (mx + math.log(sum(math.exp(x - mx) for x in logs)))


def conformal_theta(S: HomogeneousPolynomial, samples: int = 200_000, seed: int = 0) -> dict:
    """theta([S]) = 2 log ||S||_0 - 2 log ||S||_L2 (L2 side exact).

    This is the conformal factor that turns the L^2 norm into the norm the
    K-energy identity wants, which is exactly the Mahler norm.
    """
    est0 = lp_norm(S, 0, samples=samples, seed=seed)
    log_l2 = l2_norm_log_exact(S)
    return {
        "theta": 2.0 * est0.log_value - 2.0 * log_l2,
        "stderr": 2.0 * est0.stderr,
        "log_l0": est0.to_json(),
        "log_l2_exact": log_l2,
    }
