"""Semistability and stability of pairs.

A pair (v, w) of nonzero vectors in two representations of SL(N+1, C) is
semistable when the projective orbit closure of (v, w) avoids that of
(v, 0).  Every pair kind is one list of integer-weighted exact parts
[(c_k, e_k)], never expanded:

    Pair (v, w)                           (-1, v), (1, w)
    TensoredPair (I^q (x) v^m, w^(m+1))   (m+1, w), (-m, v), (-q, Q_N)
    X-pair (R, Delta), energy.py          (deg R, Delta), (-deg Delta, R)

The parts with c_k < 0 make up v, those with c_k > 0 make up w.  The torus
test is N(v) = sum |c_k| N(e_k) over c_k < 0 inside N(w); a 1-PSG lambda
destabilizes when sum_k c_k w_lambda(e_k) > 0, w_lambda(e) the least
<a, lambda> over N(e).  The identity factor is the standard simplex Q_N,
of weight min_i lambda_i; its Hilbert-Schmidt norm is unitarily invariant,
so no conjugator or frame acts on it.  The group-level question is probed
by randomized conjugate-torus tests and by descent on the Kempf-Ness value

    value(sigma) = sum_k c_k log ||sigma . e_k||^2,

whose infimum is the log-tan^2 distance between the orbit closures.

Witnesses, the same for all three kinds: torus-fail carries a lambda
checked exactly against the parts; divergence-detected carries a lambda
from the diverging trajectory that ``_verify_destabilizer`` checked, and a
divergence whose lambda fails is not reported; no-divergence-observed is
evidence only, and certificates say so.

Norm choices: polynomial representations use the L^2 norm with the
unit-volume Fubini-Study measure (monomials are orthogonal with
||z^a||^2 = M! a! / (M+d)! on P^M); tensor representations use the
Hermitian coordinate norm with orthonormal wedge basis.  Both are unitarily
invariant, and one functional evaluates both on dense tensors with a
symmetric-power axis per polynomial row or tensor slot.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, PreconditionError
from .poly import (
    HomogeneousPolynomial,
    OnePSG,
    _act_blocks,
    _bareiss,
    _dense_blocks,
    _scale_split,
    _sigma_array,
    _sym_basis,
    _sym_powers,
    _sym_step,
    act,
    binary_coeffs,
    primitive_integer_vector,
)
from .scalars import EXACT, FLOAT, QQi
from .weights import (
    SUPPORT_FLOAT_TOL,
    LatticePolytope,
    TensorVector,
    act_tensor,
    contains,
    minkowski_sum,
    psg_weight,
    rep_degree,
    scale,
    standard_simplex,
    weight_polytope,
)

# A part (c_k, e_k): an integer weight and a polynomial, a tensor vector or,
# for the identity factor, a lattice polytope.
Part = Tuple[int, object]

# ---------------------------------------------------------------------------
# pair containers and certificates
# ---------------------------------------------------------------------------


class Pair:
    """Two nonzero vectors in representations of the same SL(N+1)."""

    def __init__(self, v, w):
        if isinstance(v, HomogeneousPolynomial):
            v.require_nonzero("pair component v")
        if isinstance(w, HomogeneousPolynomial):
            w.require_nonzero("pair component w")
        if v.group_size != w.group_size:
            raise DimensionError("pair components live under different groups")
        self.v = v
        self.w = w

    @property
    def group_size(self) -> int:
        return self.v.group_size

    @property
    def norm_choice(self) -> str:
        return "hermitian" if isinstance(self.v, TensorVector) or isinstance(
            self.w, TensorVector
        ) else "l2"

    @property
    def parts(self) -> List[Part]:
        return [(-1, self.v), (1, self.w)]

    def functional(self) -> "PairFunctional":
        return PairFunctional(self.parts, self.group_size)

    def conjugated(self, sigma) -> "Pair":
        return Pair(*(e for _, e in _conjugated(self.parts, sigma)))


def _act_any(sigma, e):
    if isinstance(e, HomogeneousPolynomial):
        return act(sigma, e)
    return act_tensor(sigma, e)


def _conjugated(parts: Sequence[Part], sigma) -> List[Part]:
    """sigma . e_k for every vector part, each by its own action (``act`` or
    ``act_tensor``); a polytope part stays as it is."""
    if sigma is None:
        return list(parts)
    return [(c, e if isinstance(e, LatticePolytope) else _act_any(sigma, e)) for c, e in parts]


def _all_exact(parts: Sequence[Part]) -> bool:
    return all(isinstance(e, LatticePolytope) or e.mode == EXACT for _, e in parts)


@dataclass
class StabilityCertificate:
    """Outcome of a torus test or a descent run.

    torus-fail always carries an integer witness lambda (and the conjugator
    under which it separates); divergence-detected carries the extracted
    1-PSG with its verification record; no-divergence-observed is evidence,
    never proof, and the diagnostics say so.
    """

    verdict: str
    witness: Optional[dict] = None
    inf_estimate: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the torus test and the randomized conjugate probe
# ---------------------------------------------------------------------------


def _side_weights(lam: OnePSG, parts: Sequence[Part],
                  tol: float = SUPPORT_FLOAT_TOL) -> Tuple[int, int]:
    """(w_lambda(left), w_lambda(right)): sum |c_k| w_lambda(e_k) over c_k < 0,
    c_k > 0, on supports thresholded at ``tol``."""
    weights = [c * psg_weight(lam, e, tol) for c, e in parts]
    return (-sum(x for (c, _), x in zip(parts, weights) if c < 0),
            sum(x for (c, _), x in zip(parts, weights) if c > 0))


def polytope_sides(parts: Sequence[Part]) -> Tuple[LatticePolytope, LatticePolytope]:
    """(N(left), N(right)): Minkowski sums of |c_k| N(e_k) over c_k < 0 and c_k > 0.

    A side made of one part with |c_k| = 1 is that part's polytope itself.
    """
    sides = []
    for sign in (-1, 1):
        side = None
        for c, e in parts:
            if c * sign > 0:
                poly = weight_polytope(e)
                poly = poly if abs(c) == 1 else scale(poly, abs(c))
                side = poly if side is None else minkowski_sum(side, poly)
        if side is None:
            raise PreconditionError("a pair needs parts of both signs")
        sides.append(side)
    return sides[0], sides[1]


def torus_semistable(pair, conjugator=None) -> Tuple[bool, Optional[OnePSG]]:
    """Standard-torus test of any pair kind, optionally conjugated first:
    N(left) inside N(right), with a witness lambda on failure.

    Each part's polytope N(e_k) is built once, and the witness is checked
    exactly against those polytopes, sum_k c_k w_lambda(e_k) > 0, which
    guards the Minkowski sums and dilations that make up the sides.
    """
    parts = [(c, weight_polytope(e)) for c, e in _conjugated(pair.parts, conjugator)]
    ok, lam = contains(*polytope_sides(parts))
    if ok:
        return True, None
    wv, ww = _side_weights(lam, parts)
    if not ww > wv:
        raise RuntimeError(f"weight-polytope witness {list(lam.exponents)} does not "
                           "satisfy sum_k c_k w_lambda(e_k) > 0")
    return False, lam


def _random_exact_conjugator(rng: np.random.Generator, n: int):
    """The first integer matrix with entries in [-9, 9] drawn from rng whose
    exact determinant (Bareiss over Python ints) is nonzero."""
    while True:
        m = rng.integers(-9, 10, size=(n, n)).tolist()
        if _bareiss(m, bool, operator.floordiv):
            return [[QQi(x) for x in row] for row in m]


def _random_float_conjugator(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    det = np.linalg.det(z)
    return z / det ** (1.0 / n)


def _divisors(n: int) -> List[int]:
    """Positive divisors of a nonzero integer, ascending, by trial division to sqrt."""
    n = abs(n)
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def _rational_roots_binary(f: HomogeneousPolynomial) -> List[Tuple[int, int]]:
    """Rational projective roots [p:q] of an exact binary form.

    Only real-rational coefficients are searched; forms with imaginary parts
    return no roots (the probe then falls back to random conjugation).
    """
    coeffs = binary_coeffs(f)
    fr: List[Fraction] = []
    for c in coeffs:
        if not isinstance(c, QQi) or c.im != 0:
            return []
        fr.append(c.re)
    ints = primitive_integer_vector(fr)
    roots: List[Tuple[int, int]] = []
    # ints[0] is the coefficient of x^d: [1:0] is a root iff it vanishes
    if ints[0] == 0:
        roots.append((1, 0))
    poly = list(ints)  # descending powers of x, dehomogenized at y = 1
    while poly and poly[-1] == 0:
        poly.pop()
        if (0, 1) not in roots:
            roots.append((0, 1))
    # leading zeros are the roots at [1:0]; without them lead is nonzero and
    # every denominator of a rational root divides it
    while poly and poly[0] == 0:
        poly.pop(0)
    if len(poly) <= 1:
        return roots
    lead, const = poly[0], poly[-1]
    k = len(poly) - 1
    seen = set(roots)
    for p in _divisors(const):
        for q in _divisors(lead):
            for sp in (p, -p):
                if math.gcd(abs(sp), q) != 1:
                    continue
                # q^k f(sp/q, 1), an integer that vanishes with f(sp/q, 1)
                val = sum(c * sp ** (k - i) * q ** i for i, c in enumerate(poly))
                if val == 0 and (sp, q) not in seen:
                    seen.add((sp, q))
                    roots.append((sp, q))
    return roots


def _root_adapted_conjugators(parts: Sequence[Part]) -> List[List[List[QQi]]]:
    """Exact conjugators sending a rational root of a right part (then of a
    left part) to [0:1].

    Only defined when every vector part is an exact binary form; the second
    row of each conjugator is a root of the form, so the conjugated form gains
    a zero coefficient and the standard torus sees the root structure.
    """
    forms = [e for _, e in sorted(parts, key=lambda part: part[0] < 0)
             if not isinstance(e, LatticePolytope)]
    if not all(isinstance(f, HomogeneousPolynomial) and f.shape.nvars == 2 and f.mode == EXACT
               for f in forms):
        return []
    out = []
    seen = set()
    for form in forms:
        for (p, q) in _rational_roots_binary(form):
            if (p, q) in seen:
                continue
            seen.add((p, q))
            if q != 0:
                rows = [[QQi(1), QQi(0)], [QQi(p), QQi(q)]]
            else:
                rows = [[QQi(0), QQi(1)], [QQi(p), QQi(0)]]
            out.append(rows)
    return out


def _conj_repr(rows) -> list:
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, QQi):
                r.append(str(x.re) if x.im == 0 else f"{x.re}+{x.im}i")
            else:
                z = complex(x)
                r.append([z.real, z.imag])
        out.append(r)
    return out


def _probe_conjugators(pair, trials: int, seed: int) -> Iterator[Tuple[int, Optional[list]]]:
    """The conjugators (trial number, sigma) of a torus probe, in order.

    Trial 1 is the identity (sigma None: the standard torus).  For exact pairs
    of binary forms, root-adapted conjugators are tried next, then random ones:
    integer matrices in exact mode (containment is scale-invariant, so
    unnormalized determinants keep everything rational), determinant-normalized
    complex Gaussians in float mode, each drawn from the seeded generator only
    when its trial is reached.
    """
    rng = np.random.default_rng(seed)
    n = pair.group_size
    exact = _all_exact(pair.parts)
    planned: List[Optional[list]] = [None]
    planned.extend(_root_adapted_conjugators(pair.parts))
    for trial in range(1, trials + 1):
        if trial <= len(planned):
            yield trial, planned[trial - 1]
        else:
            yield trial, (
                _random_exact_conjugator(rng, n) if exact else _random_float_conjugator(rng, n)
            )


def randomized_torus_probe(pair, trials: int = 20, seed: int = 0) -> StabilityCertificate:
    """Apply the torus test to any pair kind conjugated by seeded conjugators.

    The conjugator schedule is ``_probe_conjugators``; deterministic for a
    given seed.  A pass after every trial is evidence, not proof.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    exact = _all_exact(pair.parts)
    for trial, sigma in _probe_conjugators(pair, trials, seed):
        ok, lam = torus_semistable(pair, sigma)
        if not ok:
            return StabilityCertificate(
                verdict="torus-fail",
                witness={
                    "lambda": list(lam.exponents),
                    "conjugator": None if sigma is None else _conj_repr(sigma),
                    "trial": trial,
                    "verification": "exact" if exact or sigma is None else "thresholded-support",
                },
                diagnostics={"probe": "torus", "trials": trial},
                seed=seed,
            )
    return StabilityCertificate(
        verdict="no-divergence-observed",
        diagnostics={"probe": "torus", "trials": trials,
                     "note": "pass after trials is not a proof of semistability"},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# norm functionals: values and moment matrices for the Kempf-Ness gradient
# ---------------------------------------------------------------------------
#
# Every functional F exposes
#     log_norm2(sigma) -> float                      log ||sigma . e||^2
#     moment(sigma)    -> (n+1, n+1) complex matrix  m
# with the directional derivative of log_norm2 at sigma along a Hermitian H
# (through exp(eps H) sigma) equal to 2 Re Tr(H m^T).  The gradient matrix is
# then m^T + conj(m), projected to traceless Hermitian.

class PolyL2Functional:
    """log ||sigma . e||^2 of a polynomial e (L^2 norm of the unit-volume
    Fubini-Study measure) or a tensor vector e (Hermitian coordinate norm).

    e is held as the dense blocks of ``poly.act`` over its largest |coefficient|
    and one log constant: log M!/(M+d)! for a polynomial, -log 2 per wedge
    slot for a tensor (whose two axes hold c and -c), plus the log of that
    scale squared.  Transformed blocks go to orthonormal coordinates
    (c_a sqrt(a!)) by the diagonal ``orth[d]`` along each axis of degree d.
    """

    def __init__(self, e):
        e = e.to_float()
        if isinstance(e, HomogeneousPolynomial):
            m = e.require_nonzero().shape.nvars - 1
            log_const = math.lgamma(m + 1) - math.lgamma(m + e.degree + 1)
        else:
            log_const = -math.log(2.0) * sum(kind == "wedge2" for kind, _ in e.slots)
        self.n = n = e.group_size
        self.degree = e.degree
        amplitudes = e.dense_amplitudes()
        top = max(abs(z) for z in amplitudes.values())
        self.log_const = log_const + 2.0 * math.log(top)
        self.blocks = _dense_blocks(n, {axes: z / top for axes, z in amplitudes.items()})
        # D = diag(sqrt(a!)) on Sym^d takes monomial to orthonormal coordinates
        self.orth = {d: np.sqrt([float(math.prod(map(math.factorial, a)))
                                 for a in _sym_basis(n, d)])
                     for degs, _ in self.blocks for d in degs}
        self._last = None

    def _transformed(self, sigma: np.ndarray) -> Tuple[List[np.ndarray], float, float]:
        """(orthonormal blocks of sigma . e over their largest |entry|, their
        squared norm, log ||sigma . e||^2), kept for the last sigma for its moment."""
        key = (sigma.shape, sigma.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        sig_hat, logs = _scale_split(sigma)
        ys = []
        for degs, y in _act_blocks(_sym_powers(sig_hat, self.orth), self.blocks):
            for axis, d in enumerate(degs):
                y *= self.orth[d].reshape((-1,) + (1,) * (y.ndim - axis - 1))
            ys.append(y)
        top = max(float(np.max(np.abs(y))) for y in ys)
        if top == 0.0:
            raise PreconditionError("vector annihilated by singular matrix")
        ys = [y / top for y in ys]
        n2 = sum(float(np.vdot(y, y).real) for y in ys)
        value = math.log(n2) + 2.0 * math.log(top) + self.log_const + 2.0 * self.degree * logs
        self._last = (key, (ys, n2, value))
        return ys, n2, value

    def log_norm2(self, sigma: np.ndarray) -> float:
        return self._transformed(sigma)[2]

    def moment(self, sigma: np.ndarray) -> np.ndarray:
        ys, n2, _ = self._transformed(sigma)
        mom = np.zeros((self.n, self.n), dtype=np.complex128)
        for (degs, _), y in zip(self.blocks, ys):
            for axis, d in enumerate(degs):
                if d == 0:
                    continue
                up, root = _sym_step(self.n, d)
                # E_ij acts by z_i d_j, so m is the Gram matrix of the partial
                # derivatives d_j y along the axis (orthonormal coordinates)
                g = np.take(y, up, axis=axis) * root.reshape(root.shape + (1,) * (y.ndim - axis - 1))
                g = np.moveaxis(g, axis, 0).reshape(self.n, -1)
                mom += g.conj() @ g.T
        return mom / n2


class HilbertSchmidtFunctional:
    """log Trace(sigma sigma^*): the identity-factor norm of tensored pairs."""

    def __init__(self, n: int):
        self.n = n
        self.degree = 1

    def log_norm2(self, sigma: np.ndarray) -> float:
        return math.log(float(np.vdot(sigma, sigma).real))

    def moment(self, sigma: np.ndarray) -> np.ndarray:
        ss = sigma @ sigma.conj().T
        return ss.T / float(np.trace(ss).real)


class PairFunctional:
    """value(sigma) = sum_k c_k log ||sigma . e_k||^2 over the parts (c_k, e_k).

    ``norms`` holds one log-norm functional per part.  By default a vector
    part gets its L^2 or Hermitian norm (``PolyL2Functional``) and the
    identity factor, a polytope part, its Hilbert-Schmidt norm.  value and
    gradient take sigma as a float (n, n) array; ``kempf_ness_value`` and
    ``kempf_ness_gradient`` convert any other sigma first.
    """

    def __init__(self, parts: Sequence[Part], size: int, norms: Optional[Sequence] = None):
        self.parts = list(parts)
        self.size = size
        if norms is None:
            norms = [HilbertSchmidtFunctional(size) if isinstance(e, LatticePolytope)
                     else PolyL2Functional(e) for _, e in self.parts]
        self.norms = list(norms)

    @property
    def scale_slope(self) -> float:
        """d value / d log(c) under sigma -> c sigma: 2 sum_k c_k deg_k."""
        return 2.0 * sum(c * f.degree for (c, _), f in zip(self.parts, self.norms))

    def value(self, sigma: np.ndarray) -> float:
        return sum(c * f.log_norm2(sigma) for (c, _), f in zip(self.parts, self.norms))

    def gradient(self, sigma: np.ndarray) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=np.complex128)
        for (c, _), f in zip(self.parts, self.norms):
            m += c * f.moment(sigma)
        g = m.T + np.conj(m)
        g -= (np.trace(g) / self.size) * np.eye(self.size)
        return g


def kempf_ness_value(sigma, pair: Pair) -> float:
    """log ||sigma . w||^2 - log ||sigma . v||^2 in the pair's norm choice."""
    return pair.functional().value(_sigma_array(sigma, FLOAT, pair.group_size))


def kempf_ness_gradient(sigma, pair: Pair) -> np.ndarray:
    """Gradient over traceless Hermitian H of value(exp(H) sigma) at H = 0."""
    return pair.functional().gradient(_sigma_array(sigma, FLOAT, pair.group_size))


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


@dataclass
class DescentOptions:
    restarts: int = 3
    max_iters: int = 500
    grad_tol: float = 1e-9
    seed: int = 0


# line search of ``descend``: first step, backtracking and growth factors,
# largest step and the Armijo sufficient-decrease constant
ETA0 = 0.1
SHRINK = 0.5
GROW = 1.2
ETA_MAX = 10.0
ARMIJO = 1e-4
# divergence: log ||sigma||_HS^2 threshold and the monotone-decrease window
DIVERGENCE_LOGNORM2 = 40.0
DIVERGENCE_RUN = 200


def _expm_hermitian(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def _round_primitive_direction(logeigs: np.ndarray, max_den: int = 16) -> Optional[Tuple[int, ...]]:
    """Continued-fraction rounding of a normalized log-eigenvalue profile.

    Gaps between consecutive sorted entries are rounded to denominators
    <= max_den, the profile is rebuilt, mean-shifted to sum zero, and cleared
    to a primitive integer vector.
    """
    order = np.argsort(logeigs)[::-1]
    sorted_vals = logeigs[order]
    span = float(sorted_vals[0] - sorted_vals[-1])
    if span <= 0:
        return None
    gaps = [Fraction(float(sorted_vals[i] - sorted_vals[i + 1]) / span).limit_denominator(max_den)
            for i in range(len(sorted_vals) - 1)]
    profile = [Fraction(0)]
    for g in gaps:
        profile.append(profile[-1] - g)
    n = len(profile)
    mean = sum(profile, Fraction(0)) / n
    profile = [p - mean for p in profile]
    if all(p == 0 for p in profile):
        return None
    ints = primitive_integer_vector(profile)
    out = [0] * n
    for pos, idx in enumerate(order):
        out[idx] = ints[pos]
    return tuple(out)


def _snap_to_signed_permutation(u: np.ndarray, tol: float = 1e-6):
    """Round a phased permutation to a generalized permutation with entries
    0, ±1, ±i: |z| <= tol goes to 0, ||z| - 1| <= tol to the nearest fourth
    root of unity, and any other entry gives None.  The rounding multiplies
    u by a diagonal unitary, which moves no support and so no torus weight.
    """
    roots = ((1.0, QQi(1)), (-1.0, QQi(-1)), (1.0j, QQi(0, 1)), (-1.0j, QQi(0, -1)))
    n = u.shape[0]
    snapped = [[QQi(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            z = complex(u[i, j])
            if abs(z) <= tol:
                continue
            if abs(abs(z) - 1.0) > tol:
                return None
            snapped[i][j] = min(roots, key=lambda r: abs(z - r[0]))[1]
    return snapped


# float supports of parts moved by a numerical frame drop coefficients at most
# this relative size: an ill-conditioned frame leaves residues SUPPORT_FLOAT_TOL keeps
WITNESS_SUPPORT_TOL = 1e-6


def _verify_destabilizer(func: PairFunctional, lam: OnePSG, frame: np.ndarray) -> Optional[dict]:
    """Check sum_k c_k w_lambda(frame . e_k) > 0 over the functional's parts.

    Exact when the frame snaps to a signed permutation and every part is
    exact; otherwise verified on tolerance-thresholded float supports,
    cross-checked by measuring the slope of ``func.value`` along the
    candidate direction (the slope must reproduce the integer weight gap,
    which guards the threshold).  The record's weights are those of the left
    and right vectors, sum |c_k| w_lambda(e_k) over c_k < 0 and c_k > 0.
    """
    snapped = _snap_to_signed_permutation(frame)
    if snapped is not None and _all_exact(func.parts):
        wv, ww = _side_weights(lam, _conjugated(func.parts, snapped))
        if ww <= wv:
            return None
        return {
            "lambda": list(lam.exponents),
            "conjugator": _conj_repr(snapped),
            "verification": "exact",
            "weights": {"v": wv, "w": ww},
        }
    parts = _conjugated([(c, e if isinstance(e, LatticePolytope) else e.to_float())
                         for c, e in func.parts], frame)
    wv, ww = _side_weights(lam, parts, WITNESS_SUPPORT_TOL)
    if ww <= wv:
        return None
    # slope cross-check along diag(t^lambda) @ frame
    vals = []
    for t in (1e-2, 1e-3):
        d = np.diag([t ** a for a in lam.exponents]).astype(np.complex128)
        vals.append(func.value(d @ frame))
    slope = (vals[1] - vals[0]) / (math.log(1e-6) - math.log(1e-4))
    expected = ww - wv
    if not abs(slope - expected) <= 0.1:
        return None
    return {
        "lambda": list(lam.exponents),
        "conjugator": _conj_repr(frame.tolist()),
        "verification": "numeric-support+slope",
        "weights": {"v": wv, "w": ww},
        "measured_slope": slope,
        "expected_slope": expected,
    }


def descend(func: PairFunctional, opts: Optional[DescentOptions] = None) -> StabilityCertificate:
    """Multi-start retraction descent sigma <- exp(-eta grad) sigma.

    Backtracking Armijo line search.  A restart diverges when the value has
    decreased strictly for DIVERGENCE_RUN consecutive accepted steps while
    log ||sigma||_HS^2 exceeds DIVERGENCE_LOGNORM2, or when the line search
    stalls far out on such a trajectory.  A destabilizing 1-PSG is then
    extracted from the log-spectrum of sigma and checked by
    ``_verify_destabilizer``: a verified one ends the run as
    divergence-detected, a failed one goes to `rejected_candidates` and the
    next restart runs.  A run that never
    verifies a witness yields no-divergence-observed: evidence, not a proof
    of semistability.
    """
    opts = opts or DescentOptions()
    if opts.restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    n = func.size
    rng = np.random.default_rng(opts.seed)
    best_value = math.inf
    diagnostics: dict = {"restarts": [], "rejected_candidates": []}
    witness = None

    slope = func.scale_slope

    def try_value(sig_hat, ls):
        try:
            val = func.value(sig_hat) + slope * ls
        except PreconditionError:
            return None
        return val if math.isfinite(val) else None

    for restart in range(opts.restarts):
        # sigma is tracked as exp(log_scale) * sig_hat with max |entry| of
        # sig_hat equal to 1, so diverging trajectories never overflow
        raw = np.eye(n, dtype=np.complex128) if restart == 0 else _random_float_conjugator(rng, n)
        sig_hat, log_scale = _scale_split(raw)
        start_value = value = func.value(sig_hat) + slope * log_scale
        eta = ETA0
        decreasing_run = 0
        iters = 0
        final_grad = None  # stays null in the output when no gradient was computed
        lognorm2 = 2.0 * log_scale + math.log(float(np.vdot(sig_hat, sig_hat).real))
        diverged = stalled_extreme = False
        for iters in range(1, opts.max_iters + 1):
            try:
                grad = func.gradient(sig_hat)
            except PreconditionError:
                stalled_extreme = lognorm2 > DIVERGENCE_LOGNORM2
                break
            gnorm2 = float(np.vdot(grad, grad).real)
            final_grad = math.sqrt(gnorm2)
            if not math.isfinite(gnorm2):
                stalled_extreme = lognorm2 > DIVERGENCE_LOGNORM2
                break
            if final_grad < opts.grad_tol:
                break
            accepted = False
            while eta > 1e-18:
                cand_hat, dls = _scale_split(_expm_hermitian(-eta * grad) @ sig_hat)
                cand_ls = log_scale + dls
                cand_value = try_value(cand_hat, cand_ls)
                if cand_value is not None and cand_value <= value - ARMIJO * eta * gnorm2:
                    accepted = True
                    break
                eta *= SHRINK
            if not accepted:
                # float cancellation can stall the line search while the
                # trajectory is running off to infinity; a permissive flag is
                # sound because only a verified witness ends the run
                stalled_extreme = value < start_value - 10.0 and lognorm2 > 10.0
                break
            if cand_value < value:
                decreasing_run += 1
            else:
                decreasing_run = 0
            sig_hat, log_scale, value = cand_hat, cand_ls, cand_value
            best_value = min(best_value, value)
            lognorm2 = 2.0 * log_scale + math.log(float(np.vdot(sig_hat, sig_hat).real))
            if lognorm2 > DIVERGENCE_LOGNORM2:
                # past the norm threshold: freeze step growth so the
                # remaining confirmation window cannot underflow coefficients
                eta = min(eta, ETA0)
                if decreasing_run >= DIVERGENCE_RUN:
                    diverged = True
                    break
            else:
                eta = min(eta * GROW, ETA_MAX)
        best_value = min(best_value, value)
        diagnostics["restarts"].append(
            {"iterations": iters, "final_value": value, "final_grad_norm": final_grad}
        )
        if diverged or stalled_extreme:
            eigvals, eigvecs = np.linalg.eigh(sig_hat.conj().T @ sig_hat)
            cand_dir = _round_primitive_direction(0.5 * np.log(np.maximum(eigvals.real, 1e-300)))
            if cand_dir is not None:
                lam = OnePSG([-a for a in cand_dir])
                witness = _verify_destabilizer(func, lam, eigvecs.conj().T)
                if witness is not None:
                    if not diverged:
                        # the monotone window was cut short by float cancellation
                        diagnostics["stall_confirmed_by_witness"] = True
                    break
                diagnostics["rejected_candidates"].append(
                    {"lambda": list(lam.exponents), "reason": "weight test failed"}
                )

    if witness is None:
        diagnostics["note"] = "no divergence observed; this is not a proof of semistability"
    verdict = "no-divergence-observed" if witness is None else "divergence-detected"
    return StabilityCertificate(verdict, witness, best_value, diagnostics, opts.seed)


# ---------------------------------------------------------------------------
# tensored stable-pair construction
# ---------------------------------------------------------------------------


class TensoredPair:
    """(I^q (x) v^m, w^(m+1)), held as its weighted parts, never expanded."""

    def __init__(self, base: Pair, m: int, q: Optional[int] = None):
        if m < 1:
            raise PreconditionError("m must be >= 1")
        self.base = base
        self.m = m
        self.q = rep_degree(base.v) if q is None else int(q)
        if self.q < 0:
            raise PreconditionError("q must be >= 0")

    @property
    def group_size(self) -> int:
        return self.base.group_size

    @property
    def parts(self) -> List[Part]:
        parts = [(self.m + 1, self.base.w), (-self.m, self.base.v)]
        if self.q > 0:
            parts.append((-self.q, standard_simplex(self.group_size)))
        return parts

    def functional(self) -> PairFunctional:
        return PairFunctional(self.parts, self.group_size)


def build_stable_test_pair(pair: Pair, m: int) -> TensoredPair:
    """The q = deg(V) tensored pair whose semistability defines stability."""
    return TensoredPair(pair, m)


def stable_probe(pair: Pair, m: int, trials: int = 20, seed: int = 0,
                 opts: Optional[DescentOptions] = None) -> StabilityCertificate:
    """Randomized torus probe plus descent for the tensored pair."""
    tp = build_stable_test_pair(pair, m)
    cert = randomized_torus_probe(tp, trials, seed)
    if cert.verdict == "torus-fail":
        cert.diagnostics.update(probe="tensored-torus", m=tp.m, q=tp.q)
        return cert
    cert = descend(tp.functional(), opts or DescentOptions(seed=seed))
    cert.diagnostics.update(probe="tensored-descent-after-torus-pass", m=tp.m, q=tp.q)
    cert.seed = seed
    return cert
