"""X-resultants (Chow forms) and X-hyperdiscriminants (Hurwitz forms).

For a parametrized rational curve gamma: P^1 -> P^N of degree d the two
divisors are built by elimination:

- Chow form R on M_{2 x (N+1)}: the resultant in (s, t) of the two binary
  forms A_0 . gamma and A_1 . gamma, homogeneous of degree d in each row
  (total 2d = d(n+1)); R(A) = 0 iff ker(A) meets the curve.  Up to sign
  it is the determinant of their d x d Bezout matrix, whose entries are
  linear in the Pluecker coordinates (2 x 2 minors) of A.
- Hurwitz form Delta on M_{1 x (N+1)}: the discriminant of B . gamma,
  of degree 2d - 2, from the (d-1) x (d-1) Bezout matrix of its two
  partials; Delta(B) = 0 iff the hyperplane ker(B) is tangent (meets the
  curve non-transversally).

For a hypersurface {F = 0} in P^(n+1) the Chow form is F composed with the
signed maximal minors of the (n+1) x (n+2) Stiefel matrix.

Both constructions certify their degrees after the fact (a silent degree
drop means the parametrization was degenerate) and emit forms with content
cleared and the lexicographically leading coefficient positive real, so
cross-construction ratio tests are deterministic.  The polynomials are only
canonical up to that declared scalar.  Curve forms exist only as these
symbolic polynomials, so a curve beyond the degree and ambient caps below
has no R or Delta at all.

The normalized variety pair (R^deg(Delta), Delta^deg(R)) is never expanded:
XPair keeps both factors with their exponents, and all downstream norms are
additive in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import DegenerateCurveError, PreconditionError
from .poly import (
    HomogeneousPolynomial,
    VariableShape,
    binary_coeffs,
    binary_discriminant,
    maximal_minors,
    sylvester_resultant,
)
from .scalars import EXACT, QQi

# Symbolic curve constructions beyond this degree or ambient dimension are
# refused, and nothing else evaluates R(A) or Delta(B) there.
CURVE_DEGREE_CAP = 5
CURVE_AMBIENT_CAP = 5


# ---------------------------------------------------------------------------
# exact univariate helpers for the common-root check
# ---------------------------------------------------------------------------


def _trim(p: List[QQi]) -> List[QQi]:
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return p[i:]


def _polydiv(num: List[QQi], den: List[QQi]) -> List[QQi]:
    """Remainder of univariate division over the Gaussian rationals."""
    num = _trim(list(num))
    den = _trim(list(den))
    while len(num) >= len(den) and num:
        factor = num[0] / den[0]
        for i in range(len(den)):
            num[i] = num[i] - factor * den[i]
        num = _trim(num)
    return num


def _gcd_univariate(polys: Sequence[List[QQi]]) -> List[QQi]:
    """A gcd by Euclid from the zero polynomial []; each input is trimmed
    first, or a leading zero would count as a degree."""
    g: List[QQi] = []
    for p in polys:
        a, b = g, _trim(list(p))
        while b:
            a, b = b, _polydiv(a, b)
        g = a
    return g


def _has_common_root(gammas: Sequence[HomogeneousPolynomial]) -> bool:
    coeff_lists = [binary_coeffs(gm) for gm in gammas]
    if all(not c[0] for c in coeff_lists):
        return True  # all components vanish at [1:0]
    g = _gcd_univariate(coeff_lists)
    return len(g) > 1


# ---------------------------------------------------------------------------
# curves and hypersurfaces
# ---------------------------------------------------------------------------


class RationalCurve:
    """Parametrized rational curve gamma: P^1 -> P^N, exact coefficients."""

    def __init__(self, N: int, d: int, gamma: Sequence[HomogeneousPolynomial]):
        if N < 1 or d < 1:
            raise PreconditionError("need N >= 1 and d >= 1")
        if len(gamma) != N + 1:
            raise PreconditionError(f"curve needs {N + 1} components, got {len(gamma)}")
        for gm in gamma:
            if gm.shape.nvars != 2 or gm.mode != EXACT:
                raise PreconditionError("components must be exact binary forms")
            if not gm.is_zero and gm.degree != d:
                raise PreconditionError("component degree mismatch")
        nonzero = [gm for gm in gamma if not gm.is_zero]
        if not nonzero:
            raise PreconditionError("zero parametrization")
        if _has_common_root(nonzero):
            raise DegenerateCurveError("curve components share a projective root")
        self.N = N
        self.d = d
        self.gamma = list(gamma)


class HypersurfaceVariety:
    """Hypersurface {F = 0} in P^(n+1); irreducibility is assumed, not checked."""

    def __init__(self, n: int, F: HomogeneousPolynomial):
        if F.shape.nvars != n + 2:
            raise PreconditionError("hypersurface polynomial must have n+2 variables")
        F.require_nonzero("hypersurface")
        if F.mode != EXACT:
            raise PreconditionError("hypersurface must be exact")
        self.n = n
        self.F = F
        self.d = F.degree


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _check_symbolic_caps(curve: RationalCurve):
    if curve.d > CURVE_DEGREE_CAP or curve.N > CURVE_AMBIENT_CAP:
        raise PreconditionError(
            f"symbolic construction capped at d <= {CURVE_DEGREE_CAP}, "
            f"N <= {CURVE_AMBIENT_CAP}"
        )


def _linear_row_coeffs(curve: RationalCurve, shape: VariableShape, row: int) -> List[HomogeneousPolynomial]:
    """Binary-form coefficients of A_row . gamma as linear polynomials on shape."""
    ncols = curve.N + 1
    out = []
    for k in range(curve.d + 1):
        terms = {}
        for i, gm in enumerate(curve.gamma):
            c = binary_coeffs(gm)[k]
            if c:
                exp = [0] * shape.nvars
                exp[row * ncols + i] = 1
                terms[tuple(exp)] = c
        out.append(
            HomogeneousPolynomial(shape, 1, terms, EXACT)
            if terms
            else HomogeneousPolynomial.zero(shape, 1, EXACT)
        )
    return out


def _certify_degree(P: HomogeneousPolynomial, expected: int, what: str) -> HomogeneousPolynomial:
    if P.is_zero or P.degree != expected:
        raise DegenerateCurveError(
            f"{what} degree certification failed (expected {expected})"
        )
    return P


def chow_form_curve(curve: RationalCurve) -> HomogeneousPolynomial:
    """Chow form of a rational curve on M_{2 x (N+1)}, total degree 2d."""
    _check_symbolic_caps(curve)
    shape = VariableShape.matrix(2, curve.N + 1)
    f = _linear_row_coeffs(curve, shape, 0)
    g = _linear_row_coeffs(curve, shape, 1)
    R = sylvester_resultant(f, g)
    R = _certify_degree(R, 2 * curve.d, "chow form")
    for exp in R.terms:
        row_deg = sum(e for v, e in enumerate(exp) if v < curve.N + 1)
        if row_deg != curve.d:
            raise DegenerateCurveError("chow form is not degree d in each row")
    return R.content_normalized()


def hurwitz_form_curve(curve: RationalCurve) -> HomogeneousPolynomial:
    """Hurwitz form (hyperdiscriminant) of a curve on M_{1 x (N+1)}."""
    if curve.d < 2:
        raise PreconditionError("hyperdiscriminant requires curve degree >= 2")
    _check_symbolic_caps(curve)
    shape = VariableShape.matrix(1, curve.N + 1)
    b = _linear_row_coeffs(curve, shape, 0)
    Delta = binary_discriminant(b)
    Delta = _certify_degree(Delta, 2 * curve.d - 2, "hurwitz form")
    return Delta.content_normalized()


def chow_form_hypersurface(h: HypersurfaceVariety) -> HomogeneousPolynomial:
    """F composed with signed maximal minors: degree d(n+1) on M_{(n+1) x (n+2)}."""
    shape = VariableShape.matrix(h.n + 1, h.n + 2)
    # the generic matrix of variables: its minors are polynomials in its entries
    xs = [HomogeneousPolynomial.monomial(shape, [int(k == v) for k in range(shape.nvars)])
          for v in range(shape.nvars)]
    minors = maximal_minors([xs[i:i + shape.cols] for i in range(0, shape.nvars, shape.cols)])
    powers = {}
    terms = {}
    for exp, c in h.F.sorted_terms():
        term = HomogeneousPolynomial.constant(shape, c, EXACT)
        for j, e in enumerate(exp):
            if e:
                if (j, e) not in powers:
                    powers[j, e] = minors[j] ** e
                term = term * powers[j, e]
        # a sum that cancels leaves the dict, so a key that comes back is
        # appended, as in a running sum that drops its zero terms
        for k, v in term.terms.items():
            s = terms.get(k)
            v = v if s is None else s + v
            if v:
                terms[k] = v
            else:
                del terms[k]
    total = HomogeneousPolynomial._trusted(shape, h.d * (h.n + 1), terms, EXACT)
    if total.is_zero:
        raise PreconditionError("hypersurface chow form vanished identically")
    return total.content_normalized()


# ---------------------------------------------------------------------------
# the normalized variety pair
# ---------------------------------------------------------------------------


@dataclass
class XPair:
    """(R^deg(Delta), Delta^deg(R)) held implicitly as its two base forms.

    Powers are applied additively downstream, and unit normalizations cancel
    in the common-random-number ratios that every Mahler formula uses.  The
    dimensions and degrees are read off the forms: R lives on
    (n+1) x (N+1) matrices with degree d(n+1).
    """

    resultant: HomogeneousPolynomial
    hyperdiscriminant: Optional[HomogeneousPolynomial]
    curve: Optional[RationalCurve] = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.resultant.shape.rows - 1

    @property
    def N(self) -> int:
        return self.resultant.group_size - 1

    @property
    def deg_r(self) -> int:
        return self.resultant.degree

    @property
    def d(self) -> int:
        return self.deg_r // (self.n + 1)

    @property
    def deg_delta(self) -> Optional[int]:
        return None if self.hyperdiscriminant is None else self.hyperdiscriminant.degree

    def require_delta(self):
        if self.hyperdiscriminant is None:
            raise PreconditionError(
                "this XPair has no hyperdiscriminant (hypersurface-only); "
                "resultant-only operations remain available"
            )


def build_x_pair(obj) -> XPair:
    """Construct the variety pair for a curve or a hypersurface.

    Exact and deterministic; hypersurfaces get a resultant-only pair, whose
    ``hyperdiscriminant`` is None and whose ``require_delta`` raises.
    """
    if isinstance(obj, RationalCurve):
        R = chow_form_curve(obj)
        Delta = hurwitz_form_curve(obj) if obj.d >= 2 else None
        xp = XPair(resultant=R, hyperdiscriminant=Delta, curve=obj)
    elif isinstance(obj, HypersurfaceVariety):
        xp = XPair(resultant=chow_form_hypersurface(obj), hyperdiscriminant=None)
    else:
        raise PreconditionError("build_x_pair needs a RationalCurve or HypersurfaceVariety")
    xp.meta = {
        "degree_formula": {"deg_r": "d(n+1)", "deg_delta": "2d-2 (curves)"},
        "scalar_convention": "content cleared, leading lex coefficient positive real",
    }
    return xp
