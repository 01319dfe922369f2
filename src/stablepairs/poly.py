"""Sparse homogeneous polynomial arithmetic and elimination primitives.

A polynomial is a map from exponent tuples to nonzero coefficients,

    terms: Dict[Tuple[int, ...], QQi | complex]

over the variables of a :class:`VariableShape` (a vector of length N+1, or
a k x (N+1) matrix flattened row-major).  Every stored exponent tuple sums
to the polynomial's degree; zero coefficients are never stored.  Exact mode
uses Gaussian-rational coefficients and is closed under all operations here;
float mode uses complex doubles.

``terms`` is always keyed by exponent tuples.  The inner loops of the
product and of exact division run on packed keys instead: each exponent
tuple encoded as one int, big-endian in base degree + 1 (``_pack``), so int
order is lex order and int addition is exponent addition.  They run on the
(re, im) components of the coefficients too (``_parts``), with the
product (a c - b d, a d + b c), which is CPython's complex product, so one
loop serves both modes bit for bit and builds one QQi or complex per
output term, not one per term pair.  A product builds each output tuple
once, when its key first appears, so its terms keep the order of first
appearance.

The group acts by right substitution

    (sigma . P)(A) = P(A sigma)

so a diagonal torus element multiplies a monomial by t^(column degrees),
which is what the weight machinery in :mod:`stablepairs.weights` relies on.
Composing two substitutions gives ``act(tau, act(sigma, P)) == act(tau @ sigma, P)``.

There is one action of sigma, exact and float alike: dense tensors with one
axis per polynomial row or tensor slot, S^d(sigma) applied along each axis
(``_sym_powers``, one gather-multiply-sum per degree).  ``act``,
``weights.act_tensor`` and the Kempf-Ness functional of
:mod:`stablepairs.pairs` all use it; each call builds the powers its own
tensors need.  An exact action runs on int64 numerators when sigma is real
and a proven bound on its own total degree rules out overflow
(``_int64_scaled``), and on QQi object arrays otherwise; it never touches a
float.

Elimination primitives, exact only, over scalars or polynomials: resultants
of binary forms, the binary discriminant, and signed maximal minors of an
(n+1) x (n+2) matrix.  Each determinant is a fraction-free Bareiss
elimination (``_bareiss``).  A resultant with polynomial coefficients needs
two forms of one degree n, as for every Chow and Hurwitz form, and is the
determinant of their n x n Bezout matrix.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ExactnessError, PreconditionError
from .scalars import (
    EXACT,
    FLOAT,
    QQi,
    _qqi,
    coerce_scalar,
    scalar_is_zero,
    scalar_to_complex,
)

Exponent = Tuple[int, ...]

# Symbolic resultants above this form degree are refused; it equals
# ``forms.CURVE_DEGREE_CAP``, the largest degree any caller builds.  The Chow
# form of the rational normal curve of degree d (two forms of degree d in
# 2(d+1) variables) takes 0.016 s at d = 4 and 0.9 s at d = 5 on a 2-CPU host
# (median of 3): each degree costs over 50 times more.  At d = 6 it took
# 720 s, with a 735 MB peak, before products and divisions ran on packed keys.
SYMBOLIC_DEGREE_CAP = 5


class VariableShape:
    """Domain of a polynomial: vector(N+1) or matrix(rows k, cols N+1)."""

    __slots__ = ("kind", "rows", "cols")

    def __init__(self, kind: str, rows: int, cols: int):
        if kind not in ("vector", "matrix"):
            raise PreconditionError(f"unknown shape kind {kind!r}")
        if kind == "vector" and rows != 1:
            raise PreconditionError("vector shape must have rows=1")
        if rows < 1 or cols < 2:
            raise PreconditionError("shape requires k >= 1 and N >= 1")
        self.kind = kind
        self.rows = rows
        self.cols = cols

    @classmethod
    def vector(cls, n_plus_1: int) -> "VariableShape":
        return cls("vector", 1, n_plus_1)

    @classmethod
    def matrix(cls, rows: int, cols: int) -> "VariableShape":
        return cls("matrix", rows, cols)

    @property
    def nvars(self) -> int:
        return self.rows * self.cols

    def __eq__(self, other):
        return (
            isinstance(other, VariableShape)
            and (self.kind, self.rows, self.cols) == (other.kind, other.rows, other.cols)
        )

    def __hash__(self):
        return hash((self.kind, self.rows, self.cols))

    def __repr__(self):
        if self.kind == "vector":
            return f"VariableShape.vector({self.cols})"
        return f"VariableShape.matrix({self.rows}, {self.cols})"


def _nonzero(terms: Dict[Exponent, object]) -> Dict[Exponent, object]:
    """The terms whose coefficient did not cancel to zero (a QQi or complex
    is false exactly when scalar_is_zero holds)."""
    return {e: c for e, c in terms.items() if c}


class HomogeneousPolynomial:
    """Sparse homogeneous polynomial over a VariableShape.

    The zero polynomial (empty term map) is representable for internal
    arithmetic; stability-facing constructors reject it via require_nonzero.
    """

    __slots__ = ("shape", "degree", "terms", "mode")

    def __init__(self, shape: VariableShape, degree: int, terms: Dict[Exponent, object], mode: str):
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        if mode not in (EXACT, FLOAT):
            raise PreconditionError(f"unknown mode {mode!r}")
        clean: Dict[Exponent, object] = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != shape.nvars:
                raise DimensionError(
                    f"exponent length {len(exp)} != variable count {shape.nvars}"
                )
            if any(e < 0 for e in exp):
                raise PreconditionError("negative exponent")
            if sum(exp) != degree:
                raise PreconditionError(
                    f"term {exp} has total degree {sum(exp)}, expected {degree}"
                )
            c = coerce_scalar(c, mode)
            if scalar_is_zero(c):
                continue
            if exp in clean:
                raise PreconditionError("duplicate exponent key")
            clean[exp] = c
        self.shape = shape
        self.degree = degree
        self.terms = clean
        self.mode = mode

    @classmethod
    def _trusted(cls, shape: VariableShape, degree: int, terms: Dict[Exponent, object],
                 mode: str) -> "HomogeneousPolynomial":
        """A polynomial from terms the library built itself: int exponent tuples
        of the right length and degree, nonzero coefficients of the mode, in a
        dict the polynomial takes over.  ``__init__`` keeps every check for
        input from outside."""
        P = object.__new__(cls)
        P.shape, P.degree, P.mode, P.terms = shape, degree, mode, terms
        return P

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, shape: VariableShape, degree: int, mode: str = EXACT):
        return cls(shape, degree, {}, mode)

    @classmethod
    def constant(cls, shape: VariableShape, value, mode: str = EXACT):
        return cls(shape, 0, {(0,) * shape.nvars: value}, mode)

    @classmethod
    def monomial(cls, shape: VariableShape, exp: Exponent, coeff=1, mode: str = EXACT):
        return cls(shape, sum(exp), {tuple(exp): coeff}, mode)

    # -- basics -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def require_nonzero(self, what: str = "polynomial") -> "HomogeneousPolynomial":
        if self.is_zero:
            raise PreconditionError(f"zero {what} is not allowed here")
        return self

    @property
    def group_size(self) -> int:
        """N+1, the size of the matrices sigma that act on the columns."""
        return self.shape.cols

    def character_terms(self):
        """(raw torus character, coefficient) per monomial; the character is
        the column-degree vector, the per-column total exponent."""
        exps = np.array(list(self.terms), dtype=np.int64)
        chars = exps.reshape(len(exps), self.shape.rows, self.shape.cols).sum(axis=1)
        return zip(map(tuple, chars.tolist()), self.terms.values())

    def dense_amplitudes(self) -> Dict[tuple, object]:
        """{per-axis exponents: coefficient} for the dense layout of ``act``:
        one axis per row, holding that row's N+1 exponents."""
        n = self.shape.cols
        return {tuple(a[r:r + n] for r in range(0, len(a), n)): c for a, c in self.terms.items()}

    def sorted_terms(self) -> List[Tuple[Exponent, object]]:
        """Terms in descending lexicographic exponent order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_float(self) -> "HomogeneousPolynomial":
        if self.mode == FLOAT:
            return self
        return HomogeneousPolynomial(
            self.shape,
            self.degree,
            {e: scalar_to_complex(c) for e, c in self.terms.items()},
            FLOAT,
        )

    def map_coefficients(self, fn) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(
            self.shape, self.degree, {e: fn(c) for e, c in self.terms.items()}, self.mode
        )

    # -- ring operations ----------------------------------------------

    def _check_compat(self, other: "HomogeneousPolynomial"):
        if self.shape != other.shape:
            raise DimensionError("shape mismatch")
        if self.mode != other.mode:
            raise PreconditionError("mode mismatch")

    def __add__(self, other: "HomogeneousPolynomial"):
        self._check_compat(other)
        if self.degree != other.degree:
            raise PreconditionError("cannot add polynomials of different degrees")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return HomogeneousPolynomial._trusted(self.shape, self.degree, _nonzero(out), self.mode)

    def __neg__(self):
        return HomogeneousPolynomial._trusted(
            self.shape, self.degree, {e: -c for e, c in self.terms.items()}, self.mode
        )

    def __sub__(self, other: "HomogeneousPolynomial"):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            self._check_compat(other)
            degree = self.degree + other.degree
            base = degree + 1
            right = [(_pack(e, base), e, *_parts(c)) for e, c in other.terms.items()]
            # packed key -> [re, im]; each exponent tuple is built once, when
            # its key first appears, so the terms keep the order of first
            # appearance over the (left, right) term pairs
            out: Dict[int, list] = {}
            exps: Dict[int, Exponent] = {}
            for e1, c1 in self.terms.items():
                k1 = _pack(e1, base)
                a, b = _parts(c1)
                for k2, e2, c, d in right:
                    k = k1 + k2
                    s = out.get(k)
                    if s is None:
                        out[k] = [a * c - b * d, a * d + b * c]
                        exps[k] = tuple(map(operator.add, e1, e2))
                    else:
                        s[0] += a * c - b * d
                        s[1] += a * d + b * c
            scalar = _SCALAR[self.mode]
            return HomogeneousPolynomial._trusted(
                self.shape, degree,
                {exps[k]: scalar(*s) for k, s in out.items() if s[0] or s[1]}, self.mode
            )
        c = coerce_scalar(other, self.mode)
        if scalar_is_zero(c):
            return HomogeneousPolynomial.zero(self.shape, self.degree, self.mode)
        return self.map_coefficients(lambda x: x * c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power")
        result = HomogeneousPolynomial.constant(self.shape, 1, self.mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.shape == other.shape
            and self.degree == other.degree
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.shape, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return (
            f"HomogeneousPolynomial({self.shape!r}, degree={self.degree}, "
            f"nterms={len(self.terms)}, mode={self.mode!r})"
        )

    def derivative(self, var: int) -> "HomogeneousPolynomial":
        out: Dict[Exponent, object] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = c * k
        deg = self.degree - 1 if self.degree > 0 else 0
        return HomogeneousPolynomial._trusted(self.shape, deg, out, self.mode)

    # -- normalization -------------------------------------------------

    def content_normalized(self) -> "HomogeneousPolynomial":
        """Scale so coefficients are primitive with the leading one positive real.

        Divides by the lexicographically leading coefficient, then clears the
        rational content.  Exact mode only; the emitted scalar convention makes
        cross-construction ratio tests deterministic.

        c / lead is the positive multiple c conj(lead) / |lead|^2 of
        c conj(lead), and the primitive integer vector of a ray is the same
        for every positive multiple, so no coefficient is divided: they are
        multiplied by conj(lead) unless lead is a positive real already.
        """
        if self.is_zero:
            return self
        if self.mode != EXACT:
            raise ExactnessError("content normalization requires exact mode")
        lead = self.terms[max(self.terms)]
        lr, li = lead.re, lead.im
        coeffs = self.terms.values()
        if li or lr < 0:
            flat = [f for c in coeffs for f in (c.re * lr + c.im * li, c.im * lr - c.re * li)]
        else:
            flat = [f for c in coeffs for f in (c.re, c.im)]
        parts = primitive_integer_vector(flat)
        return HomogeneousPolynomial._trusted(
            self.shape,
            self.degree,
            {e: _qqi(parts[2 * i], parts[2 * i + 1]) for i, e in enumerate(self.terms)},
            EXACT,
        )


def primitive_integer_vector(values: Sequence[Fraction]) -> List[int]:
    """The integer vector with gcd 1 on the ray of a rational vector.

    Clears the denominators and divides out the content, so the result is a
    positive rational multiple of ``values``; an all-zero input comes back
    as zeros, and each caller decides what that means.
    """
    den = math.lcm(*(x.denominator for x in values))
    ints = [int(x * den) for x in values]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g else ints


def sum_zero_direction(values: Sequence[Fraction]) -> List[int]:
    """The primitive integer vector of values - mean(values), the exponents of
    a 1-PSG; all-equal values give zeros, and each caller decides what that means."""
    mean = sum(values, Fraction(0)) / len(values)
    return primitive_integer_vector([v - mean for v in values])


# ---------------------------------------------------------------------------
# group elements and one-parameter subgroups
# ---------------------------------------------------------------------------


class GroupElement:
    """Square matrix in SL(N+1); entries in one arithmetic mode.

    Exact mode requires det == 1 exactly; float mode tolerates |det - 1| <= 1e-9.
    """

    __slots__ = ("size", "entries", "mode")

    DET_TOL = 1e-9

    def __init__(self, entries: Sequence[Sequence[object]], mode: str):
        n = len(entries)
        rows = [[coerce_scalar(x, mode) for x in row] for row in entries]
        if any(len(r) != n for r in rows):
            raise DimensionError("group element must be square")
        self.size = n
        self.entries = rows
        self.mode = mode
        det = mat_det(rows, mode)
        if mode == EXACT:
            if det != QQi(1, 0):
                raise PreconditionError("exact group element must have det = 1")
        else:
            if abs(det - 1.0) > self.DET_TOL:
                raise PreconditionError(
                    f"float group element det {det} not within 1e-9 of 1"
                )


class OnePSG:
    """Algebraic one-parameter subgroup of the diagonal torus: t -> diag(t^a_i).

    The exponent vector must sum to zero so the subgroup lands in SL.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[int]):
        exps = tuple(int(a) for a in exponents)
        if sum(exps) != 0:
            raise PreconditionError("1-PSG exponents must sum to zero")
        self.exponents = exps

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"OnePSG({list(self.exponents)})"


# ---------------------------------------------------------------------------
# scalar matrix helpers (exact Gaussian elimination over the QQi field)
# ---------------------------------------------------------------------------


def mat_det(rows, mode: str):
    if mode == FLOAT:
        arr = np.array([[scalar_to_complex(x) for x in r] for r in rows], dtype=complex)
        return complex(np.linalg.det(arr))
    if not rows:
        return QQi(1, 0)
    det = _bareiss(rows, bool, operator.truediv)
    return QQi(0, 0) if det is None else det


def _bareiss(rows, nonzero, divexact):
    """Determinant of a square matrix over an exact ring, fraction-free Bareiss.

    ``nonzero`` tests an entry and ``divexact`` divides one entry by another.
    Each intermediate division is by the previous pivot and is exact by the
    Sylvester-identity invariant of the algorithm.  None when a column has
    no pivot, i.e. the determinant is zero.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if nonzero(m[r][k])), None)
        if piv is None:
            return None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numer = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = divexact(numer, prev) if prev is not None else numer
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# evaluation and the group action
# ---------------------------------------------------------------------------


def _flatten_point(point, shape: VariableShape):
    if isinstance(point, np.ndarray):
        point = point.tolist()
    flat: List[object] = []
    if point and isinstance(point[0], (list, tuple)):
        for row in point:
            flat.extend(row)
    else:
        flat = list(point)
    if len(flat) != shape.nvars:
        raise DimensionError(
            f"point has {len(flat)} entries, shape expects {shape.nvars}"
        )
    return flat


def evaluate(P: HomogeneousPolynomial, point) -> object:
    """Evaluate P at a vector or matrix of scalars matching P.shape."""
    flat = [coerce_scalar(x, P.mode) for x in _flatten_point(point, P.shape)]
    zero = QQi(0, 0) if P.mode == EXACT else 0j
    total = zero
    for exp, c in P.terms.items():
        val = c
        for v, e in enumerate(exp):
            if e == 0:
                continue
            base = flat[v]
            if scalar_is_zero(base):
                val = zero
                break
            for _ in range(e):
                val = val * base
        total = total + val
    return total


def _sigma_array(sigma, mode: str, n: int) -> np.ndarray:
    """sigma, a GroupElement or a square matrix of scalars, as an n x n array:
    QQi objects in exact mode (a float entry raises ExactnessError), complex128
    in float mode.  The one converter of sigma for the action, the Kempf-Ness
    value and gradient, the Mahler distances and the quadrature oracle; any
    sigma with a scalar row (1-D), a ragged row or another size raises
    DimensionError."""
    if isinstance(sigma, GroupElement):
        sigma = sigma.entries
    elif isinstance(sigma, np.ndarray):
        sigma = sigma.tolist()
    if len(sigma) != n or any(not hasattr(r, "__len__") or len(r) != n for r in sigma):
        raise DimensionError(f"group element must be {n} x {n}")
    rows = [[coerce_scalar(x, mode) for x in row] for row in sigma]
    return np.array(rows, dtype=object if mode == EXACT else np.complex128)


def _scale_split(sigma: np.ndarray) -> Tuple[np.ndarray, float]:
    """(sigma / s, log s) with s = max |sigma_ij|: the one rescaling of a
    float sigma before its powers or a polynomial evaluation, so that the
    degree-d work stays in range and log s re-enters as d log s."""
    s = float(np.max(np.abs(sigma)))
    if s == 0.0:
        raise PreconditionError("zero matrix")
    return sigma / s, math.log(s)


# Cap on the entries of any dense array the action allocates, exact or float:
# a tensor, one S^d(sigma), its gather chunk or one moment gather of the
# Kempf-Ness functional.
# The twisted cubic's Delta^6, one Sym^24(C^4) axis, needs an 8.6 M-entry
# S^24; a degree-5 Chow form on P^4 (126^4 = 2.5e8 entries) is refused.
DENSE_ENTRY_CAP = 10_000_000
_RECURSION_CHUNK = 1 << 20  # entries of the S^d gather held at a time
# An exact action runs on int64 only under a bound below this (_int64_scaled).
INT64_LIMIT = 2 ** 63


def _filled(shape, dtype, value) -> np.ndarray:
    """An array of the mode's ``value``: QQi(value) in an object array."""
    return np.full(shape, QQi(value) if dtype == object else value, dtype=dtype)


def _sym_dim(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def _sym_basis(n: int, d: int) -> Dict[Exponent, int]:
    """Positions of the degree-d monomials in n variables, descending lex order."""
    if n == 1:
        return {(d,): 0}
    order = ((k,) + rest for k in range(d, -1, -1) for rest in _sym_basis(n - 1, d - k))
    return {a: pos for pos, a in enumerate(order)}


@lru_cache(maxsize=None)
def _sym_exponents(n: int, d: int) -> np.ndarray:
    """The monomials of ``_sym_basis`` as the rows of an int array."""
    return np.array(list(_sym_basis(n, d)), dtype=np.int64).reshape(-1, n)


@lru_cache(maxsize=None)
def _sym_step(n: int, d: int):
    """Tables (up, root) from Sym^(d-1) to Sym^d of C^n: up[i, c] is the
    position of c + e_i and root[i, c] = sqrt(c_i + 1)."""
    lower = _sym_exponents(n, d - 1)
    pos = _sym_basis(n, d)
    up = np.array([[pos[c] for c in map(tuple, (lower + e).tolist())]
                   for e in np.eye(n, dtype=int)])
    return up, np.sqrt(lower.T + 1.0)


@lru_cache(maxsize=None)
def _sym_gather(n: int, d: int):
    """Tables (down, first, src) of the S^d step of ``_sym_powers``, over the
    degree-d monomials a, b of C^n: down[i, a] is the position of a - e_i
    in Sym^(d-1), or its dimension (the zero pad row) when a_i = 0; first[b]
    is the first variable of b and src[b] the position of b - e_first(b)."""
    lower = _sym_basis(n, d - 1)
    basis = list(_sym_basis(n, d))
    down = [[lower[a[:i] + (a[i] - 1,) + a[i + 1:]] if a[i] else len(lower) for a in basis]
            for i in range(n)]
    first = [next(j for j, x in enumerate(b) if x) for b in basis]
    src = [lower[b[:j] + (b[j] - 1,) + b[j + 1:]] for b, j in zip(basis, first)]
    return np.array(down)[:, :, None], np.array(first), np.array(src)


def _gather_rows(n: int, dim: int) -> int:
    """Rows of S^d gathered at a time: n x rows x dim entries stay within
    _RECURSION_CHUNK unless one row alone is larger."""
    return min(dim, max(1, _RECURSION_CHUNK // (n * dim)))


def _power_entries(n: int, d: int) -> int:
    """Entries of the largest array the S^d step holds: S^d or its gather."""
    dim = _sym_dim(n, d)
    return max(dim * dim, n * _gather_rows(n, dim) * dim)


def _sym_powers(sigma: np.ndarray, degrees) -> Dict[int, np.ndarray]:
    """S^d(sigma) for each d in degrees: S^d[a, b] is the coefficient of z^a
    in (z sigma)^b, S^0 = 1 and, for each d, one gather-multiply-sum

        S^d[a, b] = sum_i sigma[i, first(b)] pad(S^(d-1))[down_i(a), src(b)]

    with the tables of ``_sym_gather``; pad(S^(d-1)) has a zero row after
    its last, which down_i(a) reads when a_i = 0.  The sum runs over i in
    increasing order, the product as S^(d-1) entry times sigma entry, over
    chunks of ``_gather_rows`` rows.  No square roots enter, so one loop
    serves int64 numerators (under the bound of ``_int64_scaled``), QQi
    objects and complex doubles.
    """
    n, dtype = sigma.shape[0], sigma.dtype
    powers = {0: _filled((1, 1), dtype, 1)}
    prev = np.concatenate([powers[0], _filled((1, 1), dtype, 0)])
    for d in range(1, max(degrees, default=0) + 1):
        down, first, src = _sym_gather(n, d)
        dim = len(first)
        sig = sigma[:, first][:, None, :]
        # S^d above its zero pad row, which the next step reads
        cur = np.empty((dim + 1, dim), dtype)
        cur[dim] = _filled(dim, dtype, 0)
        step = _gather_rows(n, dim)
        for lo in range(0, dim, step):
            terms = prev[down[:, lo:lo + step], src]
            terms *= sig
            np.add.reduce(terms, axis=0, out=cur[lo:min(lo + step, dim)])
            del terms  # one chunk at a time: freed before the next is gathered
        prev = cur
        if d in degrees:
            powers[d] = cur[:dim]
    return powers


def _dense_blocks(n: int, amplitudes: dict, dtype=np.complex128, parts: tuple = ()) -> list:
    """[(axis degrees, tensor)] from {per-axis exponents: amplitude}, one
    tensor per degree profile, refused above DENSE_ENTRY_CAP before allocation:
    the tensor, each S^d and its gather, and each moment gather.  ``parts``
    is a trailing shape that each amplitude fills (the int64 route's real and
    imaginary numerators); the action never contracts it."""
    profiles = sorted({tuple(map(sum, axes)) for axes in amplitudes})
    for degs in profiles:
        dims = [_sym_dim(n, d) for d in degs]
        size = math.prod(dims)
        largest = max([size] + [max(_power_entries(n, d), n * _sym_dim(n, d - 1) * size // dim)
                                for d, dim in zip(degs, dims) if d > 0])
        if largest > DENSE_ENTRY_CAP:
            raise PreconditionError(
                f"dense norm tensor of shape {tuple(dims)} needs an array of {largest} "
                f"entries, above the cap of {DENSE_ENTRY_CAP}"
            )
    basis = {d: _sym_basis(n, d) for degs in profiles for d in degs}
    entries: Dict[tuple, list] = {degs: [] for degs in profiles}
    for axes, z in amplitudes.items():
        entries[tuple(map(sum, axes))].append((tuple(basis[sum(a)][a] for a in axes), z))
    blocks = []
    for degs in profiles:
        y = _filled(tuple(_sym_dim(n, d) for d in degs) + parts, dtype, 0)
        # each amplitude has its own entry: one fancy-index assignment per tensor
        index, values = zip(*entries[degs])
        y[tuple(zip(*index))] = values
        blocks.append((degs, y))
    return blocks


def _act_blocks(powers: Dict[int, np.ndarray], blocks: list) -> list:
    """[(axis degrees, tensor)] with S^d(sigma), from ``powers``, applied
    along every axis."""
    out = []
    for degs, y in blocks:
        for axis, d in enumerate(degs):
            y = np.moveaxis(np.tensordot(powers[d], y, axes=([1], [axis])), 0, axis)
        out.append((degs, y))
    return out


def _int64_scaled(sig: np.ndarray, amplitudes: dict):
    """An exact action as int64 numerators, or None when it might overflow.

    sigma' = L sigma and a' = M a clear every denominator.  Let c be the
    largest column sum of |sigma'| and D the total degree of the amplitudes
    (one for all: polynomials are homogeneous, a tensor has one block).  A
    column of S^d(sigma') sums in absolute value to at most c^d, so every
    entry and partial sum of S^d for d <= D, and of each contraction, is at
    most B = max(|Re a'|_1, |Im a'|_1, 1) max(c, 1)^D, and int64 cannot wrap
    while B < 2^63.  Returns (sigma', {axes: numerators}, parts, M L^D):
    each amplitude has its real numerator and, when any amplitude has an
    imaginary part, its imaginary one, so parts is (1,) or (2,).  None when
    sigma has an imaginary part or B >= 2^63.
    """
    entries = sig.ravel().tolist()
    if any(x.im for x in entries):
        return None
    scale = math.lcm(*(x.re.denominator for x in entries))
    values = amplitudes.values()
    den = math.lcm(*(p.denominator for z in values for p in (z.re, z.im)))
    parts = 2 if any(z.im for z in values) else 1
    numerators = {axes: tuple(int(p * den) for p in (z.re, z.im)[:parts])
                  for axes, z in amplitudes.items()}
    sig_int = [[int(x.re * scale) for x in row] for row in sig.tolist()]
    c = max(sum(abs(x) for x in col) for col in zip(*sig_int))
    degree = max((sum(map(sum, axes)) for axes in amplitudes), default=0)
    norm = max([1] + [sum(abs(v[k]) for v in numerators.values()) for k in range(parts)])
    if norm * max(c, 1) ** degree >= INT64_LIMIT:
        return None
    return np.array(sig_int, dtype=np.int64), numerators, (parts,), den * scale ** degree


def _act_dense(sigma, vec) -> list:
    """[(axis degrees, tensor, den)]: sigma acting on ``vec.dense_amplitudes()``,
    with ``_sym_powers`` built over the degrees of its own blocks.

    In exact mode the tensors hold int64 numerators over den, real and
    imaginary parts on a trailing axis, when ``_int64_scaled`` proves they
    fit, and QQi objects otherwise; in float mode complex doubles.  den is
    None unless the tensors are numerators.
    """
    n = vec.group_size
    sig = _sigma_array(sigma, vec.mode, n)
    amplitudes = vec.dense_amplitudes()
    scaled = _int64_scaled(sig, amplitudes) if vec.mode == EXACT else None
    if scaled is None:
        blocks, den = _dense_blocks(n, amplitudes, sig.dtype), None
    else:
        sig, numerators, parts, den = scaled
        blocks = _dense_blocks(n, numerators, np.int64, parts)
    powers = _sym_powers(sig, {d for degs, _ in blocks for d in degs})
    return [(degs, y, den) for degs, y in _act_blocks(powers, blocks)]


def _nonzero_entries(y: np.ndarray, den=None):
    """(index arrays, Python scalars) of the entries of y that are not exactly
    zero, in C order, as ``np.nonzero`` gives them.  With ``den``, y holds
    int64 numerators on its last axis (``_act_dense``) and each entry comes
    back as a QQi over den, with int or Fraction parts."""
    if den is None:
        nz = np.nonzero(y)
        return nz, y[nz].tolist()
    nz = np.nonzero(y.any(axis=-1))
    parts = y[nz].T.tolist()
    re, im = parts if len(parts) == 2 else (parts[0], [0] * len(parts[0]))
    if den != 1:
        re, im = ([Fraction(p, den) for p in x] for x in (re, im))
    return nz, list(map(_qqi, re, im))


def act(sigma, P: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Right substitution action (sigma . P)(A) = P(A sigma).

    ``sigma`` is a GroupElement or a plain square matrix of scalars; its size
    must match P's column count.  Composition satisfies
    act(tau, act(sigma, P)) == act(tau @ sigma, P), and the degree is preserved.
    Scalar matrices are accepted too: containment and support tests are
    invariant under scaling, which keeps exact-mode probing in the rationals.
    The terms go through the dense action (``_act_dense``), one axis per row,
    and the entries that are not exactly zero come back as terms.
    """
    n = P.group_size
    terms: Dict[Exponent, object] = {}
    for degs, y, den in _act_dense(sigma, P):
        nz, values = _nonzero_entries(y, den)
        # each entry's exponent: the monomials of its axes, row after row
        exps = np.concatenate([_sym_exponents(n, d)[i] for d, i in zip(degs, nz)], axis=1)
        terms.update(zip(map(tuple, exps.tolist()), values))
    return HomogeneousPolynomial._trusted(P.shape, P.degree, terms, P.mode)


# ---------------------------------------------------------------------------
# binary forms: coefficient extraction, Sylvester resultants, discriminants
# ---------------------------------------------------------------------------


def binary_coeffs(f: HomogeneousPolynomial) -> List[object]:
    """Coefficients of a binary form by descending x-power: [x^d, ..., y^d]."""
    if f.shape.nvars != 2:
        raise DimensionError("binary form must have exactly two variables")
    d = f.degree
    zero = QQi(0, 0) if f.mode == EXACT else 0j
    out = [zero] * (d + 1)
    for (i, j), c in f.terms.items():
        out[d - i] = c
    return out


def _sylvester_rows(fc: List[object], gc: List[object], zero):
    """Sylvester matrix rows, padded with ``zero``."""
    p, q = len(fc) - 1, len(gc) - 1
    n = p + q
    rows = []
    for i in range(q):
        rows.append([zero] * i + list(fc) + [zero] * (n - p - 1 - i))
    for i in range(p):
        rows.append([zero] * i + list(gc) + [zero] * (n - q - 1 - i))
    return rows


def _seq_is_zero(coeffs) -> bool:
    return all(c.is_zero if isinstance(c, HomogeneousPolynomial)
               else scalar_is_zero(coerce_scalar(c, EXACT)) for c in coeffs)


def sylvester_resultant(f, g):
    """Resultant of two nonzero binary forms: the Sylvester determinant.

    ``f`` and ``g`` are exact binary HomogeneousPolynomials, or coefficient
    sequences by descending power of the first variable.  Scalar
    coefficients give a QQi.  Coefficients that are polynomials in auxiliary
    variables give a polynomial (both forms of one degree n), by Bareiss
    elimination of the n x n Bezout matrix.  Vanishes iff f and g share a
    projective root.  A float coefficient raises ExactnessError.
    """
    fc = binary_coeffs(f) if isinstance(f, HomogeneousPolynomial) else list(f)
    gc = binary_coeffs(g) if isinstance(g, HomogeneousPolynomial) else list(g)
    if _seq_is_zero(fc) or _seq_is_zero(gc):
        raise PreconditionError("zero form has no resultant")
    if any(isinstance(c, HomogeneousPolynomial) for c in fc + gc):
        return _symbolic_resultant(fc, gc)
    fc, gc = ([coerce_scalar(c, EXACT) for c in h] for h in (fc, gc))
    # two constants give the empty Sylvester matrix, whose determinant is 1
    return mat_det(_sylvester_rows(fc, gc, QQi(0, 0)), EXACT)


def _symbolic_resultant(fc, gc) -> HomogeneousPolynomial:
    sample = next(c for c in list(fc) + list(gc) if isinstance(c, HomogeneousPolynomial))
    shape, mode = sample.shape, sample.mode
    if mode != EXACT:
        raise ExactnessError("symbolic resultants require exact coefficients")
    p, q = len(fc) - 1, len(gc) - 1
    if p != q:
        raise PreconditionError(f"symbolic resultant needs forms of one degree, got {p} and {q}")
    if p > SYMBOLIC_DEGREE_CAP:
        raise PreconditionError(
            f"symbolic resultant capped at form degree {SYMBOLIC_DEGREE_CAP}"
        )

    def lift(c, deg):
        if isinstance(c, HomogeneousPolynomial):
            if c.shape != shape or c.degree != deg:
                raise DimensionError("symbolic coefficients must share shape and degree")
            return c
        c = coerce_scalar(c, mode)
        if scalar_is_zero(c):
            return HomogeneousPolynomial.zero(shape, deg, mode)
        if deg == 0:
            return HomogeneousPolynomial.constant(shape, c, mode)
        raise PreconditionError(
            "nonzero scalar coefficients cannot mix with positive-degree polynomial ones"
        )

    fdeg = next((c.degree for c in fc if isinstance(c, HomogeneousPolynomial)), 0)
    gdeg = next((c.degree for c in gc if isinstance(c, HomogeneousPolynomial)), 0)
    return _bezout_resultant([lift(c, fdeg) for c in fc], [lift(c, gdeg) for c in gc])


def _bezout_resultant(f, g) -> HomogeneousPolynomial:
    """Res(f, g) of two forms of equal degree n, as (-1)^(n(n-1)/2) times the
    determinant of their n x n Bezout matrix.

    With coefficients by ascending power, the bracket f_p g_q - f_q g_p
    (p < q) enters the entries (p + r, q - 1 - r), r = 0 .. q - p - 1, with
    a minus sign; this is the Sylvester determinant's polynomial, sign
    included, from an elimination of half the size.  Two constants have
    resultant 1.  Terms come back in ``sorted_terms`` order
    (``bareiss_poly_det``).
    """
    n = len(f) - 1
    shape, mode = f[0].shape, f[0].mode
    if n == 0:
        return HomogeneousPolynomial.constant(shape, 1, mode)
    f, g = f[::-1], g[::-1]
    zero = HomogeneousPolynomial.zero(shape, f[0].degree + g[0].degree, mode)
    rows = [[zero] * n for _ in range(n)]
    for q in range(1, n + 1):
        for p in range(q):
            c = f[p] * g[q] - f[q] * g[p]
            for r in range(q - p):
                rows[p + r][q - 1 - r] = rows[p + r][q - 1 - r] - c
    det = bareiss_poly_det(rows)
    return -det if n * (n - 1) // 2 % 2 else det


# The scalar of a mode from its (re, im) components: the loops of the product
# and of exact division run on components and build one scalar per term.
_SCALAR = {EXACT: _qqi, FLOAT: complex}


def _parts(c) -> tuple:
    """(re, im) of a coefficient: the exact rational components of a QQi,
    the float ones of a complex.  Products on components use CPython's
    complex product, (a c - b d, a d + b c), so both modes get the bits of
    their scalar arithmetic."""
    return (c.re, c.im) if type(c) is QQi else (c.real, c.imag)


def _pack(e: Exponent, base: int) -> int:
    """An exponent tuple as one int, big-endian in ``base``.  With every
    exponent below base, int order is lex order and int addition is exponent
    addition."""
    k = 0
    for a in e:
        k = k * base + a
    return k


def _unpack(k: int, base: int, n: int) -> Exponent:
    """The n-tuple that ``_pack`` encodes as k."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        k, out[i] = divmod(k, base)
    return tuple(out)


def poly_divexact(num: HomogeneousPolynomial, den: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact division num / den in the multivariate ring (remainder must be 0).

    Exact mode only.  The remainder is kept on packed keys in base
    num.degree + 1, which bounds every exponent of num, of den times a
    quotient term and so of the remainder, and as (re, im) components
    (``_parts``); only each leading term is unpacked, to test divisibility
    and build the quotient exponent, and made a scalar, to divide it.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return HomogeneousPolynomial.zero(num.shape, max(num.degree - den.degree, 0), num.mode)
    n, base = num.shape.nvars, num.degree + 1
    scalar = _SCALAR[num.mode]
    lead_den_exp = max(den.terms)
    lead_den_c = den.terms[lead_den_exp]
    lead_den_k = _pack(lead_den_exp, base)
    den_terms = [(_pack(e, base), *_parts(c)) for e, c in den.terms.items()]
    qterms: Dict[Exponent, object] = {}
    rem = {_pack(e, base): _parts(c) for e, c in num.terms.items()}
    # max-heap of the remainder's keys with lazy deletion: a popped key no
    # longer in rem was cancelled, and every key in rem is on the heap
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while rem:
        lead_k = -heapq.heappop(heap)
        lead_c = rem.get(lead_k)
        if lead_c is None:
            continue
        qexp = tuple(map(operator.sub, _unpack(lead_k, base, n), lead_den_exp))
        if min(qexp) < 0:
            raise PreconditionError("inexact polynomial division")
        qc = scalar(*lead_c) / lead_den_c
        qterms[qexp] = qc
        a, b = _parts(qc)
        qk = lead_k - lead_den_k
        for kd, c, d in den_terms:
            k = qk + kd
            re, im = a * c - b * d, a * d + b * c
            s = rem.get(k)
            if s is None:
                heapq.heappush(heap, -k)
                rem[k] = (-re, -im)
                continue
            re, im = s[0] - re, s[1] - im
            if re or im:
                rem[k] = (re, im)
            else:
                del rem[k]
    return HomogeneousPolynomial._trusted(num.shape, num.degree - den.degree, qterms, num.mode)


def bareiss_poly_det(rows: List[List[HomogeneousPolynomial]]) -> HomogeneousPolynomial:
    """Determinant of a matrix of exact polynomials (``_bareiss``), with its
    terms in ``sorted_terms`` order, whatever the elimination did."""
    det = _bareiss(rows, lambda e: not e.is_zero, poly_divexact)
    if det is None:
        total_deg = sum(row[0].degree for row in rows)
        return HomogeneousPolynomial.zero(rows[0][0].shape, total_deg, rows[0][0].mode)
    return HomogeneousPolynomial._trusted(det.shape, det.degree, dict(det.sorted_terms()), det.mode)


def binary_discriminant(f):
    """Discriminant of an exact binary form of degree d >= 2.

    Defined as Res(df/dx, df/dy) divided by d^(d-2); vanishes iff f has a
    repeated projective root, and has degree 2d-2 in the coefficients of f.
    Coefficients are exact, as for ``sylvester_resultant``.
    """
    if isinstance(f, HomogeneousPolynomial):
        coeffs = binary_coeffs(f)
    else:
        coeffs = list(f)
    d = len(coeffs) - 1
    if d < 2:
        raise PreconditionError("discriminant requires degree >= 2")
    # f = sum coeffs[i] x^(d-i) y^i; partials by descending x-power
    fx = [coeffs[i] * (d - i) for i in range(d)]
    fy = [coeffs[i + 1] * (i + 1) for i in range(d)]
    return sylvester_resultant(fx, fy) * QQi(Fraction(1, d ** (d - 2)), 0)


def maximal_minors(A) -> List[object]:
    """Signed maximal minors of an (n+1) x (n+2) matrix of exact scalars, or
    of exact polynomials of one shape (the generic matrix of variables gives
    them as polynomials in its entries).  Mixing the two is refused, and a
    float entry raises ExactnessError.

    Minor j is the Bareiss determinant with column j deleted, times (-1)^j;
    for full-rank A the result spans ker(A), and A @ minors(A) = 0.
    """
    rows = [list(r) for r in (A.tolist() if isinstance(A, np.ndarray) else A)]
    n1 = len(rows)
    if any(len(r) != n1 + 1 for r in rows):
        raise DimensionError("maximal minors need rows = cols - 1")
    polys = [x for r in rows for x in r if isinstance(x, HomogeneousPolynomial)]
    if polys and len(polys) < n1 * (n1 + 1):
        raise PreconditionError("maximal minors need all-scalar or all-polynomial entries")
    if any(x.mode != EXACT for x in polys):
        raise ExactnessError("maximal minors require exact entries")
    if not polys:
        rows = [[coerce_scalar(x, EXACT) for x in r] for r in rows]
    det = bareiss_poly_det if polys else partial(mat_det, mode=EXACT)
    out = []
    for j in range(n1 + 1):
        d = det([r[:j] + r[j + 1:] for r in rows])
        out.append(d if j % 2 == 0 else -d)
    return out
