"""Sparse homogeneous polynomial arithmetic and elimination primitives.

A polynomial is a map from exponent tuples to nonzero coefficients,

    terms: Dict[Tuple[int, ...], QQi | complex]

over the variables of a :class:`VariableShape` (a vector of length N+1, or
a k x (N+1) matrix flattened row-major).  Every stored exponent tuple sums
to the polynomial's degree; zero coefficients are never stored.  Exact mode
uses Gaussian-rational coefficients and is closed under all operations here;
float mode uses complex doubles.

The group acts by right substitution

    (sigma . P)(A) = P(A sigma)

so a diagonal torus element multiplies a monomial by t^(column degrees),
which is what the weight machinery in :mod:`stablepairs.weights` relies on.
Composing two substitutions gives ``act(tau, act(sigma, P)) == act(tau @ sigma, P)``.

There is one action of sigma, exact and float alike: dense tensors with one
axis per polynomial row or tensor slot, S^d(sigma) applied along each axis
(``_sym_powers``).  ``act``, ``weights.act_tensor`` and the Kempf-Ness
functional of :mod:`stablepairs.pairs` all use it.

Elimination primitives: Sylvester resultants of binary forms (with scalar or
polynomial coefficients, the latter by fraction-free Bareiss elimination),
the binary discriminant, and signed maximal minors of an (n+1) x (n+2)
matrix.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ExactnessError, PreconditionError
from .scalars import (
    EXACT,
    FLOAT,
    QQi,
    coerce_scalar,
    scalar_is_zero,
    scalar_to_complex,
)

Exponent = Tuple[int, ...]

# Symbolic Sylvester matrices above this form degree are refused: the
# fraction-free elimination blows up combinatorially beyond it.
SYMBOLIC_DEGREE_CAP = 6


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

    def column_degrees(self, exp: Exponent) -> Tuple[int, ...]:
        """Per-column total exponent of a monomial (its torus character)."""
        out = [0] * self.cols
        for v, e in enumerate(exp):
            out[v % self.cols] += e
        return tuple(out)

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
        of the right length and degree, coefficients of the mode; the ones that
        cancelled to zero are dropped.  ``__init__`` keeps every check for
        input from outside."""
        P = object.__new__(cls)
        P.shape, P.degree, P.mode = shape, degree, mode
        P.terms = {e: c for e, c in terms.items() if not scalar_is_zero(c)}
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

    def support_characters(self) -> set:
        """Raw torus characters (column-degree vectors) of the monomials."""
        return {self.shape.column_degrees(exp) for exp in self.terms}

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
        return HomogeneousPolynomial._trusted(self.shape, self.degree, out, self.mode)

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            self._check_compat(other)
            out: Dict[Exponent, object] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    s = out.get(e)
                    out[e] = c if s is None else s + c
            return HomogeneousPolynomial._trusted(
                self.shape, self.degree + other.degree, out, self.mode
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
        """
        if self.is_zero:
            return self
        if self.mode != EXACT:
            raise ExactnessError("content normalization requires exact mode")
        lead = self.sorted_terms()[0][1]
        scaled = [(e, c / lead) for e, c in self.terms.items()]
        parts = primitive_integer_vector([f for _, c in scaled for f in (c.re, c.im)])
        return HomogeneousPolynomial(
            self.shape,
            self.degree,
            {e: QQi(parts[2 * i], parts[2 * i + 1]) for i, (e, _) in enumerate(scaled)},
            EXACT,
        )


def primitive_integer_vector(values: Sequence[Fraction]) -> List[int]:
    """The integer vector with gcd 1 on the ray of a rational vector.

    Clears the denominators and divides out the content, so the result is a
    positive rational multiple of ``values``; an all-zero input comes back
    as zeros, and each caller decides what that means.
    """
    den = 1
    for x in values:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in values]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return [x // g for x in ints] if g else ints


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

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[scalar_to_complex(x) for x in row] for row in self.entries],
            dtype=np.complex128,
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
    in float mode."""
    if isinstance(sigma, GroupElement):
        sigma = sigma.entries
    elif isinstance(sigma, np.ndarray):
        sigma = sigma.tolist()
    if len(sigma) != n or any(len(r) != n for r in sigma):
        raise DimensionError(f"group element size {len(sigma)} != column count {n}")
    rows = [[coerce_scalar(x, mode) for x in row] for row in sigma]
    return np.array(rows, dtype=object if mode == EXACT else np.complex128)


# Cap on the entries of any dense array the action allocates, exact or float:
# a tensor, one S^d(sigma) or one moment gather of the Kempf-Ness functional.
# The twisted cubic's Delta^6, one Sym^24(C^4) axis, needs an 8.6 M-entry
# S^24; a degree-5 Chow form on P^4 (126^4 = 2.5e8 entries) is refused.
DENSE_ENTRY_CAP = 10_000_000
_RECURSION_CHUNK = 1 << 20  # entries of S^(d-1) read at a time


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
def _sym_step(n: int, d: int):
    """Tables (up, root, cols) from Sym^(d-1) to Sym^d of C^n: up[i, c] is the
    position of c + e_i and root[i, c] = sqrt(c_i + 1); the b whose first
    variable is j fill the slice cols[j]."""
    lower = np.array(list(_sym_basis(n, d - 1)))
    pos = _sym_basis(n, d)
    up = np.array([[pos[c] for c in map(tuple, (lower + e).tolist())]
                   for e in np.eye(n, dtype=int)])
    cols = [slice(len(pos) - _sym_dim(n - j, d), len(pos) - _sym_dim(n - j - 1, d))
            for j in range(n)]
    return up, np.sqrt(lower.T + 1.0), cols


def _sym_powers(sigma: np.ndarray, degrees) -> Dict[int, np.ndarray]:
    """S^d(sigma) for each d in degrees: S^d[a, b] is the coefficient of z^a
    in (z sigma)^b, S^0 = 1 and, for j the first variable of b,

        S^d[a, b] = sum_i sigma[i, j] S^(d-1)[a - e_i, b - e_j].

    No square roots enter, so one loop serves QQi objects and complex doubles.
    """
    n = sigma.shape[0]
    powers = {0: _filled((1, 1), sigma.dtype, 1)}
    prev = powers[0]
    for d in range(1, max(degrees, default=0) + 1):
        up, _, cols = _sym_step(n, d)
        dim = _sym_dim(n, d)
        cur = _filled((dim, dim), sigma.dtype, 0)
        step = max(1, _RECURSION_CHUNK // dim)
        for rows in (slice(lo, lo + step) for lo in range(0, len(prev), step)):
            for i in range(n):
                for j, blk in enumerate(cols):
                    if sigma[i, j]:
                        # b - e_j runs in order over the last len(blk) monomials;
                        # the array goes first: QQi * ndarray is refused
                        cur[up[i, rows], blk] += prev[rows, blk.start - blk.stop:] * sigma[i, j]
        prev = cur
        if d in degrees:
            powers[d] = cur
    return powers


def _dense_blocks(n: int, amplitudes: dict, dtype=np.complex128) -> list:
    """[(axis degrees, tensor)] from {per-axis exponents: amplitude}, one
    tensor per degree profile, refused above DENSE_ENTRY_CAP before allocation."""
    profiles = sorted({tuple(map(sum, axes)) for axes in amplitudes})
    for degs in profiles:
        dims = [_sym_dim(n, d) for d in degs]
        size = math.prod(dims)
        largest = max([size] + [max(dim * dim, n * _sym_dim(n, d - 1) * size // dim)
                                for d, dim in zip(degs, dims) if d > 0])
        if largest > DENSE_ENTRY_CAP:
            raise PreconditionError(
                f"dense norm tensor of shape {tuple(dims)} needs an array of {largest} "
                f"entries, above the cap of {DENSE_ENTRY_CAP}"
            )
    blocks = {degs: _filled(tuple(_sym_dim(n, d) for d in degs), dtype, 0) for degs in profiles}
    for axes, z in amplitudes.items():
        degs = tuple(map(sum, axes))
        blocks[degs][tuple(_sym_basis(n, d)[a] for a, d in zip(axes, degs))] += z
    return list(blocks.items())


def _act_blocks(sigma: np.ndarray, blocks: list) -> list:
    """[(axis degrees, tensor)] with S^d(sigma) applied along every axis."""
    powers = _sym_powers(sigma, {d for degs, _ in blocks for d in degs})
    out = []
    for degs, y in blocks:
        for axis, d in enumerate(degs):
            y = np.moveaxis(np.tensordot(powers[d], y, axes=([1], [axis])), 0, axis)
        out.append((degs, y))
    return out


def _nonzero_entries(y: np.ndarray):
    """(index tuple, Python scalar) for every entry of y that is not exactly zero."""
    nz = np.nonzero(y)
    return zip(zip(*(i.tolist() for i in nz)), y[nz].tolist())


def act(sigma, P: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Right substitution action (sigma . P)(A) = P(A sigma).

    ``sigma`` is a GroupElement or a plain square matrix of scalars; its size
    must match P's column count.  Composition satisfies
    act(tau, act(sigma, P)) == act(tau @ sigma, P), and the degree is preserved.
    Scalar matrices are accepted too: containment and support tests are
    invariant under scaling, which keeps exact-mode probing in the rationals.
    The terms go through the dense action, one axis per row, and the entries
    that are not exactly zero come back as terms.
    """
    n = P.shape.cols
    sig = _sigma_array(sigma, P.mode, n)
    blocks = _dense_blocks(n, {_row_axes(a, n): c for a, c in P.terms.items()}, sig.dtype)
    terms: Dict[Exponent, object] = {}
    for degs, y in _act_blocks(sig, blocks):
        bases = [list(_sym_basis(n, d)) for d in degs]
        for idx, c in _nonzero_entries(y):
            terms[sum((b[i] for b, i in zip(bases, idx)), ())] = c
    return HomogeneousPolynomial._trusted(P.shape, P.degree, terms, P.mode)


def _row_axes(exp: Exponent, n: int) -> Tuple[Exponent, ...]:
    """A monomial's exponent split into its rows of n variables."""
    return tuple(exp[r:r + n] for r in range(0, len(exp), n))


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


def _is_poly_seq(coeffs) -> bool:
    return any(isinstance(c, HomogeneousPolynomial) for c in coeffs)


def _sylvester_rows(fc: List[object], gc: List[object], zero, gzero=None):
    """Sylvester matrix rows; the g-rows pad with ``gzero`` when it is given."""
    gzero = zero if gzero is None else gzero
    p, q = len(fc) - 1, len(gc) - 1
    n = p + q
    rows = []
    for i in range(q):
        rows.append([zero] * i + list(fc) + [zero] * (n - p - 1 - i))
    for i in range(p):
        rows.append([gzero] * i + list(gc) + [gzero] * (n - q - 1 - i))
    return rows


def _seq_is_zero(coeffs) -> bool:
    for c in coeffs:
        if isinstance(c, HomogeneousPolynomial):
            if not c.is_zero:
                return False
        elif not scalar_is_zero(coerce_scalar(c, EXACT) if isinstance(c, (int, Fraction, QQi)) else complex(c)):
            return False
    return True


def sylvester_resultant(f, g):
    """Resultant of two nonzero binary forms via the Sylvester determinant.

    ``f`` and ``g`` are HomogeneousPolynomials in two variables, or coefficient
    sequences by descending power of the first variable.  Scalar coefficients
    give a scalar; coefficients that are themselves polynomials in auxiliary
    variables give a polynomial, computed by fraction-free Bareiss elimination
    (exact mode only).  Vanishes iff f and g share a projective root.
    """
    fc = binary_coeffs(f) if isinstance(f, HomogeneousPolynomial) else list(f)
    gc = binary_coeffs(g) if isinstance(g, HomogeneousPolynomial) else list(g)
    if _seq_is_zero(fc) or _seq_is_zero(gc):
        raise PreconditionError("zero form has no resultant")
    if _is_poly_seq(fc) or _is_poly_seq(gc):
        return _symbolic_resultant(fc, gc)
    mode = EXACT if all(isinstance(c, (QQi, int, Fraction)) for c in fc + gc) else FLOAT
    fc = [coerce_scalar(c, mode) for c in fc]
    gc = [coerce_scalar(c, mode) for c in gc]
    zero = QQi(0, 0) if mode == EXACT else 0j
    rows = _sylvester_rows(fc, gc, zero)
    if not rows:
        # both forms are constants: empty Sylvester matrix, resultant 1
        return QQi(1, 0) if mode == EXACT else 1.0 + 0j
    return mat_det(rows, mode)


def _symbolic_resultant(fc, gc) -> HomogeneousPolynomial:
    sample = next(c for c in list(fc) + list(gc) if isinstance(c, HomogeneousPolynomial))
    shape, mode = sample.shape, sample.mode
    if mode != EXACT:
        raise ExactnessError("symbolic resultants require exact coefficients")
    p, q = len(fc) - 1, len(gc) - 1
    if max(p, q) > SYMBOLIC_DEGREE_CAP:
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
        return _raise_mixed()

    fdeg = next((c.degree for c in fc if isinstance(c, HomogeneousPolynomial)), 0)
    gdeg = next((c.degree for c in gc if isinstance(c, HomogeneousPolynomial)), 0)
    zero = HomogeneousPolynomial.zero
    rows = _sylvester_rows([lift(c, fdeg) for c in fc], [lift(c, gdeg) for c in gc],
                           zero(shape, fdeg, mode), zero(shape, gdeg, mode))
    return bareiss_poly_det(rows)


def _raise_mixed():
    raise PreconditionError(
        "nonzero scalar coefficients cannot mix with positive-degree polynomial ones"
    )


def poly_divexact(num: HomogeneousPolynomial, den: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact division num / den in the multivariate ring (remainder must be 0)."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return HomogeneousPolynomial.zero(num.shape, max(num.degree - den.degree, 0), num.mode)
    lead_den_exp = max(den.terms)
    lead_den_c = den.terms[lead_den_exp]
    qterms: Dict[Exponent, object] = {}
    rem = dict(num.terms)
    while rem:
        lead_exp = max(rem)
        lead_c = rem[lead_exp]
        qexp = tuple(a - b for a, b in zip(lead_exp, lead_den_exp))
        if any(e < 0 for e in qexp):
            raise PreconditionError("inexact polynomial division")
        qc = lead_c / lead_den_c
        qterms[qexp] = qc
        for e, c in den.terms.items():
            k = tuple(a + b for a, b in zip(qexp, e))
            s = rem.get(k)
            v = (QQi(0, 0) if s is None else s) - qc * c
            if scalar_is_zero(v):
                rem.pop(k, None)
            else:
                rem[k] = v
    return HomogeneousPolynomial._trusted(num.shape, num.degree - den.degree, qterms, num.mode)


def bareiss_poly_det(rows: List[List[HomogeneousPolynomial]]) -> HomogeneousPolynomial:
    """Determinant of a matrix of exact polynomials (``_bareiss``)."""
    det = _bareiss(rows, lambda e: not e.is_zero, poly_divexact)
    if det is None:
        total_deg = sum(row[0].degree for row in rows)
        return HomogeneousPolynomial.zero(rows[0][0].shape, total_deg, rows[0][0].mode)
    return det


def binary_discriminant(f):
    """Discriminant of a binary form of degree d >= 2.

    Defined as Res(df/dx, df/dy) divided by d^(d-2); vanishes iff f has a
    repeated projective root, and has degree 2d-2 in the coefficients of f.
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
    res = sylvester_resultant(fx, fy)
    divisor = d ** (d - 2)
    if isinstance(res, HomogeneousPolynomial):
        inv = QQi(Fraction(1, divisor), 0)
        return res.map_coefficients(lambda c: c * inv)
    if isinstance(res, QQi):
        return res * QQi(Fraction(1, divisor), 0)
    return res / divisor


def maximal_minors(A) -> List[object]:
    """Signed maximal minors of an (n+1) x (n+2) scalar matrix.

    Minor j carries sign (-1)^j with column j deleted; for full-rank numeric A
    the result spans ker(A), and A @ minors(A) = 0 identically.
    """
    rows = [list(r) for r in (A.tolist() if isinstance(A, np.ndarray) else A)]
    n1 = len(rows)
    if any(len(r) != n1 + 1 for r in rows):
        raise DimensionError("maximal minors need rows = cols - 1")
    mode = EXACT if all(
        isinstance(x, (QQi, int, Fraction)) for r in rows for x in r
    ) else FLOAT
    rows = [[coerce_scalar(x, mode) for x in r] for r in rows]
    out = []
    for j in range(n1 + 1):
        sub = [[r[c] for c in range(n1 + 1) if c != j] for r in rows]
        d = mat_det(sub, mode)
        out.append(d if j % 2 == 0 else -d)
    return out


def symbolic_maximal_minors(n1: int, mode: str = EXACT) -> List[HomogeneousPolynomial]:
    """Minors of the generic (n+1) x (n+2) matrix as polynomials in its entries."""
    shape = VariableShape.matrix(n1, n1 + 1)
    out = []
    for j in range(n1 + 1):
        cols = [c for c in range(n1 + 1) if c != j]
        terms: Dict[Exponent, object] = {}
        for perm, sgn in _permutations_signed(n1):
            exp = [0] * shape.nvars
            for r in range(n1):
                exp[r * (n1 + 1) + cols[perm[r]]] += 1
            key = tuple(exp)
            val = sgn if j % 2 == 0 else -sgn
            terms[key] = terms.get(key, 0) + val
        out.append(HomogeneousPolynomial(shape, n1, terms, mode))
    return out


def _permutations_signed(n: int):
    import itertools

    base = list(range(n))
    for perm in itertools.permutations(base):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        yield perm, (1 if inv % 2 == 0 else -1)
