"""Torus supports, weight polytopes, 1-PSG weights, and polytope arithmetic.

Characters live in the character lattice of the diagonal torus of GL(N+1)
and are compared in the trace-projected representative (mean subtracted),
i.e. in M_R = R^(N+1) / R.(1,...,1).  A monomial's character is its
column-degree vector; a tensor coordinate's character is the sum of the
basis characters of its slots (wedge slot e_i ^ e_j carries eps_i + eps_j).

Containment of polytopes is decided exactly: every point of the inner
support that is not itself an outer support point is tested for membership
in the hull of the outer support by a rational LP, and a failed test yields
a primitive integer separating functional summing to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DimensionError, PreconditionError
from .linprog import hull_membership
from .poly import (
    HomogeneousPolynomial,
    OnePSG,
    _act_blocks,
    _dense_blocks,
    _nonzero_entries,
    _sigma_array,
    primitive_integer_vector,
)
from .scalars import EXACT, FLOAT, coerce_scalar, scalar_is_zero, scalar_to_complex


class WeightCharacter:
    """Integer torus character with its projected (sum-zero) representative."""

    __slots__ = ("raw", "projected")

    def __init__(self, raw: Sequence[int]):
        self.raw = tuple(int(a) for a in raw)
        mean = Fraction(sum(self.raw), len(self.raw))
        self.projected = tuple(Fraction(a) - mean for a in self.raw)

    def pair(self, lam: OnePSG) -> int:
        if len(lam.exponents) != len(self.raw):
            raise DimensionError("1-PSG length != character length")
        return sum(a * l for a, l in zip(self.raw, lam.exponents))

    def __eq__(self, other):
        return isinstance(other, WeightCharacter) and self.projected == other.projected

    def __hash__(self):
        return hash(self.projected)

    def __repr__(self):
        return f"WeightCharacter({list(self.raw)})"

    def __add__(self, other: "WeightCharacter") -> "WeightCharacter":
        return WeightCharacter([a + b for a, b in zip(self.raw, other.raw)])

    def scaled(self, k: int) -> "WeightCharacter":
        return WeightCharacter([k * a for a in self.raw])


class LatticePolytope:
    """Convex hull of finitely many characters, handled exactly.

    Vertices are computed lazily (each point is tested against the hull of
    the others); all queries work from the full point set so laziness is
    only an optimization for serialization and reporting.
    """

    def __init__(self, points: Iterable[WeightCharacter]):
        pts = list(points)
        if not pts:
            raise PreconditionError("empty polytope")
        n = len(pts[0].raw)
        if any(len(p.raw) != n for p in pts):
            raise DimensionError("mixed character lengths")
        seen: Dict[Tuple[Fraction, ...], WeightCharacter] = {}
        for p in pts:
            seen.setdefault(p.projected, p)
        self.points: List[WeightCharacter] = sorted(seen.values(), key=lambda p: p.projected)
        self.ambient = n
        self._vertices: Optional[List[WeightCharacter]] = None

    @property
    def vertices(self) -> List[WeightCharacter]:
        if self._vertices is None:
            verts = []
            for i, p in enumerate(self.points):
                others = [q.projected for j, q in enumerate(self.points) if j != i]
                if not others:
                    verts.append(p)
                    continue
                inside, _ = hull_membership(others, list(p.projected))
                if not inside:
                    verts.append(p)
            self._vertices = verts
        return self._vertices

    def __eq__(self, other):
        if not isinstance(other, LatticePolytope) or self.ambient != other.ambient:
            return False
        a, _ = contains(self, other)
        b, _ = contains(other, self)
        return a and b

    def __repr__(self):
        return f"LatticePolytope({len(self.points)} points, ambient {self.ambient})"


class TensorVector:
    """Sparse vector in a tensor product of vector and wedge-square slots.

    slots: sequence of ("vector", dim) or ("wedge2", dim); a coordinate index
    is an int for a vector slot and an ordered pair (i, j), i < j, for a
    wedge slot.  Coefficients follow the polynomial scalar modes.
    """

    __slots__ = ("slots", "coords", "mode")

    def __init__(self, slots, coords: Dict[tuple, object], mode: str = EXACT):
        self.slots = tuple((str(k), int(d)) for k, d in slots)
        for kind, d in self.slots:
            if kind not in ("vector", "wedge2"):
                raise PreconditionError(f"unknown slot kind {kind!r}")
            if d < 2:
                raise PreconditionError("slot dimension must be >= 2")
        if len({d for _, d in self.slots}) > 1:
            # sigma acts on every slot at once: one group size
            raise DimensionError(f"tensor slots of different dims {[d for _, d in self.slots]}")
        clean: Dict[tuple, object] = {}
        for idx, c in coords.items():
            key = self._check_index(idx)
            c = coerce_scalar(c, mode)
            if not scalar_is_zero(c):
                clean[key] = c
        if not clean:
            raise PreconditionError("zero tensor vector")
        self.coords = clean
        self.mode = mode

    def _check_index(self, idx) -> tuple:
        if len(idx) != len(self.slots):
            raise DimensionError("index length != slot count")
        key = []
        for (kind, d), part in zip(self.slots, idx):
            if kind == "vector":
                i = int(part)
                if not 0 <= i < d:
                    raise DimensionError("vector index out of range")
                key.append(i)
            else:
                i, j = int(part[0]), int(part[1])
                if not (0 <= i < j < d):
                    raise DimensionError("wedge index must satisfy 0 <= i < j < dim")
                key.append((i, j))
        return tuple(key)

    @property
    def group_size(self) -> int:
        return self.slots[0][1]

    def degree(self) -> int:
        """Total polynomial degree: 1 per vector slot, 2 per wedge slot."""
        return sum(1 if kind == "vector" else 2 for kind, _ in self.slots)

    def character_of(self, idx) -> Tuple[int, ...]:
        n = self.group_size
        char = [0] * n
        for (kind, _), part in zip(self.slots, idx):
            if kind == "vector":
                char[part] += 1
            else:
                char[part[0]] += 1
                char[part[1]] += 1
        return tuple(char)

    def support_characters(self) -> Set[Tuple[int, ...]]:
        return {self.character_of(idx) for idx in self.coords}

    def dense_amplitudes(self) -> Dict[tuple, object]:
        """{per-axis exponents: coefficient} for the dense layout of
        :mod:`stablepairs.poly`: one Sym^1 axis per vector slot and two per
        wedge slot, where c e_i ^ e_j is laid out as T[i, j] = c, T[j, i] = -c."""
        n = self.group_size
        unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        out: Dict[tuple, object] = {}
        for idx, c in self.coords.items():
            entries = [((), c)]
            for (kind, _), part in zip(self.slots, idx):
                pieces = [((part,), 1)] if kind == "vector" else [(part, 1), (part[::-1], -1)]
                entries = [(axes + tuple(unit[k] for k in p), z if sign > 0 else -z)
                           for axes, z in entries for p, sign in pieces]
            out.update(entries)
        return out

    def to_float(self) -> "TensorVector":
        if self.mode == FLOAT:
            return self
        return TensorVector(
            self.slots, {k: scalar_to_complex(c) for k, c in self.coords.items()}, FLOAT
        )


def act_tensor(sigma, x: TensorVector) -> TensorVector:
    """Slotwise left action: sigma on vectors, wedge-square of sigma on wedges.

    ``sigma`` is a square matrix of scalars (GroupElement, ndarray, or rows);
    scalar multiples are fine for support purposes.  This is the dense action
    of :mod:`stablepairs.poly` on Sym^1 axes, where the right substitution and
    the left action are both sigma[a, b]; a wedge slot is two axes holding
    T[i, j] = c, T[j, i] = -c, so e_k ^ e_l gets T[k, l], k < l, with no sqrt(2).
    """
    n = x.group_size
    sig = _sigma_array(sigma, x.mode, n)
    ((_, y),) = _act_blocks(sig, _dense_blocks(n, x.dense_amplitudes(), sig.dtype))
    wedge_basis = [(k, l) for k in range(n) for l in range(k + 1, n)]
    wedge = tuple(map(list, zip(*wedge_basis)))
    for axis, (kind, _) in enumerate(x.slots):
        if kind == "wedge2":
            y = y[(slice(None),) * axis + wedge]  # axes (k, l) fold to k < l
    out = {
        tuple(i if kind == "vector" else wedge_basis[i] for (kind, _), i in zip(x.slots, idx)): c
        for idx, c in _nonzero_entries(y)
    }
    if not out:
        raise PreconditionError("tensor vector annihilated; matrix is singular")
    return TensorVector(x.slots, out, x.mode)


# ---------------------------------------------------------------------------
# supports, polytopes, weights
# ---------------------------------------------------------------------------

SUPPORT_FLOAT_TOL = 1e-9


def support(e) -> Set[WeightCharacter]:
    """T-support of a nonzero polynomial or tensor vector.

    Float-mode coefficients below SUPPORT_FLOAT_TOL times the largest one are
    treated as exact-cancellation residue and dropped.
    """
    if isinstance(e, HomogeneousPolynomial):
        e.require_nonzero()
        if e.mode == FLOAT:
            mx = max(abs(c) for c in e.terms.values())
            chars = {
                e.shape.column_degrees(exp)
                for exp, c in e.terms.items()
                if abs(c) > SUPPORT_FLOAT_TOL * mx
            }
        else:
            chars = e.support_characters()
    elif isinstance(e, TensorVector):
        if e.mode == FLOAT:
            mx = max(abs(scalar_to_complex(c)) for c in e.coords.values())
            chars = {
                e.character_of(idx)
                for idx, c in e.coords.items()
                if abs(scalar_to_complex(c)) > SUPPORT_FLOAT_TOL * mx
            }
        else:
            chars = e.support_characters()
    else:
        raise PreconditionError(f"unsupported object {type(e).__name__}")
    return {WeightCharacter(c) for c in chars}


def weight_polytope(e) -> LatticePolytope:
    """Convex hull of the support characters, Eq.-style N(e) = conv A(e)."""
    if isinstance(e, LatticePolytope):
        return e
    return LatticePolytope(support(e))


def psg_weight(lam: OnePSG, e) -> int:
    """min over the support of <a, lambda>; the vanishing order along lambda."""
    if isinstance(e, LatticePolytope):
        pts = e.points
    else:
        pts = support(e)
    return min(p.pair(lam) for p in pts)


def standard_simplex(n_plus_1: int) -> LatticePolytope:
    """Q_N: the weight polytope of the identity operator on C^(N+1)."""
    pts = []
    for i in range(n_plus_1):
        raw = [0] * n_plus_1
        raw[i] = 1
        pts.append(WeightCharacter(raw))
    return LatticePolytope(pts)


def contains(inner: LatticePolytope, outer: LatticePolytope):
    """Exact containment conv(inner) in conv(outer), with a witness on failure.

    Returns (True, None), or (False, lam) where lam is a primitive integer
    OnePSG satisfying  min_{outer} <a, lam>  >  min_{inner} <a, lam>.
    """
    if inner.ambient != outer.ambient:
        raise DimensionError("polytope dimension mismatch")
    outer_pts = [list(p.projected) for p in outer.points]
    # a point of the outer support is in its hull with lambda = e_k: no LP
    outer_set = {p.projected for p in outer.points}
    for p in inner.points:
        if p.projected in outer_set:
            continue
        ok, cert = hull_membership(outer_pts, list(p.projected))
        if ok:
            continue
        mu = cert[: inner.ambient]
        # -mu shifted to sum zero, as a primitive integer direction
        mean = sum(mu, Fraction(0)) / len(mu)
        lam_vec = primitive_integer_vector([mean - m for m in mu])
        if not any(lam_vec):
            raise PreconditionError("zero separating functional")
        lam = OnePSG(lam_vec)
        if psg_weight(lam, outer) <= psg_weight(lam, inner):
            raise ArithmeticError("separating certificate failed exact verification")
        return False, lam
    return True, None


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient != Q.ambient:
        raise DimensionError("polytope dimension mismatch")
    return LatticePolytope([p + q for p in P.points for q in Q.points])


def scale(P: LatticePolytope, k: int) -> LatticePolytope:
    if k < 0:
        raise PreconditionError("scale factor must be nonnegative")
    return LatticePolytope([p.scaled(k) for p in P.points])


def rep_degree(obj) -> int:
    """Degree of the ambient polynomial representation.

    Every support character of a degree-D polynomial (or a tensor of total
    slot degree D) lies in D * Q_N with the pure-power monomial hitting a
    vertex, so the representation degree is D itself.
    """
    if isinstance(obj, HomogeneousPolynomial):
        return obj.degree
    if isinstance(obj, TensorVector):
        return obj.degree()
    raise PreconditionError("cannot infer representation degree")
