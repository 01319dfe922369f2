"""Versioned JSON schemas ("schema": "v1") for every wire type.

Exact scalars travel as "p/q" strings so round-trips never touch floats;
float mode uses plain JSON numbers.  Dumps are bit-stable: sorted keys,
fixed separators, repr-based floats.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError
from .forms import HypersurfaceVariety, RationalCurve, XPair
from .norms import MahlerEstimate
from .pairs import Pair
from .poly import GroupElement, HomogeneousPolynomial, OnePSG, VariableShape
from .scalars import EXACT, FLOAT, QQi, format_fraction
from .weights import LatticePolytope, TensorVector

SCHEMA = "v1"


def dump_json(obj, indent=None) -> str:
    """Strict JSON: NaN and infinities raise ValueError instead of being written.
    The one writer of every CLI output: one compact line by default, ``indent``
    spaces per level (``--pretty``) otherwise, sorted keys either way."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, indent=indent)


def _need(d: dict, key: str, kind=None):
    if not isinstance(d, dict) or key not in d:
        raise SchemaError(f"missing field {key!r}")
    val = d[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}")
    return val


def _int(x, what: str) -> int:
    """``x`` as an integer; a bool, a non-integral number or a value int()
    refuses is a schema error."""
    try:
        if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
            raise TypeError
        return int(x)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be an integer, got {x!r}")


def _need_int(d: dict, key: str) -> int:
    return _int(_need(d, key), f"field {key!r}")


def _fraction(x, what: str) -> Fraction:
    """An int, float or "p/q" string as a Fraction; anything else is a schema error."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise SchemaError(f"{what} must be a number or 'p/q' string, got {x!r}")


def _check_schema(d: dict):
    if _need(d, "schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {d.get('schema')!r}, expected {SCHEMA!r}")


def scalar_to_json(c) -> dict:
    """Exact scalars as "p/q" strings, float ones as JSON numbers."""
    if isinstance(c, QQi):
        return {"re": format_fraction(c.re), "im": format_fraction(c.im)}
    z = complex(c)
    return {"re": z.real, "im": z.imag}


def _scalar_from_json(d: dict, mode: str):
    re, im = _need(d, "re"), _need(d, "im")
    if mode == EXACT:
        if isinstance(re, float) or isinstance(im, float):
            raise SchemaError("exact mode requires 'p/q' strings or integers")
        return QQi(_fraction(re, "re"), _fraction(im, "im"))
    if isinstance(re, str) or isinstance(im, str):
        return complex(float(_fraction(re, "re")), float(_fraction(im, "im")))
    if not all(isinstance(x, (int, float)) for x in (re, im)):
        raise SchemaError(f"float scalar needs numbers, got re {re!r}, im {im!r}")
    return complex(re, im)


def _terms_to_json(P: HomogeneousPolynomial) -> list:
    """The "terms" list of a polynomial, in ``sorted_terms`` order."""
    return [dict(scalar_to_json(c), exp=list(e)) for e, c in P.sorted_terms()]


def _terms_from_json(d: dict, mode: str) -> dict:
    """{exponent: scalar} from the "terms" list of ``d``."""
    terms = {}
    for t in _need(d, "terms", list):
        exp = tuple(_int(x, "exponent") for x in _need(t, "exp", list))
        if exp in terms:  # a dict would keep the last entry of a repeated key
            raise SchemaError(f"repeated exponent {exp}")
        terms[exp] = _scalar_from_json(t, mode)
    return terms


def poly_to_json(P: HomogeneousPolynomial) -> dict:
    return {
        "schema": SCHEMA,
        "shape": {"kind": P.shape.kind, "rows": P.shape.rows, "cols": P.shape.cols},
        "degree": P.degree,
        "mode": P.mode,
        "terms": _terms_to_json(P),
    }


def poly_from_json(d: dict) -> HomogeneousPolynomial:
    _check_schema(d)
    sh = _need(d, "shape", dict)
    shape = VariableShape(_need(sh, "kind", str), _need_int(sh, "rows"), _need_int(sh, "cols"))
    mode = _need(d, "mode", str)
    if mode not in (EXACT, FLOAT):
        raise SchemaError(f"unknown mode {mode!r}")
    return HomogeneousPolynomial(shape, _need_int(d, "degree"), _terms_from_json(d, mode), mode)


def tensor_to_json(x: TensorVector) -> dict:
    coords = []
    for idx, c in sorted(x.coords.items(), key=str):
        parts = [list(p) if isinstance(p, tuple) else p for p in idx]
        coords.append(dict(scalar_to_json(c), idx=parts))
    return {
        "schema": SCHEMA,
        "slots": [{"kind": k, "dim": dim} for k, dim in x.slots],
        "mode": x.mode,
        "coords": coords,
    }


def tensor_from_json(d: dict) -> TensorVector:
    _check_schema(d)
    slots = [(_need(s, "kind", str), _need_int(s, "dim")) for s in _need(d, "slots", list)]
    mode = _need(d, "mode", str)
    coords = {}
    for entry in _need(d, "coords", list):
        parts = _need(entry, "idx", list)
        if len(parts) != len(slots):
            raise SchemaError(f"index {parts!r} has {len(parts)} parts for {len(slots)} slots")
        idx = tuple(_index_part(kind, p) for (kind, _), p in zip(slots, parts))
        if idx in coords:
            raise SchemaError(f"repeated index {idx}")
        coords[idx] = _scalar_from_json(entry, mode)
    return TensorVector(slots, coords, mode)


def _index_part(kind: str, part):
    """One slot's part of a tensor index: an int, or [i, j] in a wedge slot."""
    pair = isinstance(part, list)
    if pair != (kind == "wedge2") or (pair and len(part) != 2):
        raise SchemaError(f"index part {part!r} does not fit a {kind} slot")
    return tuple(_int(x, "index") for x in part) if pair else _int(part, "index")


def vector_from_json(d: dict):
    """Polymorphic: polynomial or tensor, keyed by the fields present."""
    if isinstance(d, dict) and "terms" in d:
        return poly_from_json(d)
    if isinstance(d, dict) and "coords" in d:
        return tensor_from_json(d)
    raise SchemaError("expected a polynomial ('terms') or tensor ('coords') object")


def vector_to_json(e) -> dict:
    return poly_to_json(e) if isinstance(e, HomogeneousPolynomial) else tensor_to_json(e)


def sigma_from_json(d: dict):
    """Group element in either mode, its determinant checked."""
    _check_schema(d)
    size = _need_int(d, "size")
    if size < 1:
        raise SchemaError(f"sigma size must be at least 1, got {size}")
    mode = _need(d, "mode", str)
    entries = _need(d, "entries", list)
    if len(entries) != size * size:
        raise SchemaError("entry count != size^2")
    if not all(isinstance(e, list) and len(e) == 2 for e in entries):
        raise SchemaError("sigma entries must be [re, im] pairs")
    scalars = [
        _scalar_from_json({"re": e[0], "im": e[1]}, mode) for e in entries
    ]
    rows = [scalars[i * size : (i + 1) * size] for i in range(size)]
    return GroupElement(rows, mode)


def psg_from_json(arr) -> OnePSG:
    if not isinstance(arr, list) or not all(type(a) is int for a in arr):
        raise SchemaError("1-PSG must be an integer array")
    if sum(arr) != 0:
        raise SchemaError("1-PSG exponents must sum to zero")
    return OnePSG(arr)


def pair_from_json(d: dict) -> Pair:
    _check_schema(d)
    pair = Pair(vector_from_json(_need(d, "v", dict)), vector_from_json(_need(d, "w", dict)))
    declared = d.get("norm")
    if declared is not None and declared != pair.norm_choice:
        raise SchemaError(
            f"declared norm {declared!r} does not match the representation "
            f"({pair.norm_choice!r})"
        )
    return pair


def pair_to_json(p: Pair) -> dict:
    return {
        "schema": SCHEMA,
        "v": vector_to_json(p.v),
        "w": vector_to_json(p.w),
        "norm": p.norm_choice,
    }


def curve_from_json(d: dict) -> RationalCurve:
    _check_schema(d)
    N, deg = _need_int(d, "N"), _need_int(d, "d")
    shape = VariableShape.vector(2)
    gamma = []
    for comp in _need(d, "gamma", list):
        terms = _terms_from_json(comp, EXACT)
        if any(len(exp) != 2 for exp in terms):
            raise SchemaError("curve components are binary forms: exp length 2")
        gamma.append(HomogeneousPolynomial(shape, deg, terms, EXACT))
    return RationalCurve(N, deg, gamma)


def curve_to_json(c: RationalCurve) -> dict:
    return {
        "schema": SCHEMA,
        "N": c.N,
        "d": c.d,
        "gamma": [{"terms": _terms_to_json(gm)} for gm in c.gamma],
    }


def hypersurface_from_json(d: dict) -> HypersurfaceVariety:
    _check_schema(d)
    return HypersurfaceVariety(_need_int(d, "n"), poly_from_json(_need(d, "F", dict)))


def _projected(p) -> list:
    """A weight point's projected representative key / n, as "p/q" strings."""
    return [format_fraction(Fraction(k, len(p.key))) for k in p.key]


def polytope_to_json(P: LatticePolytope) -> dict:
    return {
        "schema": SCHEMA,
        "points": [_projected(p) for p in P.points],
        "vertices": [_projected(p) for p in P.vertices],
        "projected": True,
    }


def estimate_to_json(e: MahlerEstimate) -> dict:
    return dict(e.to_json(), schema=SCHEMA)


def xpair_to_json(xp: XPair) -> dict:
    out = {
        "schema": SCHEMA,
        "n": xp.n,
        "N": xp.N,
        "d": xp.d,
        "deg_r": xp.deg_r,
        "deg_delta": xp.deg_delta,
        "resultant": poly_to_json(xp.resultant),
        "hyperdiscriminant": poly_to_json(xp.hyperdiscriminant)
        if xp.hyperdiscriminant is not None
        else None,
        "meta": xp.meta,
    }
    if xp.curve is not None:
        out["curve"] = curve_to_json(xp.curve)
    return out


def xpair_from_json(d: dict) -> XPair:
    """The forms define the pair; each header key, and the curve's N and d,
    must agree with them."""
    _check_schema(d)
    delta = d.get("hyperdiscriminant")
    xp = XPair(
        resultant=poly_from_json(_need(d, "resultant", dict)),
        hyperdiscriminant=poly_from_json(delta) if delta else None,
        curve=curve_from_json(d["curve"]) if d.get("curve") else None,
        meta=d.get("meta", {}),
    )
    if xp.deg_r % (xp.n + 1):
        raise SchemaError(f"resultant degree {xp.deg_r} is not a multiple of n+1 = {xp.n + 1}")
    if delta and xp.hyperdiscriminant.group_size != xp.N + 1:
        raise SchemaError("hyperdiscriminant and resultant act on different groups")
    for key in ("n", "N", "d", "deg_r", "deg_delta"):
        # a resultant-only pair writes deg_delta as null
        value = None if key == "deg_delta" and d.get(key) is None else _need_int(d, key)
        if value != getattr(xp, key):
            raise SchemaError(f"header {key} = {value} disagrees with the forms "
                              f"({getattr(xp, key)})")
    for key in ("N", "d") if xp.curve is not None else ():
        if getattr(xp.curve, key) != getattr(xp, key):
            raise SchemaError(f"curve {key} = {getattr(xp.curve, key)} disagrees with "
                              f"the forms ({getattr(xp, key)})")
    return xp
