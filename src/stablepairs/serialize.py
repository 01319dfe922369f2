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
from .scalars import EXACT, FLOAT, QQi, format_fraction, parse_fraction
from .weights import LatticePolytope, TensorVector

SCHEMA = "v1"


def dump_json(obj) -> str:
    """Strict JSON: NaN and infinities raise ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _need(d: dict, key: str, kind=None):
    if not isinstance(d, dict) or key not in d:
        raise SchemaError(f"missing field {key!r}")
    val = d[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}")
    return val


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
        return QQi(parse_fraction(re), parse_fraction(im))
    if isinstance(re, str) or isinstance(im, str):
        return complex(float(Fraction(re)), float(Fraction(im)))
    return complex(re, im)


def poly_to_json(P: HomogeneousPolynomial) -> dict:
    return {
        "schema": SCHEMA,
        "shape": {"kind": P.shape.kind, "rows": P.shape.rows, "cols": P.shape.cols},
        "degree": P.degree,
        "mode": P.mode,
        "terms": [
            dict(scalar_to_json(c), exp=list(e)) for e, c in P.sorted_terms()
        ],
    }


def poly_from_json(d: dict) -> HomogeneousPolynomial:
    _check_schema(d)
    sh = _need(d, "shape", dict)
    shape = VariableShape(_need(sh, "kind", str), int(_need(sh, "rows")), int(_need(sh, "cols")))
    mode = _need(d, "mode", str)
    if mode not in (EXACT, FLOAT):
        raise SchemaError(f"unknown mode {mode!r}")
    terms = {}
    for t in _need(d, "terms", list):
        exp = tuple(int(x) for x in _need(t, "exp", list))
        terms[exp] = _scalar_from_json(t, mode)
    return HomogeneousPolynomial(shape, int(_need(d, "degree")), terms, mode)


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
    slots = [(_need(s, "kind", str), int(_need(s, "dim"))) for s in _need(d, "slots", list)]
    mode = _need(d, "mode", str)
    coords = {}
    for entry in _need(d, "coords", list):
        idx = tuple(
            tuple(p) if isinstance(p, list) else int(p) for p in _need(entry, "idx", list)
        )
        coords[idx] = _scalar_from_json(entry, mode)
    return TensorVector(slots, coords, mode)


def vector_from_json(d: dict):
    """Polymorphic: polynomial or tensor, keyed by the fields present."""
    if "terms" in d:
        return poly_from_json(d)
    if "coords" in d:
        return tensor_from_json(d)
    raise SchemaError("expected a polynomial ('terms') or tensor ('coords') object")


def vector_to_json(e) -> dict:
    return poly_to_json(e) if isinstance(e, HomogeneousPolynomial) else tensor_to_json(e)


def sigma_from_json(d: dict):
    """Group element (validated) in exact mode, raw matrix in float mode."""
    _check_schema(d)
    size = int(_need(d, "size"))
    mode = _need(d, "mode", str)
    entries = _need(d, "entries", list)
    if len(entries) != size * size:
        raise SchemaError("entry count != size^2")
    scalars = [
        _scalar_from_json({"re": e[0], "im": e[1]}, mode) for e in entries
    ]
    rows = [scalars[i * size : (i + 1) * size] for i in range(size)]
    return GroupElement(rows, mode)


def psg_from_json(arr) -> OnePSG:
    if not isinstance(arr, list) or not all(isinstance(a, int) for a in arr):
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
    N, deg = int(_need(d, "N")), int(_need(d, "d"))
    shape = VariableShape.vector(2)
    gamma = []
    for comp in _need(d, "gamma", list):
        terms = {}
        for t in _need(comp, "terms", list):
            exp = tuple(int(x) for x in _need(t, "exp", list))
            if len(exp) != 2:
                raise SchemaError("curve components are binary forms: exp length 2")
            terms[exp] = _scalar_from_json(t, EXACT)
        gamma.append(HomogeneousPolynomial(shape, deg, terms, EXACT))
    return RationalCurve(N, deg, gamma)


def curve_to_json(c: RationalCurve) -> dict:
    return {
        "schema": SCHEMA,
        "N": c.N,
        "d": c.d,
        "gamma": [
            {"terms": [dict(scalar_to_json(cf), exp=list(e)) for e, cf in gm.sorted_terms()]}
            for gm in c.gamma
        ],
    }


def hypersurface_from_json(d: dict) -> HypersurfaceVariety:
    _check_schema(d)
    return HypersurfaceVariety(int(_need(d, "n")), poly_from_json(_need(d, "F", dict)))


def polytope_to_json(P: LatticePolytope) -> dict:
    return {
        "schema": SCHEMA,
        "points": [[format_fraction(x) for x in p.projected] for p in P.points],
        "vertices": [[format_fraction(x) for x in p.projected] for p in P.vertices],
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
    _check_schema(d)
    delta = d.get("hyperdiscriminant")
    return XPair(
        resultant=poly_from_json(_need(d, "resultant", dict)),
        hyperdiscriminant=poly_from_json(delta) if delta else None,
        n=int(_need(d, "n")),
        N=int(_need(d, "N")),
        d=int(_need(d, "d")),
        deg_r=int(_need(d, "deg_r")),
        deg_delta=int(d["deg_delta"]) if d.get("deg_delta") is not None else None,
        curve=curve_from_json(d["curve"]) if d.get("curve") else None,
        meta=d.get("meta", {}),
    )
