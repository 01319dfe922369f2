"""JSON round-trips: every wire type's from_json inverts its to_json on exact
inputs, through the strict dump, and every certificate verdict dumps strictly."""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablepairs.errors import DegenerateCurveError, SchemaError
from stablepairs.forms import RationalCurve, XPair, build_x_pair
from stablepairs.pairs import (
    DescentOptions,
    Pair,
    TensoredPair,
    descend,
    randomized_torus_probe,
    stable_probe,
)
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.scalars import EXACT, QQi
from stablepairs.serialize import (
    curve_from_json,
    curve_to_json,
    dump_json,
    pair_from_json,
    pair_to_json,
    poly_from_json,
    poly_to_json,
    tensor_from_json,
    tensor_to_json,
    xpair_from_json,
    xpair_to_json,
)
from stablepairs.verify import binary_form, blowup_pair, rational_normal_curve
from stablepairs.weights import TensorVector

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
scalars = st.builds(QQi, fractions, fractions).filter(lambda c: c != QQi(0))


def _through_text(to_json, from_json, obj):
    return from_json(json.loads(dump_json(to_json(obj))))


@st.composite
def exact_polys(draw, shape=None, degree=None):
    """Exact polynomials on vector or matrix shapes (any row-degree profile)."""
    if shape is None:
        n = draw(st.integers(2, 4))
        rows = draw(st.integers(1, 3))
        shape = VariableShape.vector(n) if rows == 1 else VariableShape.matrix(rows, n)
    d = draw(st.integers(0, 3)) if degree is None else degree
    slots = st.lists(st.integers(0, shape.nvars - 1), min_size=d, max_size=d)
    exps = draw(st.lists(slots.map(lambda ix: tuple(ix.count(v) for v in range(shape.nvars))),
                         min_size=1, max_size=6, unique=True))
    return HomogeneousPolynomial(shape, d, {e: draw(scalars) for e in exps}, EXACT)


@st.composite
def exact_tensors(draw, n=None):
    n = draw(st.integers(2, 4)) if n is None else n
    kinds = draw(st.lists(st.sampled_from(["vector", "wedge2"]), min_size=1, max_size=3))
    index = {"vector": st.integers(0, n - 1),
             "wedge2": st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
             .map(lambda ij: tuple(sorted(ij)))}
    idxs = draw(st.lists(st.tuples(*(index[k] for k in kinds)), min_size=1, max_size=5,
                         unique=True))
    return TensorVector([(k, n) for k in kinds], {i: draw(scalars) for i in idxs}, EXACT)


@st.composite
def curves(draw, N=None, d=None):
    N = draw(st.integers(1, 3)) if N is None else N
    d = draw(st.integers(1, 3)) if d is None else d
    gamma = [draw(exact_polys(VariableShape.vector(2), d)) for _ in range(N + 1)]
    try:
        return RationalCurve(N, d, gamma)
    except DegenerateCurveError:
        assume(False)


def _same_tensor(a: TensorVector, b: TensorVector) -> bool:
    return (a.slots, a.coords, a.mode) == (b.slots, b.coords, b.mode)


def _same_curve(a: RationalCurve, b: RationalCurve) -> bool:
    return (a.N, a.d, a.gamma) == (b.N, b.d, b.gamma)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(exact_polys())
    def test_poly(self, P):
        Q = _through_text(poly_to_json, poly_from_json, P)
        assert (Q, Q.shape, Q.degree, Q.mode) == (P, P.shape, P.degree, P.mode)

    @settings(max_examples=60, deadline=None)
    @given(exact_tensors())
    def test_tensor(self, x):
        assert _same_tensor(_through_text(tensor_to_json, tensor_from_json, x), x)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pair(self, data):
        n = data.draw(st.integers(2, 4))
        vector = st.one_of(exact_polys(VariableShape.vector(n)), exact_tensors(n))
        pair = Pair(data.draw(vector), data.draw(vector))
        back = _through_text(pair_to_json, pair_from_json, pair)
        assert back.norm_choice == pair.norm_choice
        for a, b in ((back.v, pair.v), (back.w, pair.w)):
            assert _same_tensor(a, b) if isinstance(b, TensorVector) else a == b

    @settings(max_examples=40, deadline=None)
    @given(curves())
    def test_curve(self, curve):
        assert _same_curve(_through_text(curve_to_json, curve_from_json, curve), curve)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_xpair(self, data):
        # the header is read off the forms: R of degree d(n+1) on 2 x (N+1)
        # matrices, Delta on 1 x (N+1) ones; a curve has the forms' N and d
        N, d = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        curve = data.draw(st.none() | curves(N, d)) if d else None
        xp = XPair(
            resultant=data.draw(exact_polys(VariableShape.matrix(2, N + 1), 2 * d)),
            hyperdiscriminant=data.draw(st.none() | exact_polys(VariableShape.matrix(1, N + 1))),
            curve=curve,
            meta=data.draw(st.dictionaries(st.sampled_from(["kind", "source"]),
                                           st.text(max_size=5))),
        )
        back = _through_text(xpair_to_json, xpair_from_json, xp)
        for key in ("resultant", "hyperdiscriminant", "n", "N", "d", "deg_r", "meta"):
            assert getattr(back, key) == getattr(xp, key), key
        # without Delta, deg_delta is written as null and read back as None
        assert back.deg_delta == xp.deg_delta
        assert (back.curve is None) == (curve is None)
        if curve is not None:
            assert _same_curve(back.curve, curve)


@pytest.mark.parametrize("curve, message", [
    (rational_normal_curve(3), "curve N = 3 disagrees with the forms (2)"),
    (RationalCurve(2, 3, [binary_form(3, [1, 0, 0, 0]), binary_form(3, [0, 1, 0, 0]),
                          binary_form(3, [0, 0, 0, 1])]),
     "curve d = 3 disagrees with the forms (2)"),
], ids=["twisted-cubic", "plane-cubic"])
def test_xpair_curve_must_match_forms(curve, message):
    # the conic's R and Delta (N = 2, d = 2) with another curve's header
    doc = xpair_to_json(build_x_pair(rational_normal_curve(2)))
    doc["curve"] = curve_to_json(curve)
    with pytest.raises(SchemaError, match=re.escape(message)):
        xpair_from_json(json.loads(dump_json(doc)))


X, X2 = binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])
HIDDEN = binary_form(1, [1, 2])

CERTIFICATES = {
    "torus-fail": lambda: randomized_torus_probe(Pair(X, X2), trials=3, seed=0),
    "no-divergence-observed (probe)": lambda: randomized_torus_probe(blowup_pair(), trials=3),
    "no-divergence-observed (descent)": lambda: descend(
        blowup_pair().functional(), DescentOptions(max_iters=30, restarts=2)),
    "divergence-detected (exact)": lambda: descend(
        TensoredPair(Pair(X, X2), 1).functional(), DescentOptions(max_iters=1500, restarts=1)),
    "divergence-detected (slope)": lambda: stable_probe(Pair(HIDDEN, HIDDEN * HIDDEN), 1,
                                                        trials=1),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_dumps_strictly(name):
    cert = CERTIFICATES[name]()
    assert cert.verdict == name.split(" ")[0]
    text = dump_json(cert.to_json())
    assert json.loads(text) == json.loads(json.dumps(cert.to_json()))
