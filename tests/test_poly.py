"""Polynomial core: evaluation, the group action, elimination primitives."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stablepairs import poly
from stablepairs._kernels import poly_log_abs
from stablepairs.errors import DimensionError, PreconditionError
from stablepairs.forms import CURVE_DEGREE_CAP, chow_form_curve, hurwitz_form_curve
from stablepairs.norms import MIN_SAMPLES, MahlerSampleFunctional, _terms_arrays
from stablepairs.pairs import Pair
from stablepairs.poly import (
    GroupElement,
    HomogeneousPolynomial,
    OnePSG,
    VariableShape,
    _sylvester_rows,
    act,
    bareiss_poly_det,
    binary_discriminant,
    evaluate,
    maximal_minors,
    poly_divexact,
    primitive_integer_vector,
    sylvester_resultant,
    symbolic_maximal_minors,
)
from stablepairs.scalars import QQi
from stablepairs.serialize import scalar_to_json
from stablepairs.verify import binary_form, rational_normal_curve
from stablepairs.weights import TensorVector, act_tensor

V2 = VariableShape.vector(2)
V3 = VariableShape.vector(3)
# projective roots (a:b) of 1 to 3 small integer linear binary factors
LINEAR_ROOTS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                        min_size=1, max_size=3)


def exact_product(a, b):
    """Exact matrix product of nested lists of QQi, on object arrays."""
    return (np.array(a, dtype=object) @ np.array(b, dtype=object)).tolist()


def variable(shape, index):
    """The linear form x_index on ``shape``."""
    return HomogeneousPolynomial.monomial(shape, [int(k == index) for k in range(shape.nvars)])


def rand_qqi_matrix(rng, n, lo=-4, hi=5):
    while True:
        m = rng.integers(lo, hi, size=(n, n))
        if round(abs(np.linalg.det(m.astype(float)))) != 0:
            return [[QQi(int(x)) for x in row] for row in m]


def rand_poly(rng, shape, d, span=4):
    terms = {}
    for combo in itertools.combinations_with_replacement(range(shape.nvars), d):
        exp = [0] * shape.nvars
        for i in combo:
            exp[i] += 1
        c = int(rng.integers(-span, span + 1))
        if c:
            terms[tuple(exp)] = c
    if not terms:
        exp = [0] * shape.nvars
        exp[0] = d
        terms[tuple(exp)] = 1
    return HomogeneousPolynomial(shape, d, terms, "exact")


class TestConstruction:
    def test_homogeneity_enforced(self):
        with pytest.raises(PreconditionError):
            HomogeneousPolynomial(V2, 2, {(1, 0): 1}, "exact")

    def test_zero_coefficients_dropped(self):
        P = HomogeneousPolynomial(V2, 1, {(1, 0): 1, (0, 1): 0}, "exact")
        assert len(P.terms) == 1

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(PreconditionError):
            HomogeneousPolynomial(V2, 1, {(1, 0): 0.5}, "exact")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            HomogeneousPolynomial(V2, 1, {(1, 0, 0): 1}, "exact")


class TestEvaluate:
    def test_conic_point(self):
        P = HomogeneousPolynomial(V3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, "exact")
        assert evaluate(P, [0, -1, 0]) == QQi(-1)

    def test_zero_point(self):
        P = HomogeneousPolynomial(V3, 3, {(1, 1, 1): 5}, "exact")
        assert evaluate(P, [0, 0, 0]) == QQi(0)

    def test_homogeneity_scaling(self, rng):
        P = rand_poly(rng, V3, 3)
        pt = [QQi(1), QQi(2, 1), QQi(Fraction(3, 2))]
        c = QQi(Fraction(5, 7), 1)
        lhs = evaluate(P, [c * x for x in pt])
        rhs = evaluate(P, pt)
        scale = QQi(1)
        for _ in range(P.degree):
            scale = scale * c
        assert lhs == scale * rhs

    def test_dimension_error(self):
        P = HomogeneousPolynomial(V2, 1, {(1, 0): 1}, "exact")
        with pytest.raises(DimensionError):
            evaluate(P, [1, 2, 3])


@st.composite
def float_substitutions(draw):
    """A float polynomial on a vector or 2-row matrix shape (rows of mixed
    degrees), a complex matrix sigma and a point z, some of whose
    coordinates are exactly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    rows = draw(st.sampled_from([1, 2]))
    shape = VariableShape.vector(n) if rows == 1 else VariableShape.matrix(2, n)
    d = draw(st.integers(1, 4))
    terms = {tuple(int(e) for e in rng.multinomial(d, [1 / shape.nvars] * shape.nvars)):
             complex(*rng.standard_normal(2)) for _ in range(int(rng.integers(1, 7)))}
    P = HomogeneousPolynomial(shape, d, terms, "float")
    sigma = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    z[rng.uniform(size=z.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return P, sigma, z


SMALL = st.integers(-4, 4)
# sigma entries and coefficients by kind; "gaussian" has imaginary parts
EXACT_ENTRIES = {
    "integer": SMALL.map(QQi),
    "rational": st.builds(lambda p, q: QQi(Fraction(p, q)), SMALL, st.integers(1, 6)),
    "gaussian": st.builds(lambda a, b, q: QQi(Fraction(a, q), Fraction(b, q)),
                          SMALL, SMALL, st.integers(1, 3)),
}
COEFFICIENTS = st.one_of(*EXACT_ENTRIES.values()).filter(bool)


def exact_sigma(draw, kinds, n):
    kind = draw(st.sampled_from(kinds))
    return [[draw(EXACT_ENTRIES[kind]) for _ in range(n)] for _ in range(n)]


@st.composite
def exact_substitutions(draw, kinds=tuple(EXACT_ENTRIES)):
    """An exact polynomial on a vector or 2-row matrix shape (rows of mixed
    degrees), an integer, rational or Gaussian sigma, and an exact
    Gaussian-rational point."""
    n, rows, d = draw(st.integers(2, 3)), draw(st.sampled_from([1, 2])), draw(st.integers(0, 4))
    shape = VariableShape.vector(n) if rows == 1 else VariableShape.matrix(2, n)
    slots = st.lists(st.integers(0, shape.nvars - 1), min_size=d, max_size=d)
    exps = draw(st.lists(slots.map(lambda ix: tuple(ix.count(v) for v in range(shape.nvars))),
                         min_size=1, max_size=6, unique=True))
    P = HomogeneousPolynomial(shape, d, {e: draw(COEFFICIENTS) for e in exps}, "exact")
    point = [[draw(EXACT_ENTRIES["gaussian"]) for _ in range(n)] for _ in range(rows)]
    return P, exact_sigma(draw, kinds, n), point


@st.composite
def exact_tensor_actions(draw, kinds=tuple(EXACT_ENTRIES)):
    """An exact tensor of one to three vector and wedge slots on C^n and an
    integer, rational or Gaussian sigma."""
    n = draw(st.integers(2, 3))
    slots = draw(st.lists(st.sampled_from(["vector", "wedge2"]), min_size=1, max_size=3))
    wedge = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = st.tuples(*(st.integers(0, n - 1) if k == "vector" else st.sampled_from(wedge)
                        for k in slots))
    idxs = draw(st.lists(index, min_size=1, max_size=5, unique=True))
    x = TensorVector([(k, n) for k in slots], {i: draw(COEFFICIENTS) for i in idxs}, "exact")
    return x, exact_sigma(draw, kinds, n)


# sigma with entries near 10^7: x0^2 x1 x2 + 3 x1^4 needs S^4, whose bound
# c^4 ~ 1e28 is far above 2^63, and so does the tensor's 1e21
BIG_SIGMA = [[QQi(10**7), QQi(1), QQi(0)], [QQi(0), QQi(10**7), QQi(-1)],
             [QQi(2), QQi(0), QQi(10**7)]]
ABOVE_BOUND = (HomogeneousPolynomial(V3, 4, {(2, 1, 1): 1, (0, 4, 0): 3}, "exact"), BIG_SIGMA,
               [[QQi(1), QQi(-2), QQi(1, 1)]])
ABOVE_BOUND_TENSOR = (TensorVector([("vector", 3), ("wedge2", 3)],
                                   {(0, (1, 2)): 1, (2, (0, 1)): QQi(1, 1)}, "exact"), BIG_SIGMA)


# the constant 1/2 under sigma = 0: P 2^63 has numerator 2^62 and fits int64
CONSTANT_HALF = (HomogeneousPolynomial(V2, 0, {(0, 0): QQi(Fraction(1, 2))}, "exact"),
                 [[QQi(0), QQi(0)], [QQi(0), QQi(0)]], [[QQi(1), QQi(1)]])


def route(sigma, vec) -> set:
    """The dtypes the exact action of sigma on vec runs on: int64 or object."""
    return {str(y.dtype) for _, y, _ in poly._act_dense(sigma, vec)}


def tensor_image(sigma, x: TensorVector) -> dict:
    """sigma . x coordinate by coordinate: e_b -> sum_a sigma[a][b] e_a on a
    vector slot, e_i ^ e_j -> sigma e_i ^ sigma e_j on a wedge slot."""
    n = x.group_size
    out = {}
    for idx, c in x.coords.items():
        images = [((), c)]
        for (kind, _), part in zip(x.slots, idx):
            if kind == "vector":
                parts = [(a, sigma[a][part]) for a in range(n)]
            else:
                i, j = part
                parts = [((k, l), sigma[k][i] * sigma[l][j] - sigma[l][i] * sigma[k][j])
                         for k in range(n) for l in range(k + 1, n)]
            images = [(key + (a,), z * w) for key, z in images for a, w in parts]
        for key, z in images:
            out[key] = out.get(key, QQi(0)) + z
    return {key: z for key, z in out.items() if z}


def component_types(c: QQi) -> tuple:
    return type(c.re), type(c.im)


def assert_python_rationals(coefficients):
    # QQi's invariant, which hashing and scalar_to_json rely on: each part is
    # a Python int, or a Fraction whose denominator is not 1; never numpy's
    for c in coefficients:
        for part in (c.re, c.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator > 1)
        assert scalar_to_json(c) == {"re": str(Fraction(c.re)), "im": str(Fraction(c.im))}
        assert hash(c) == hash((Fraction(c.re), Fraction(c.im)))


class TestExactAction:
    """The exact action runs on int64 numerators under the overflow bound and
    on QQi objects above it or for a Gaussian sigma, with one result."""

    @settings(max_examples=80, deadline=None)
    @given(exact_substitutions())
    @example(ABOVE_BOUND)
    def test_is_substitution(self, case):
        P, sigma, A = case
        assert evaluate(act(sigma, P), A) == evaluate(P, exact_product(A, sigma))

    @settings(max_examples=60, deadline=None)
    @given(exact_substitutions(kinds=("integer", "rational")))
    @example(CONSTANT_HALF)
    def test_int64_and_qqi_routes_agree(self, case):
        # P times 2^63 M, M the lcm of P's coefficient denominators, has
        # integer numerators of at least 2^63, so it is above the bound for
        # every sigma (2^63 alone is not: 2^63 / 2 fits when sigma = 0): same
        # terms, in the same order, with the same component types, up to
        # that factor
        P, sigma, _ = case
        K = poly.INT64_LIMIT
        M = math.lcm(*(p.denominator for c in P.terms.values() for p in (c.re, c.im)))
        big = P * (K * M)
        assert (route(sigma, P), route(sigma, big)) == ({"int64"}, {"object"})
        want = [(e, c * K * M) for e, c in act(sigma, P).terms.items()]
        got = list(act(sigma, big).terms.items())
        assert got == want
        assert [component_types(c) for _, c in got] == [component_types(c) for _, c in want]

    def test_above_bound_and_gaussian_sigma_take_the_qqi_route(self):
        P, sigma, _ = ABOVE_BOUND
        x, _ = ABOVE_BOUND_TENSOR
        assert route(sigma, P) == route(sigma, x) == {"object"}
        small = [[QQi(int(i == j)) for j in range(3)] for i in range(3)]
        assert route(small, P) == route(small, x) == {"int64"}
        small[0][1] = QQi(0, 1)
        assert route(small, P) == route(small, x) == {"object"}

    @settings(max_examples=60, deadline=None)
    @given(exact_substitutions())
    @example(ABOVE_BOUND)
    def test_coefficients_are_python_rationals(self, case):
        P, sigma, _ = case
        assert_python_rationals(act(sigma, P).terms.values())

    @settings(max_examples=80, deadline=None)
    @given(exact_tensor_actions())
    @example(ABOVE_BOUND_TENSOR)
    def test_tensor_action_is_slotwise(self, case):
        x, sigma = case
        want = tensor_image(sigma, x)
        if not want:
            with pytest.raises(PreconditionError, match="annihilated"):
                act_tensor(sigma, x)
            return
        assert act_tensor(sigma, x).coords == want

    @settings(max_examples=60, deadline=None)
    @given(exact_tensor_actions(kinds=("integer", "rational")))
    def test_tensor_int64_and_qqi_routes_agree(self, case):
        # scaled by 2^63 M, as in the polynomial case above: 2^63 alone
        # leaves a coordinate 1/2 at 2^62, which fits when sigma = 0
        x, sigma = case
        K = poly.INT64_LIMIT
        M = math.lcm(*(p.denominator for c in x.coords.values() for p in (c.re, c.im)))
        big = TensorVector(x.slots, {i: c * (K * M) for i, c in x.coords.items()}, "exact")
        assert (route(sigma, x), route(sigma, big)) == ({"int64"}, {"object"})
        try:
            small = act_tensor(sigma, x)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                act_tensor(sigma, big)
            return
        got = list(act_tensor(sigma, big).coords.items())
        want = [(i, c * K * M) for i, c in small.coords.items()]
        assert got == want
        assert [component_types(c) for _, c in got] == [component_types(c) for _, c in want]
        assert_python_rationals(small.coords.values())


def old_sym_powers(sigma, degrees):
    """The S^d recursion as a double loop of fancy-index updates, one per
    (i, j) with sigma[i, j] != 0: S^d[a + e_i, b] += S^(d-1)[a, b - e_j]
    sigma[i, j] over the b whose first variable is j."""
    n = sigma.shape[0]
    one, zero = (QQi(1), QQi(0)) if sigma.dtype == object else (1, 0)
    powers = {0: np.full((1, 1), one, dtype=sigma.dtype)}
    prev = powers[0]
    for d in range(1, max(degrees) + 1):
        lower, pos = list(poly._sym_basis(n, d - 1)), poly._sym_basis(n, d)
        dim = len(pos)
        cur = np.full((dim, dim), zero, dtype=sigma.dtype)
        for i in range(n):
            up = [pos[a[:i] + (a[i] + 1,) + a[i + 1:]] for a in lower]
            for j in range(n):
                blk = slice(dim - poly._sym_dim(n - j, d), dim - poly._sym_dim(n - j - 1, d))
                if sigma[i, j]:
                    cur[up, blk] += prev[:, blk.start - blk.stop:] * sigma[i, j]
        prev = cur
        if d in degrees:
            powers[d] = cur
    return powers


@st.composite
def sym_power_cases(draw):
    """sigma on C^n, n = 2..4, as int64, QQi objects (rational and Gaussian),
    dense complex or complex with zero entries, and degrees up to 8 (up to 5
    for QQi on C^4, whose object loops are slow)."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["int64", "qqi", "complex", "complex-zeros"]))
    top = 5 if (kind, n) == ("qqi", 4) else 8
    degrees = draw(st.sets(st.integers(1, top), min_size=1, max_size=3))
    if kind == "int64":
        sigma = np.array([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)
    elif kind == "qqi":
        sigma = np.array([[draw(EXACT_ENTRIES[draw(st.sampled_from(list(EXACT_ENTRIES)))])
                           for _ in range(n)] for _ in range(n)], dtype=object)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sigma = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "complex-zeros":
            sigma[rng.uniform(size=(n, n)) < 0.4] = 0
    return kind, sigma, degrees


class TestSymPowers:
    """S^d(sigma) by one gather-multiply-sum per degree is the double loop's
    result: the same bits on int64 and dense complex sigma, the same QQi
    values and component types, and == on complex sigma with zero entries,
    where the loop skipped the zero products whose sign the gather keeps."""

    @settings(max_examples=60, deadline=None)
    @given(sym_power_cases())
    def test_gather_matches_double_loop(self, case):
        kind, sigma, degrees = case
        got, want = poly._sym_powers(sigma, degrees), old_sym_powers(sigma, degrees)
        assert sorted(got) == sorted(want) == sorted(degrees | {0})
        for d in degrees:
            assert got[d].shape == want[d].shape and got[d].dtype == want[d].dtype
            if kind in ("int64", "complex"):
                assert np.ascontiguousarray(got[d]).tobytes() == want[d].tobytes()
            elif kind == "qqi":
                assert got[d].tolist() == want[d].tolist()
                assert ([component_types(c) for c in got[d].ravel()]
                        == [component_types(c) for c in want[d].ravel()])
            else:
                assert np.array_equal(got[d], want[d])

    def test_gather_is_chunked_in_rows(self, monkeypatch):
        # a chunk of 64 entries gathers one or two rows of S^d at a time, and
        # the chunks add up to the unchunked powers bit for bit
        sigma = np.random.default_rng(4).standard_normal((3, 3)) + 0j
        whole = poly._sym_powers(sigma, {5})[5].tobytes()
        monkeypatch.setattr(poly, "_RECURSION_CHUNK", 64)
        assert poly._gather_rows(3, poly._sym_dim(3, 5)) == 1
        assert poly._sym_powers(sigma, {5})[5].tobytes() == whole

    def test_memory_peak_within_twice_the_output(self):
        # S^24 on C^4, one axis of the twisted cubic's Delta^6: 2925^2
        # entries; S^23, S^24 and one gather chunk are all the step holds
        sigma = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=np.int64)
        for d in range(1, 25):
            poly._sym_gather(4, d)  # the cached index tables are not part of a step
        tracemalloc.start()
        try:
            powers = poly._sym_powers(sigma, {24})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = powers[24]
        assert out.shape == (2925, 2925)
        # sigma has row and column sums 2, so every column of S^24 sums to 2^24
        assert int(out.sum(axis=0).max()) == 2 ** 24
        assert peak < 2 * out.nbytes


class TestPairConjugation:
    """``Pair.conjugated`` acts on each part by itself: ``act`` on a
    polynomial, ``act_tensor`` on a tensor vector, each on its own route."""

    def assert_parts_acted(self, pair, sigma):
        def items(x):
            return list((x.coords if isinstance(x, TensorVector) else x.terms).items())

        got = pair.conjugated(sigma)
        for g, e in zip((got.v, got.w), (pair.v, pair.w)):
            want = (act_tensor if isinstance(e, TensorVector) else act)(sigma, e)
            assert items(g) == items(want)
            assert ([component_types(c) for _, c in items(g)]
                    == [component_types(c) for _, c in items(want)])

    def test_integer_sigma_on_the_conic_x_pair(self):
        R = chow_form_curve(rational_normal_curve(2))
        D = hurwitz_form_curve(rational_normal_curve(2))
        sigma = [[QQi(x) for x in row] for row in [[2, 1, 0], [-1, 1, 3], [0, 5, 1]]]
        pair = Pair(R ** 2, D ** 4)
        assert route(sigma, pair.v) == route(sigma, pair.w) == {"int64"}
        self.assert_parts_acted(pair, sigma)

    def test_gaussian_sigma_on_a_polynomial_and_a_tensor(self):
        D = hurwitz_form_curve(rational_normal_curve(2))
        x = TensorVector([("vector", 3), ("wedge2", 3)],
                         {(0, (1, 2)): 1, (2, (0, 1)): QQi(1, 1)}, "exact")
        sigma = [[QQi(1), QQi(0, 1), QQi(0)], [QQi(0), QQi(1), QQi(1, 1)],
                 [QQi(2), QQi(0, 2), QQi(Fraction(1, 2))]]
        assert route(sigma, D ** 2) == {"object"}
        self.assert_parts_acted(Pair(D ** 2, x), sigma)

    def test_parts_take_their_own_routes(self):
        # column sums of 9: S^2 fits int64 (81), S^20 (9^20 ~ 1.2e19) does not
        sigma = [[QQi(x) for x in row] for row in [[3, 3, 3], [3, 3, 3], [3, 3, 3]]]
        small = HomogeneousPolynomial(V3, 2, {(1, 1, 0): 1, (0, 0, 2): Fraction(1, 2)}, "exact")
        big = HomogeneousPolynomial(V3, 20, {(20, 0, 0): 1, (0, 10, 10): 1}, "exact")
        assert route(sigma, small) == {"int64"}
        assert route(sigma, big) == {"object"}
        self.assert_parts_acted(Pair(small, big), sigma)

    def test_part_refused_above_cap_before_allocation(self, monkeypatch):
        # the small part is acted first; S^12 on C^4 (455^2 entries) is over
        # the cap, so the big part is refused before any of its arrays exists
        monkeypatch.setattr(poly, "DENSE_ENTRY_CAP", 10_000)
        V4 = VariableShape.vector(4)
        sig = [[QQi(int(i == j)) for j in range(4)] for i in range(4)]
        small = HomogeneousPolynomial(V4, 2, {(2, 0, 0, 0): 1}, "exact")
        big = HomogeneousPolynomial(V4, 12, {(12, 0, 0, 0): 1}, "exact")
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="above the cap of 10000"):
                Pair(small, big).conjugated(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAct:
    @settings(max_examples=80, deadline=None)
    @given(float_substitutions())
    def test_float_action_is_substitution(self, case):
        # (sigma . P)(z) = P(z sigma) in float mode, against the term-by-term
        # evaluator; the bound is sum |c| (max_row |z|_1 max |sigma|)^d
        P, sigma, z = case
        scale = sum(abs(c) for c in P.terms.values()) * (
            np.abs(z).sum(axis=1).max() * np.abs(sigma).max()) ** P.degree
        got = complex(evaluate(act(sigma, P), z))
        want = complex(evaluate(P, z @ sigma))
        assert abs(got - want) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(float_substitutions())
    def test_sample_transform_matches_action(self, case):
        # the sample set's z -> z sigma (one GEMM over all rows) against the
        # action's coefficients, evaluated on the same unmoved samples
        P, sigma, _ = case
        f = MahlerSampleFunctional(P, samples=MIN_SAMPLES, seed=0)
        moved = np.exp(f.log_abs(sigma))
        acted = np.exp(poly_log_abs(*_terms_arrays(act(sigma, P)), f.Z))
        rows = f.Z.reshape(MIN_SAMPLES, -1, sigma.shape[0])
        scale = sum(abs(c) for c in P.terms.values()) * (
            np.abs(rows).sum(axis=2).max(axis=1) * np.abs(sigma).max()) ** P.degree
        assert np.all(np.abs(moved - acted) <= 1e-12 * scale)

    def test_identity(self, rng):
        P = rand_poly(rng, V3, 2)
        identity = GroupElement([[int(i == j) for j in range(3)] for i in range(3)], "exact")
        assert act(identity, P) == P

    def test_diagonal_weight(self):
        x2 = HomogeneousPolynomial(V2, 2, {(2, 0): 1}, "exact")
        sig = [[QQi(2), QQi(0)], [QQi(0), QQi(Fraction(1, 2))]]
        assert act(sig, x2).terms == {(2, 0): QQi(4)}

    def test_respects_products(self, rng):
        P, Q = rand_poly(rng, V2, 2), rand_poly(rng, V2, 3)
        sig = rand_qqi_matrix(rng, 2)
        assert act(sig, P * Q) == act(sig, P) * act(sig, Q)

    def test_composition(self, rng):
        # act(tau, act(sigma, P)) == act(tau sigma, P) for the right
        # substitution convention (sigma . P)(A) = P(A sigma)
        for _ in range(5):
            P = rand_poly(rng, V3, 2)
            s1, s2 = rand_qqi_matrix(rng, 3), rand_qqi_matrix(rng, 3)
            assert act(s2, act(s1, P)) == act(exact_product(s2, s1), P)

    @given(
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda ab: sum(ab) <= 2),
            st.integers(-5, 5),
            min_size=1,
        ),
    )
    def test_composition_law_integer_matrices(self, s, t, coeffs):
        # any integer matrices, singular ones included: the law is polynomial
        sigma = [[QQi(x) for x in s[i:i + 3]] for i in (0, 3, 6)]
        tau = [[QQi(x) for x in t[i:i + 3]] for i in (0, 3, 6)]
        P = HomogeneousPolynomial(V3, 2, {(a, b, 2 - a - b): c for (a, b), c in coeffs.items()},
                                  "exact")
        assert act(tau, act(sigma, P)) == act(exact_product(tau, sigma), P)

    def test_exact_dense_block_above_cap_refused_before_allocation(self, monkeypatch):
        # x0^12 on C^4 needs S^12 with 455^2 = 207 025 entries; under a cap
        # of 10 000 the exact action refuses it before building any array
        monkeypatch.setattr(poly, "DENSE_ENTRY_CAP", 10_000)
        V4 = VariableShape.vector(4)
        sig = [[QQi(int(i == j)) for j in range(4)] for i in range(4)]
        small = HomogeneousPolynomial(V4, 2, {(2, 0, 0, 0): 1}, "exact")
        assert act(sig, small) == small
        big = HomogeneousPolynomial(V4, 12, {(12, 0, 0, 0): 1}, "exact")
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="above the cap of 10000"):
                act(sig, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 455 x 455 object array alone is 1.6 MB

    def test_matrix_shape_substitution(self, rng):
        shape = VariableShape.matrix(2, 2)
        P = rand_poly(rng, shape, 2)
        sig = rand_qqi_matrix(rng, 2)
        pt = [[QQi(1), QQi(2)], [QQi(-1), QQi(3)]]
        moved = exact_product(pt, sig)
        assert evaluate(act(sig, P), pt) == evaluate(P, moved)


@st.composite
def poly_matrices(draw):
    """Square matrices of size 1 to 4 of binary forms, one degree per row, with
    zero entries, so Bareiss elimination has to swap pivot rows."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        d = draw(st.integers(0, 2))
        coeffs = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
        rows.append([
            binary_form(d, draw(coeffs) if draw(st.integers(0, 3)) else [0]) for _ in range(n)
        ])
    return rows


def leibniz_det(rows):
    """Permutation-sum determinant over the polynomial ring; a permutation
    through a zero entry adds nothing and is skipped."""
    n = len(rows)
    shape = rows[0][0].shape
    det = HomogeneousPolynomial.zero(shape, sum(row[0].degree for row in rows), "exact")
    for perm in itertools.permutations(range(n)):
        if any(rows[i][j].is_zero for i, j in enumerate(perm)):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = HomogeneousPolynomial.constant(shape, (-1) ** inversions, "exact")
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        det = det + term
    return det


X, Y, ZERO1 = binary_form(1, [1, 0]), binary_form(1, [0, 1]), binary_form(1, [0])


class TestBareiss:
    @given(poly_matrices())
    @example([[ZERO1, X], [Y, ZERO1]])
    @example([[ZERO1, X, Y], [ZERO1, Y, X], [X, X, Y]])
    def test_matches_leibniz_expansion(self, rows):
        assert bareiss_poly_det(rows) == leibniz_det(rows)


class TestSylvester:
    def test_res_x_y(self):
        assert sylvester_resultant([1, 0], [0, 1]) == QQi(1)

    def test_res_x2_y2(self):
        assert sylvester_resultant([1, 0, 0], [0, 0, 1]) == QQi(1)

    def test_res_linear_symbolic(self):
        sh = VariableShape.matrix(2, 2)
        a0, a1, b0, b1 = (variable(sh, i) for i in range(4))
        r = sylvester_resultant([a0, a1], [b0, b1])
        assert r.terms == {(1, 0, 0, 1): QQi(1), (0, 1, 1, 0): QQi(-1)}

    def test_zero_form_rejected(self):
        with pytest.raises(PreconditionError):
            sylvester_resultant([0, 0], [1, 0])

    def test_against_sympy_determinant(self, rng):
        # same Sylvester matrix, independent determinant algorithm
        for _ in range(10):
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            fc = [int(rng.integers(-5, 6)) for _ in range(p + 1)]
            gc = [int(rng.integers(-5, 6)) for _ in range(q + 1)]
            if fc[0] == 0:
                fc[0] = 1
            if gc[0] == 0:
                gc[0] = 1
            mine = sylvester_resultant(fc, gc)
            rows = _sylvester_rows(fc, gc, 0)
            theirs = sympy.Matrix(rows).det()
            assert mine == QQi(int(theirs))

    def test_classical_product_formula(self, rng):
        # Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over the roots of f
        for _ in range(6):
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            fc = [int(rng.integers(-5, 6)) for _ in range(p + 1)]
            gc = [int(rng.integers(-5, 6)) for _ in range(q + 1)]
            if fc[0] == 0:
                fc[0] = 1
            if gc[0] == 0:
                gc[0] = 1
            mine = sylvester_resultant(fc, gc)
            roots = np.roots(fc)
            gval = np.prod([np.polyval(gc, r) for r in roots]) if len(roots) else 1.0
            expected = fc[0] ** q * gval
            assert complex(mine.to_complex()) == pytest.approx(complex(expected), rel=1e-8, abs=1e-8)

    def test_vanishes_iff_common_root(self, rng):
        sh = V2
        for _ in range(10):
            roots = [
                (int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                for _ in range(3)
            ]
            f = HomogeneousPolynomial.constant(sh, 1)
            for (a, b) in roots[:2]:
                f = f * HomogeneousPolynomial(sh, 1, {(1, 0): b, (0, 1): -a}, "exact")
            g = HomogeneousPolynomial.constant(sh, 1)
            for (a, b) in roots[1:]:
                g = g * HomogeneousPolynomial(sh, 1, {(1, 0): b, (0, 1): -a}, "exact")
            # f and g share the middle root by construction
            assert sylvester_resultant(f, g) == QQi(0)

    @given(LINEAR_ROOTS, LINEAR_ROOTS)
    @example([(1, 0)], [(2, 0)])
    @example([(0, 1), (1, 1)], [(-1, -1)])
    def test_zero_iff_projective_common_root(self, f_roots, g_roots):
        # products of linear factors b x - a y, which vanish exactly at (a:b)
        def product(roots):
            out = HomogeneousPolynomial.constant(V2, 1)
            for a, b in roots:
                out = out * HomogeneousPolynomial(V2, 1, {(1, 0): b, (0, 1): -a}, "exact")
            return out

        common = any(a * d == b * c for a, b in f_roots for c, d in g_roots)
        assert (sylvester_resultant(product(f_roots), product(g_roots)) == QQi(0)) == common

    def test_nonzero_for_coprime(self):
        f = HomogeneousPolynomial(V2, 1, {(1, 0): 1}, "exact")
        g = HomogeneousPolynomial(V2, 1, {(0, 1): 1}, "exact")
        assert sylvester_resultant(f, g) != QQi(0)


@st.composite
def symbolic_forms(draw):
    """Two binary forms of one degree n = 1..4 whose coefficients are exact
    binary forms, one degree 0..2 per form, with Gaussian-rational
    coefficients; any coefficient may be zero, the leading ones included."""
    n = draw(st.integers(1, 4))

    def form():
        e = draw(st.integers(0, 2))
        entry = st.lists(st.one_of(st.just(0), COEFFICIENTS), min_size=e + 1, max_size=e + 1)
        coeffs = [binary_form(e, draw(entry)) for _ in range(n + 1)]
        assume(not all(c.is_zero for c in coeffs))
        return coeffs

    return form(), form()


# a cubic and a linear form: symbolic resultants of unequal degrees are refused
UNEQUAL_DEGREES = ([X, ZERO1, Y, X + Y], [binary_form(0, [2]), binary_form(0, [QQi(0, -1)])])


def padded_sylvester_rows(f, g):
    """The Sylvester rows of two symbolic forms, each form's rows padded with
    the zero of its own coefficient degree."""
    p, q = len(f) - 1, len(g) - 1
    fz, gz = (HomogeneousPolynomial.zero(V2, h[0].degree, "exact") for h in (f, g))
    return ([[fz] * i + list(f) + [fz] * (q - 1 - i) for i in range(q)]
            + [[gz] * i + list(g) + [gz] * (p - 1 - i) for i in range(p)])


class TestSymbolicResultant:
    @settings(max_examples=40, deadline=None)
    @given(symbolic_forms())
    @example(([X, Y], [Y, X]))
    @example(([ZERO1, X, Y], [X, ZERO1, Y]))
    def test_matches_leibniz_sylvester_determinant(self, forms):
        f, g = forms
        assert sylvester_resultant(f, g) == leibniz_det(padded_sylvester_rows(f, g))

    def test_equal_degrees_eliminate_the_n_by_n_bezout_matrix(self, monkeypatch):
        sizes = []
        det = poly.bareiss_poly_det

        def recording_det(rows):
            sizes.append(len(rows))
            return det(rows)

        monkeypatch.setattr(poly, "bareiss_poly_det", recording_det)
        sylvester_resultant([X, Y, X, ZERO1], [Y, ZERO1, X, X])
        assert sizes == [3]

    def test_unequal_degrees_are_refused(self):
        with pytest.raises(PreconditionError, match="forms of one degree, got 3 and 1"):
            sylvester_resultant(*UNEQUAL_DEGREES)

    def test_two_constants_have_resultant_one(self):
        sh = VariableShape.matrix(2, 2)
        one = HomogeneousPolynomial.constant(sh, 1)
        assert sylvester_resultant([variable(sh, 0)], [variable(sh, 3) * variable(sh, 1)]) == one
        assert sylvester_resultant([one], [one * 3]) == one
        assert sylvester_resultant([2], [3]) == QQi(1)

    def test_degree_six_is_refused(self):
        # the cap is the largest curve degree forms builds; the rational
        # normal sextic's two row forms would take minutes and 735 MB
        assert poly.SYMBOLIC_DEGREE_CAP == CURVE_DEGREE_CAP == 5
        sh = VariableShape.matrix(2, 7)
        rows = [[variable(sh, 7 * r + j) for j in range(7)] for r in range(2)]
        with pytest.raises(PreconditionError, match="capped at form degree 5"):
            sylvester_resultant(*rows)


class TestDiscriminant:
    def test_quadratic(self):
        sh = VariableShape.matrix(1, 3)
        b0, b1, b2 = (variable(sh, i) for i in range(3))
        disc = binary_discriminant([b0, b1, b2])
        # b1^2 - 4 b0 b2 up to the declared constant (here -1)
        assert disc.terms == {(1, 0, 1): QQi(4), (0, 2, 0): QQi(-1)}

    def test_repeated_root_vanishes(self):
        # x^2 y: coefficients (0, 1, 0, 0) by descending x-power of degree 3
        assert binary_discriminant([0, 1, 0, 0]) == QQi(0)

    def test_three_distinct_roots(self):
        # x y (x + y) = x^2 y + x y^2: (0, 1, 1, 0)
        assert binary_discriminant([0, 1, 1, 0]) != QQi(0)

    def test_degree_cap(self):
        with pytest.raises(PreconditionError):
            binary_discriminant([1, 0])

    def test_planted_repeated_factors(self, rng):
        sh = V2
        for _ in range(8):
            a, b = int(rng.integers(-3, 4)), int(rng.integers(1, 4))
            lin = HomogeneousPolynomial(sh, 1, {(1, 0): b, (0, 1): -a}, "exact")
            other = HomogeneousPolynomial(
                sh, 1, {(1, 0): int(rng.integers(1, 4)), (0, 1): int(rng.integers(-3, 4))},
                "exact",
            )
            f = lin * lin * other
            assert binary_discriminant(f) == QQi(0)

    def test_against_sympy_up_to_divisor(self, rng):
        x, y = sympy.symbols("x y")
        for _ in range(6):
            d = int(rng.integers(2, 6))
            coeffs = [int(rng.integers(-4, 5)) for _ in range(d + 1)]
            if coeffs[0] == 0:
                coeffs[0] = 1
            mine = binary_discriminant(coeffs)
            f = sum(c * x ** (d - i) for i, c in enumerate(coeffs))
            theirs = sympy.discriminant(f, x)
            # classical relation: Res(f_x, f_y) = d^(d-2) * lc * disc-ish;
            # both vanish together and the ratio depends only on d and lc,
            # so compare vanishing plus proportionality across samples
            assert (mine == QQi(0)) == (theirs == 0)


class TestMaximalMinors:
    def test_unit_rows(self):
        assert maximal_minors([[1, 0, 0], [0, 1, 0]]) == [QQi(0), QQi(0), QQi(1)]
        assert maximal_minors([[1, 0, 0], [0, 0, 1]]) == [QQi(0), QQi(-1), QQi(0)]

    def test_rank_deficient(self):
        assert maximal_minors([[1, 2, 3], [2, 4, 6]]) == [QQi(0), QQi(0), QQi(0)]

    def test_kernel_property(self, rng):
        for _ in range(5):
            A = [[int(rng.integers(-4, 5)) for _ in range(4)] for _ in range(3)]
            lam = maximal_minors(A)
            for row in A:
                acc = QQi(0)
                for x, l in zip(row, lam):
                    acc = acc + QQi(x) * l
                assert acc == QQi(0)

    def test_symbolic_annihilation(self):
        # A . Lambda(A) = 0 as a polynomial identity
        for n1 in (2, 3):
            minors = symbolic_maximal_minors(n1)
            shape = minors[0].shape
            for r in range(n1):
                total = HomogeneousPolynomial.zero(shape, n1 + 1, "exact")
                for j, m in enumerate(minors):
                    total = total + variable(shape, r * (n1 + 1) + j) * m
                assert total.is_zero

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            maximal_minors([[1, 0], [0, 1]])


class TestExactDivision:
    def test_divexact_roundtrip(self, rng):
        for _ in range(5):
            A = rand_poly(rng, V3, 2)
            B = rand_poly(rng, V3, 3)
            assert poly_divexact(A * B, A) == B


# Reference arithmetic on tuple keys, written out term by term: the product
# and the difference keep their terms in order of first appearance, and the
# quotient takes its terms in descending lex order of the remainder's lead.
def ref_mul(P, Q):
    out = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = c1 * c2 if e not in out else out[e] + c1 * c2
    return [(e, c) for e, c in out.items() if c]


def ref_sub(P, Q):
    out = dict(P.terms)
    for e, c in Q.terms.items():
        out[e] = -c if e not in out else out[e] + (-c)
    return [(e, c) for e, c in out.items() if c]


def ref_divexact(num, den):
    lead = max(den.terms)
    rem, quotient = dict(num.terms), []
    while rem:
        e = max(rem)
        q = tuple(a - b for a, b in zip(e, lead))
        assert min(q) >= 0
        qc = rem[e] / den.terms[lead]
        quotient.append((q, qc))
        for f, c in den.terms.items():
            k = tuple(a + b for a, b in zip(q, f))
            v = rem.get(k, QQi(0)) - qc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quotient


SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
EXACT_SCALARS = st.builds(QQi, SMALL_RATIONALS, st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
SHAPES = st.sampled_from([VariableShape.vector(2), VariableShape.vector(3),
                          VariableShape.vector(4), VariableShape.matrix(2, 3)])


@st.composite
def exact_polys(draw, shape, degree, max_terms=6):
    """A random exact polynomial with 0 to max_terms terms (zero ones drop)."""
    exps = st.lists(st.integers(0, shape.nvars - 1), min_size=degree, max_size=degree).map(
        lambda vs: tuple(vs.count(v) for v in range(shape.nvars)))
    terms = draw(st.dictionaries(exps, EXACT_SCALARS, max_size=max_terms))
    return HomogeneousPolynomial(shape, degree, terms, "exact")


@st.composite
def poly_pairs(draw, same_degree=False):
    shape = draw(SHAPES)
    d1 = draw(st.integers(0, 4))
    d2 = d1 if same_degree else draw(st.integers(0, 4))
    return draw(exact_polys(shape, d1)), draw(exact_polys(shape, d2))


class TestPackedArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(poly_pairs())
    def test_product_matches_reference(self, pq):
        P, Q = pq
        assert list((P * Q).terms.items()) == ref_mul(P, Q)

    @settings(max_examples=100, deadline=None)
    @given(poly_pairs(same_degree=True))
    def test_difference_matches_reference(self, pq):
        P, Q = pq
        assert list((P - Q).terms.items()) == ref_sub(P, Q)
        assert list((P - P).terms.items()) == []
        assert list((-Q).terms.items()) == [(e, -c) for e, c in Q.terms.items()]

    @settings(max_examples=80, deadline=None)
    @given(poly_pairs())
    def test_quotient_of_product_matches_reference(self, pq):
        A, B = pq
        assume(not A.is_zero and not B.is_zero)
        quotient = poly_divexact(A * B, A)
        assert list(quotient.terms.items()) == ref_divexact(A * B, A)
        assert quotient == B

    def test_inexact_division_refused(self):
        x, y = variable(V2, 0), variable(V2, 1)
        with pytest.raises(PreconditionError):
            poly_divexact(x * x + y * y, x + y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.integers(1, 9).flatmap(lambda d: st.tuples(
            st.just(d + 1),
            st.lists(st.integers(0, d), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, d), min_size=n, max_size=n).map(tuple))))))
    def test_pack_keeps_lex_order(self, args):
        base, a, b = args[0]
        ka, kb = poly._pack(a, base), poly._pack(b, base)
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        assert poly._unpack(ka, base, len(a)) == a

    def test_pack_adds_exponents(self):
        a, b = (3, 0, 1, 2), (1, 4, 0, 0)
        assert poly._pack(a, 7) + poly._pack(b, 7) == poly._pack((4, 4, 1, 2), 7)


# Gaussian rationals with Fraction real and imaginary parts, and the same
# polynomials in float mode: the component loops build each coefficient once
GAUSSIAN_SCALARS = st.builds(QQi, SMALL_RATIONALS, SMALL_RATIONALS)


@st.composite
def gaussian_pairs(draw, same_degree=False):
    shape = draw(SHAPES)
    d1 = draw(st.integers(0, 4))
    d2 = d1 if same_degree else draw(st.integers(0, 4))
    exps = [st.lists(st.integers(0, shape.nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(v) for v in range(shape.nvars))) for d in (d1, d2)]
    return tuple(HomogeneousPolynomial(shape, d, draw(st.dictionaries(e, GAUSSIAN_SCALARS,
                                                                       max_size=6)), "exact")
                 for d, e in zip((d1, d2), exps))


class TestComponentArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(gaussian_pairs())
    def test_gaussian_product_matches_reference(self, pq):
        P, Q = pq
        got, want = list((P * Q).terms.items()), ref_mul(P, Q)
        assert got == want
        assert [component_types(c) for _, c in got] == [component_types(c) for _, c in want]

    @settings(max_examples=60, deadline=None)
    @given(gaussian_pairs(same_degree=True))
    def test_gaussian_difference_matches_reference(self, pq):
        P, Q = pq
        assert list((P - Q).terms.items()) == ref_sub(P, Q)

    @settings(max_examples=60, deadline=None)
    @given(gaussian_pairs())
    def test_gaussian_quotient_matches_reference(self, pq):
        A, B = pq
        assume(not A.is_zero and not B.is_zero)
        quotient = poly_divexact(A * B, A)
        assert list(quotient.terms.items()) == ref_divexact(A * B, A)
        assert quotient == B

    @settings(max_examples=100, deadline=None)
    @given(gaussian_pairs())
    def test_float_product_has_the_bits_of_complex_arithmetic(self, pq):
        # complex coefficients with nonterminating binary expansions: the
        # component loop's (ac - bd, ad + bc) sums are CPython's complex
        # product and sum, bit for bit
        P, Q = (X.to_float() for X in pq)
        got = list((P * Q).terms.items())
        want = ref_mul(P, Q)
        assert [e for e, _ in got] == [e for e, _ in want]
        assert [(c.real.hex(), c.imag.hex()) for _, c in got] == [
            (c.real.hex(), c.imag.hex()) for _, c in want]


def ref_content_normalized(P):
    """The defining construction: divide by the lead, then clear the content."""
    lead = P.sorted_terms()[0][1]
    scaled = [(e, c / lead) for e, c in P.terms.items()]
    parts = primitive_integer_vector([f for _, c in scaled for f in (c.re, c.im)])
    return [(e, QQi(parts[2 * i], parts[2 * i + 1])) for i, (e, _) in enumerate(scaled)]


class TestContentNormalized:
    @pytest.mark.parametrize("lead", [QQi(Fraction(3, 2)), QQi(-5, 0), QQi(Fraction(-2, 3)),
                                      QQi(1, -2), QQi(0, 3), QQi(Fraction(-1, 4), Fraction(5, 6))])
    @settings(max_examples=40, deadline=None)
    @given(SHAPES.flatmap(lambda shape: exact_polys(shape, 3)))
    def test_matches_division_by_lead(self, lead, P):
        assume(not P.is_zero)
        # rescale so the lex-leading coefficient is ``lead``
        P = P * (lead / P.terms[max(P.terms)])
        assert P.terms[max(P.terms)] == lead
        got = P.content_normalized()
        assert list(got.terms.items()) == ref_content_normalized(P)
        assert got.terms[max(got.terms)].im == 0 and got.terms[max(got.terms)].re > 0


class TestPrimitiveIntegerVector:
    @given(st.lists(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=50),
                    min_size=1, max_size=6).filter(any))
    def test_primitive_positive_multiple(self, values):
        ints = primitive_integer_vector(values)
        assert all(type(x) is int for x in ints)
        assert math.gcd(*ints) == 1
        # one positive rational factor carries the input onto the output
        i = next(k for k, x in enumerate(values) if x)
        factor = Fraction(ints[i]) / values[i]
        assert factor > 0
        assert [factor * x for x in values] == ints

    def test_zero_vector_stays_zero(self):
        assert primitive_integer_vector([Fraction(0), Fraction(0)]) == [0, 0]

    def test_content_normalized_gaussian(self):
        # (3/4 - i/2) x + 9/8 y: divided by the lead, then cleared to 26 x + (27 + 18i) y
        P = HomogeneousPolynomial(V2, 1, {(1, 0): QQi(Fraction(3, 4), Fraction(-1, 2)),
                                          (0, 1): QQi(Fraction(9, 8))}, "exact")
        assert P.content_normalized().terms == {(1, 0): QQi(26), (0, 1): QQi(27, 18)}


class TestGroupElement:
    def test_exact_det_one_enforced(self):
        with pytest.raises(PreconditionError):
            GroupElement([[QQi(2), QQi(0)], [QQi(0), QQi(1)]], "exact")

    def test_float_det_tolerance(self):
        GroupElement([[1.0, 0.0], [0.0, 1.0 + 1e-12]], "float")
        with pytest.raises(PreconditionError):
            GroupElement([[1.1, 0.0], [0.0, 1.0]], "float")


class TestOnePSG:
    def test_sum_zero_enforced(self):
        with pytest.raises(PreconditionError):
            OnePSG([1, 1])
