"""Polynomial core: evaluation, the group action, elimination primitives."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepairs import poly
from stablepairs._kernels import poly_log_abs
from stablepairs.errors import DimensionError, PreconditionError
from stablepairs.norms import MIN_SAMPLES, MahlerSampleFunctional, _terms_arrays
from stablepairs.poly import (
    GroupElement,
    HomogeneousPolynomial,
    OnePSG,
    VariableShape,
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
from stablepairs.verify import binary_form

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
    """Permutation-sum determinant over the polynomial ring."""
    n = len(rows)
    det = HomogeneousPolynomial.zero(V2, sum(row[0].degree for row in rows), "exact")
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = HomogeneousPolynomial.constant(V2, (-1) ** inversions, "exact")
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
        from stablepairs.poly import _sylvester_rows

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
