"""The power-table kernel against the reference evaluator ``poly.evaluate``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablepairs import norms
from stablepairs._kernels import _CHUNK, poly_log_abs, poly_values
from stablepairs.forms import chow_form_curve
from stablepairs.norms import (
    MIN_SAMPLES,
    MahlerSampleFunctional,
    _terms_arrays,
    sample_points,
    sup_norm,
)
from stablepairs.poly import HomogeneousPolynomial, VariableShape, evaluate
from stablepairs.scalars import FLOAT
from stablepairs.verify import rational_normal_curve

RTOL, ATOL = 1e-10, 1e-12


def reference(P: HomogeneousPolynomial, Z: np.ndarray) -> np.ndarray:
    return np.array([complex(evaluate(P, z)) for z in Z])


@st.composite
def sparse_polynomials(draw):
    """A homogeneous polynomial with mostly-zero exponents, and sample rows.

    The shape is a vector or a 2-row matrix; degree 0 gives constants; rows
    lie in the closed unit polydisk (the torus the Mahler measure integrates
    over) with some coordinates exactly 0.
    """
    shape = draw(st.one_of(st.builds(VariableShape.vector, st.integers(2, 5)),
                           st.builds(VariableShape.matrix, st.just(2), st.integers(2, 3))))
    nvars = shape.nvars
    degree = draw(st.integers(0, 6))
    part = st.one_of(st.just(0), st.integers(0, degree))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        exp, left = [], degree
        for x in draw(st.lists(part, min_size=nvars - 1, max_size=nvars - 1)):
            exp.append(min(x, left))
            left -= exp[-1]
        exp.append(left)
        perm = draw(st.permutations(range(nvars)))
        terms.setdefault(tuple(exp[i] for i in perm), complex(
            draw(st.floats(-2, 2)), draw(st.floats(-2, 2))))
    P = HomogeneousPolynomial(shape, degree, terms, FLOAT)
    rows = draw(st.sampled_from([1, 5, _CHUNK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.uniform(0, 1, (rows, nvars)) * np.exp(2j * np.pi * rng.uniform(0, 1, (rows, nvars)))
    Z[rng.uniform(0, 1, (rows, nvars)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0
    return P, Z


class TestBackendAgreement:
    """The kernel agrees with the reference evaluator at fixed tolerances."""

    def test_chow_form_matches_evaluate(self):
        # the twisted-cubic Chow form (34 terms in 8 variables) on Gaussian rows,
        # more rows than one chunk
        P = chow_form_curve(rational_normal_curve(3)).to_float()
        Z = sample_points(P.shape.nvars, _CHUNK + 500, seed=1)
        expo, coeffs = _terms_arrays(P)
        assert np.allclose(poly_values(expo, coeffs, Z), reference(P, Z), rtol=RTOL, atol=ATOL)

    @settings(max_examples=60, deadline=None)
    @given(sparse_polynomials())
    def test_values_match_evaluate(self, case):
        P, Z = case
        expo = np.array(list(P.terms), dtype=np.int64).reshape(len(P.terms), P.shape.nvars)
        coeffs = np.array([complex(c) for c in P.terms.values()], dtype=np.complex128)
        assert np.allclose(poly_values(expo, coeffs, Z), reference(P, Z), rtol=RTOL, atol=ATOL)

    def test_log_abs_floor(self):
        expo = np.array([[1, 0]], dtype=np.int64)
        coeffs = np.array([1.0 + 0j])
        Z = np.array([[0.0 + 0j, 1.0 + 0j]])
        out = poly_log_abs(expo, coeffs, Z)
        assert out[0] < -700

    def test_zero_coordinate_with_zero_exponent(self):
        # z = (0, 2): P = z1^2 must come out 4, z0 never enters
        expo = np.array([[0, 2]], dtype=np.int64)
        coeffs = np.array([1.0 + 0j])
        Z = np.array([[0.0 + 0j, 2.0 + 0j]])
        assert poly_values(expo, coeffs, Z)[0] == pytest.approx(4.0)


class TestCoefficientMatrix:
    """k polynomials on one monomial list: P and its partials in one pass."""

    @settings(max_examples=40, deadline=None)
    @given(sparse_polynomials(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matrix_rows_match_one_call_each(self, case, k, seed):
        P, Z = case
        expo, _ = _terms_arrays(P)
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((k, len(expo))) + 1j * rng.standard_normal((k, len(expo)))
        out = poly_values(expo, C, Z)
        assert out.shape == (k, Z.shape[0])
        for row, c in zip(out, C):
            assert np.allclose(row, poly_values(expo, c, Z), rtol=RTOL, atol=ATOL)

    @settings(max_examples=60, deadline=None)
    @given(sparse_polynomials())
    def test_jet_rows_are_p_and_its_partials(self, case):
        P, Z = case
        assume(not P.is_zero)
        jet = poly_values(*MahlerSampleFunctional(P, samples=MIN_SAMPLES).jet, Z)
        assert jet.shape == (1 + P.shape.nvars, Z.shape[0])
        assert np.allclose(jet[0], reference(P, Z), rtol=RTOL, atol=ATOL)
        for v in range(P.shape.nvars):
            assert np.allclose(jet[1 + v], reference(P.derivative(v), Z), rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_sigma_is_per_row_substitution(rows):
    # poly_values(..., sigma) moves each chunk inside the kernel; its values
    # are those at the points moved first, z_r -> z_r sigma on every matrix
    # row, bit for bit, for P alone and for the jet, over more than one chunk
    shape = VariableShape.vector(3) if rows == 1 else VariableShape.matrix(rows, 3)
    rng = np.random.default_rng(rows)
    terms = {tuple(np.bincount(rng.integers(0, shape.nvars, 3), minlength=shape.nvars)):
             complex(*rng.standard_normal(2)) for _ in range(12)}
    P = HomogeneousPolynomial(shape, 3, terms, FLOAT)
    Z = sample_points(shape.nvars, _CHUNK + 500, seed=rows)
    sigma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    moved = (Z.reshape(-1, 3) @ sigma).reshape(Z.shape)
    f = MahlerSampleFunctional(P, samples=MIN_SAMPLES)
    for expo, coeffs in ((f.expo, f.coeffs), f.jet):
        got, want = poly_values(expo, coeffs, Z, sigma), poly_values(expo, coeffs, moved)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert np.array_equal(poly_log_abs(f.expo, f.coeffs, Z, sigma),
                          poly_log_abs(f.expo, f.coeffs, moved))


class TestOneKernelCall:
    """The descent's moment and each sup-norm objective evaluation read P and
    its gradient from one kernel call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(*args):
            seen.append(args)
            return poly_values(*args)

        monkeypatch.setattr(norms, "poly_values", counted)
        return seen

    def test_moment(self, calls):
        P = chow_form_curve(rational_normal_curve(2)).to_float()
        f = MahlerSampleFunctional(P, samples=MIN_SAMPLES, seed=0)
        f.moment(np.diag([2.0, 1.0, 0.5]).astype(np.complex128))
        assert len(calls) == 1

    def test_sup_norm_objective(self, calls, monkeypatch):
        import scipy.optimize

        minimize, evals = scipy.optimize.minimize, []

        def counting(fun, x0, **kwargs):
            def counted(x):
                evals.append(x)
                return fun(x)

            return minimize(counted, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        P = HomogeneousPolynomial(VariableShape.vector(3), 2,
                                  {(1, 1, 0): 1.0, (0, 0, 2): 0.5j}, FLOAT)
        sup_norm(P, samples=MIN_SAMPLES, seed=0)
        assert evals and len(calls) == len(evals)
