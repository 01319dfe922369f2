"""The power-table kernel against the reference evaluator ``poly.evaluate``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepairs._kernels import _CHUNK, poly_log_abs, poly_values
from stablepairs.forms import chow_form_curve
from stablepairs.norms import _terms_arrays, sample_points
from stablepairs.poly import HomogeneousPolynomial, VariableShape, evaluate
from stablepairs.scalars import FLOAT
from stablepairs.verify import rational_normal_curve

RTOL, ATOL = 1e-10, 1e-12


def reference(P: HomogeneousPolynomial, Z: np.ndarray) -> np.ndarray:
    return np.array([complex(evaluate(P, z)) for z in Z])


@st.composite
def sparse_polynomials(draw):
    """A homogeneous polynomial with mostly-zero exponents, and sample rows.

    Degree 0 gives constants; rows lie in the closed unit polydisk (the torus
    the Mahler measure integrates over) with some coordinates exactly 0.
    """
    nvars = draw(st.integers(2, 5))
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
    P = HomogeneousPolynomial(VariableShape.vector(nvars), degree, terms, FLOAT)
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
