"""Chow and Hurwitz constructions, degree certification, the variety pair."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import generic_matrix
from stablepairs.errors import DegenerateCurveError, PreconditionError
from stablepairs.forms import (
    CURVE_DEGREE_CAP,
    HypersurfaceVariety,
    RationalCurve,
    build_x_pair,
    chow_form_curve,
    chow_form_hypersurface,
    hurwitz_form_curve,
)
from stablepairs.poly import (
    HomogeneousPolynomial,
    VariableShape,
    act,
    evaluate,
    maximal_minors,
)
from stablepairs.scalars import QQi
from stablepairs.serialize import xpair_from_json, xpair_to_json
from stablepairs import verify
from stablepairs.verify import binary_form, rational_normal_curve

V3 = VariableShape.vector(3)
V4 = VariableShape.vector(4)


def conic_F():
    return HomogeneousPolynomial(V3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, "exact")


# projective roots (a:b) in a small box, [1:0] and [0:1] among them
ROOTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


def linear_factor_product(roots, d):
    """The product of the factors b x - a y over the roots (a:b), or the zero
    form of degree d for None."""
    if roots is None:
        return binary_form(d, [0])
    out = binary_form(0, [1])
    for a, b in roots:
        out = out * binary_form(1, [b, -a])
    return out


@st.composite
def curve_components(draw):
    """(d, roots per component): 2 to 4 components of degree d = 1 .. 3, any
    of them zero (None) but not all, and with or without one root planted
    in every nonzero component."""
    d = draw(st.integers(1, 3))
    count = draw(st.integers(2, 4))
    roots = [draw(st.one_of(st.none(), st.lists(ROOTS, min_size=d, max_size=d)))
             for _ in range(count)]
    if all(r is None for r in roots):
        roots[0] = draw(st.lists(ROOTS, min_size=d, max_size=d))
    if draw(st.booleans()):
        planted = draw(ROOTS)
        roots = [None if r is None else [planted] + r[1:] for r in roots]
    return d, roots


class TestRationalCurve:
    def test_degenerate_rejected(self):
        # both components share the root [0:1]
        with pytest.raises(DegenerateCurveError):
            RationalCurve(1, 2, [binary_form(2, [1, 0, 0]), binary_form(2, [1, 1, 0])])

    def test_twisted_cubic_not_rejected(self):
        # pairwise component resultants vanish here; only a global common
        # root is degenerate
        rational_normal_curve(3)

    def test_component_count(self):
        with pytest.raises(PreconditionError):
            RationalCurve(2, 2, [binary_form(2, [1, 0, 0])])

    @given(curve_components())
    @example((2, [[(0, 1), (0, 1)], [(1, 0), (1, 0)]]))  # x^2, y^2: no shared root
    @example((2, [[(0, 1), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 0)]]))  # the conic
    @example((1, [[(1, 0)], None, [(1, 0)]]))  # -y, 0, -y: [1:0] is shared
    @example((2, [[(1, 0), (2, 3)], [(3, 4), (2, 3)]]))  # (2:3) is shared
    def test_common_root_rejected_iff_one_exists(self, case):
        d, roots = case
        gamma = [linear_factor_product(r, d) for r in roots]
        # brute force: some root (a:b) of a nonzero component kills every nonzero one
        nonzero = [gm for gm in gamma if not gm.is_zero]
        shared = any(all(evaluate(gm, [a, b]) == QQi(0) for gm in nonzero)
                     for r in roots if r for a, b in r)
        try:
            RationalCurve(len(gamma) - 1, d, gamma)
        except DegenerateCurveError:
            assert shared
        else:
            assert not shared


class TestChowCurve:
    def test_conic_unit_rows(self, conic_curve):
        R = chow_form_curve(conic_curve)
        # A = [[1,0,0],[0,0,1]]: Res(s^2, t^2) = 1
        assert evaluate(R, [1, 0, 0, 0, 0, 1]) == QQi(1)

    def test_conic_kernel_on_curve(self, conic_curve):
        R = chow_form_curve(conic_curve)
        # ker [[1,0,0],[0,1,0]] = (0,0,1) = gamma(0,1)
        assert evaluate(R, [1, 0, 0, 0, 1, 0]) == QQi(0)

    def test_degrees(self, conic_curve, cubic_curve):
        for curve, d in ((conic_curve, 2), (cubic_curve, 3)):
            R = chow_form_curve(curve)
            assert R.degree == 2 * d  # d(n+1) with n = 1
            for exp in R.terms:
                assert sum(exp[: curve.N + 1]) == d  # degree d in each row

    def test_vanishes_iff_kernel_meets_curve(self, conic_curve, rng):
        R = chow_form_curve(conic_curve)
        hits = 0
        for _ in range(20):
            A = rng.integers(-4, 5, size=(2, 3))
            if np.linalg.matrix_rank(A) < 2:
                continue
            val = evaluate(R, [int(x) for x in A.ravel()])
            # kernel of A meets the conic iff the quadratic A.gamma(1, t),
            # A'.gamma(1, t) share a root, detected by float root matching
            f = np.array([int(x) for x in A[0]], dtype=float)
            g = np.array([int(x) for x in A[1]], dtype=float)
            # gamma(s,t) = (s^2, st, t^2): A gamma = a0 s^2 + a1 st + a2 t^2
            shared = False
            r1 = np.roots(f) if np.any(f) else []
            r2 = np.roots(g) if np.any(g) else []
            for a in np.atleast_1d(r1):
                for b in np.atleast_1d(r2):
                    if abs(a - b) < 1e-8:
                        shared = True
            if val == QQi(0):
                hits += 1
                assert shared or (abs(f[0]) < 1e-12 and abs(g[0]) < 1e-12)
            else:
                assert not shared

    def test_left_sl2_invariance(self, conic_curve, rng):
        R = chow_form_curve(conic_curve)
        for _ in range(5):
            a, b, c = (int(x) for x in rng.integers(-3, 4, size=3))
            d = (1 + b * c)
            # integer matrix with det 1: [[1+bc, b],[c, 1]] has det 1+bc-bc=1
            g = [[QQi(1 + b * c), QQi(b)], [QQi(c), QQi(1)]]
            A = [[QQi(int(x)) for x in row] for row in rng.integers(-3, 4, size=(2, 3))]
            gA = (np.array(g, dtype=object) @ np.array(A, dtype=object)).tolist()
            assert evaluate(R, [x for row in A for x in row]) == evaluate(
                R, [x for row in gA for x in row]
            )

    def test_right_action_equivariance_d2(self, conic_curve, rng):
        # act(sigma, R_gamma) is the Chow form of the sigma-image curve,
        # up to the emitted scalar
        R = chow_form_curve(conic_curve)
        sig_rows = [[QQi(1), QQi(2), QQi(0)], [QQi(0), QQi(1), QQi(1)], [QQi(1), QQi(0), QQi(1)]]
        moved = act(sig_rows, R).content_normalized()
        shape2 = VariableShape.vector(2)
        new_gamma = []
        for i in range(3):
            comp = HomogeneousPolynomial.zero(shape2, 2, "exact")
            for j, gm in enumerate(conic_curve.gamma):
                comp = comp + gm * sig_rows[i][j]
            new_gamma.append(comp)
        image_curve = RationalCurve(2, 2, new_gamma)
        R2 = chow_form_curve(image_curve)
        assert moved == R2 or moved == -R2

    def test_plane_quintic_at_the_degree_cap(self):
        curve = RationalCurve(2, CURVE_DEGREE_CAP, [binary_form(5, [1, 0, 0, 0, 0, 2]),
                                                    binary_form(5, [0, 1, 0, 0, -1, 0]),
                                                    binary_form(5, [0, 0, 3, 1, 0, 0])])
        R = chow_form_curve(curve)
        assert R.degree == 10
        assert all(sum(exp[:3]) == 5 for exp in R.terms)  # degree 5 in each row
        # gamma(1, 2) = (65, -14, 20) spans the kernel of these rows
        assert evaluate(R, [[14, 65, 0], [20, 0, -65]]) == QQi(0)
        assert evaluate(R, [[1, 2, -3], [Fraction(1, 2), 5, 7]]) != QQi(0)
        assert hurwitz_form_curve(curve).degree == 8

    def test_symbolic_cap(self):
        with pytest.raises(PreconditionError, match="capped at d <= 5"):
            chow_form_curve(rational_normal_curve(6))


class TestHurwitzCurve:
    def test_conic_discriminant(self, conic_curve):
        D = hurwitz_form_curve(conic_curve)
        assert D.terms == {(1, 0, 1): QQi(4), (0, 2, 0): QQi(-1)} or D.terms == {
            (1, 0, 1): QQi(-4),
            (0, 2, 0): QQi(1),
        }

    def test_cubic_degree(self, cubic_curve):
        D = hurwitz_form_curve(cubic_curve)
        # n(n+1)d - d mu with n = 1, d mu = 2: degree 2d - 2 = 4
        assert D.degree == 4

    def test_tangent_line_vanishes(self, conic_curve):
        D = hurwitz_form_curve(conic_curve)
        # B = (1,0,0): B gamma = s^2, a repeated root
        assert evaluate(D, [1, 0, 0]) == QQi(0)

    def test_dual_conic(self, conic_curve, rng):
        # Delta(B) = 0 exactly on the dual conic b1^2 = 4 b0 b2
        D = hurwitz_form_curve(conic_curve)
        for _ in range(10):
            b0, b2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            # pick b1 with b1^2 = 4 b0 b2 over the rationals when possible
            prod = 4 * b0 * b2
            root = int(round(prod ** 0.5))
            if root * root == prod:
                assert evaluate(D, [b0, root, b2]) == QQi(0)
            assert evaluate(D, [b0, 0, b2]) != QQi(0)

    def test_line_rejected(self):
        line = RationalCurve(1, 1, [binary_form(1, [1, 0]), binary_form(1, [0, 1])])
        with pytest.raises(PreconditionError):
            hurwitz_form_curve(line)


class TestChowHypersurface:
    def test_kernel_point_on_conic(self):
        h = HypersurfaceVariety(1, conic_F())
        R = chow_form_hypersurface(h)
        assert evaluate(R, [1, 0, 0, 0, 1, 0]) == QQi(0)

    def test_raw_composition_value(self):
        # F(Lambda(A)) for A = [[1,0,0],[0,0,1]]: minors (0,-1,0), F = -1
        lam = maximal_minors([[1, 0, 0], [0, 0, 1]])
        assert evaluate(conic_F(), lam) == QQi(-1)

    def test_degree(self):
        h = HypersurfaceVariety(1, conic_F())
        assert chow_form_hypersurface(h).degree == 2 * 2  # d(n+1)

    def test_exact_ratio_with_parametric(self):
        # one exact ratio of the parametric to the hypersurface Chow form at 20 points
        _, worst = verify.forms_and_degrees(trials=20, seed=2024)
        assert len(worst["ratios"]) == 1

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_cubic_surface_matches_running_sum(self, seed):
        # the composition summed term by term, each power taken afresh
        rng = np.random.default_rng(seed)
        exps = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
        F = HomogeneousPolynomial(V4, 3, {e: int(rng.integers(-3, 4)) for e in exps}, "exact")
        minors = maximal_minors(generic_matrix(3))
        total = HomogeneousPolynomial.zero(minors[0].shape, 9, "exact")
        for exp, c in F.sorted_terms():
            term = HomogeneousPolynomial.constant(minors[0].shape, c, "exact")
            for j, e in enumerate(exp):
                if e:
                    term = term * minors[j] ** e
            total = total + term
        expected = total.content_normalized()
        got = chow_form_hypersurface(HypersurfaceVariety(2, F))
        assert list(got.terms.items()) == list(expected.terms.items())


class TestXPair:
    def test_conic_exponents(self, conic_xpair):
        assert (conic_xpair.deg_r, conic_xpair.deg_delta) == (4, 2)
        assert (conic_xpair.n, conic_xpair.N, conic_xpair.d) == (1, 2, 2)

    def test_cubic_degrees(self, cubic_xpair):
        assert (cubic_xpair.deg_r, cubic_xpair.deg_delta) == (6, 4)

    def test_line_pair_has_no_delta(self):
        line = RationalCurve(1, 1, [binary_form(1, [1, 0]), binary_form(1, [0, 1])])
        xp = build_x_pair(line)
        assert xp.hyperdiscriminant is None
        with pytest.raises(PreconditionError):
            xp.require_delta()

    def test_hypersurface_pair_flagged(self):
        xp = build_x_pair(HypersurfaceVariety(1, conic_F()))
        assert xp.hyperdiscriminant is None
        assert (xp.n, xp.N, xp.d, xp.deg_r, xp.deg_delta) == (1, 2, 2, 4, None)

    def test_json_with_old_mahler_fields_loads(self, conic_xpair):
        # files written before the Mahler estimates were dropped still load;
        # the two estimates are ignored and not written back
        doc = xpair_to_json(conic_xpair)
        estimate = {"log_value": -1.0, "stderr": 0.01, "p": 0.0, "samples": 1000, "seed": 0}
        doc.update(mahler_log_r=estimate, mahler_log_delta=estimate)
        assert xpair_to_json(xpair_from_json(doc)) == xpair_to_json(conic_xpair)
