"""Weight lattice: supports, polytopes, 1-PSG weights, exact containment."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from stablepairs import verify, weights
from stablepairs.errors import PreconditionError
from stablepairs.linprog import hull_membership
from stablepairs.poly import (
    HomogeneousPolynomial,
    OnePSG,
    VariableShape,
    primitive_integer_vector,
)
from stablepairs.scalars import QQi
from stablepairs.weights import (
    LatticePolytope,
    TensorVector,
    WeightCharacter,
    act_tensor,
    contains,
    minkowski_sum,
    psg_weight,
    rep_degree,
    scale,
    standard_simplex,
    support,
    weight_polytope,
)
from stablepairs.verify import binary_form, blowup_pair

V2 = VariableShape.vector(2)
M13 = VariableShape.matrix(1, 3)


def disc_poly():
    return HomogeneousPolynomial(M13, 2, {(1, 0, 1): 4, (0, 2, 0): -1}, "exact")


class TestSupport:
    def test_discriminant_support(self):
        assert {c.raw for c in support(disc_poly())} == {(0, 2, 0), (1, 0, 1)}

    def test_monomial_support(self):
        P = HomogeneousPolynomial(VariableShape.vector(4), 3, {(3, 0, 0, 0): 1}, "exact")
        assert {c.raw for c in support(P)} == {(3, 0, 0, 0)}

    def test_wedge_square_support(self):
        assert {c.raw for c in support(blowup_pair().v)} == {(2, 2, 0)}

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            support(HomogeneousPolynomial.zero(V2, 2))

    def test_float_threshold(self):
        P = HomogeneousPolynomial(V2, 2, {(2, 0): 1.0, (1, 1): 1e-14}, "float")
        assert {c.raw for c in support(P)} == {(2, 0)}


class TestPolytope:
    def test_identity_operator_gives_simplex(self):
        q2 = standard_simplex(3)
        assert sorted(p.raw for p in q2.vertices) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # 0 is interior: strictly a convex combination of the vertices
        ok, _ = contains(LatticePolytope([WeightCharacter((0, 0, 0))]), q2)
        assert ok

    def test_monomial_point_polytope(self):
        P = binary_form(2, [1, 0, 0])
        assert len(weight_polytope(P).points) == 1

    def test_discriminant_segment(self):
        poly = weight_polytope(disc_poly())
        assert len(poly.points) == 2
        assert len(poly.vertices) == 2

    def test_vertices_subset_of_points(self):
        pts = [WeightCharacter(t) for t in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]]
        poly = LatticePolytope(pts)
        verts = {p.raw for p in poly.vertices}
        assert verts == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}  # (1,1,0) is an edge midpoint


class TestWeight:
    def test_x_squared(self):
        assert psg_weight(OnePSG([1, -1]), binary_form(2, [1, 0, 0])) == 2

    def test_discriminant_weight(self):
        assert psg_weight(OnePSG([1, 0, -1]), disc_poly()) == 0

    def test_x_plus_y(self):
        assert psg_weight(OnePSG([1, -1]), binary_form(1, [1, 1])) == -1

    def test_vertex_reduction(self, rng):
        # min over vertices equals min over all points
        for _ in range(5):
            pts = [
                WeightCharacter(tuple(int(x) for x in rng.integers(0, 5, size=3)))
                for _ in range(8)
            ]
            poly = LatticePolytope(pts)
            a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            lam = OnePSG([a, b, -a - b])
            full = min(p.pair(lam) for p in poly.points)
            verts = min(p.pair(lam) for p in poly.vertices)
            assert full == verts

    def test_limit_consistency_float(self):
        # slope of log ||lambda(t) e||^2 against log |t|^2 tends to the weight
        checks, _ = verify.weight_slopes(count=5, nvars=(3, 4), degrees=(1, 5), seed=2024)
        assert all(c["passed"] for c in checks)


class TestContains:
    def test_equal_points(self):
        pair = blowup_pair()
        ok, _ = contains(weight_polytope(pair.v), weight_polytope(pair.w))
        assert ok

    def test_segment_failure_with_witness(self):
        inner = weight_polytope(binary_form(1, [1, 0]))
        outer = weight_polytope(binary_form(2, [1, 0, 0]))
        ok, lam = contains(inner, outer)
        assert not ok and list(lam.exponents) == [1, -1]

    def test_reflexive(self, rng):
        pts = [
            WeightCharacter(tuple(int(x) for x in rng.integers(0, 4, size=3)))
            for _ in range(6)
        ]
        poly = LatticePolytope(pts)
        ok, _ = contains(poly, poly)
        assert ok

    def test_witness_soundness(self, rng):
        # every returned witness strictly separates, exactly
        for trial in range(10):
            inner = LatticePolytope(
                [
                    WeightCharacter(tuple(int(x) for x in rng.integers(0, 4, size=3)))
                    for _ in range(4)
                ]
            )
            outer = LatticePolytope(
                [
                    WeightCharacter(tuple(int(x) for x in rng.integers(0, 4, size=3)))
                    for _ in range(4)
                ]
            )
            ok, lam = contains(inner, outer)
            if not ok:
                assert psg_weight(lam, outer) > psg_weight(lam, inner)

    def test_criterion_equivalence_small_lattice(self):
        # polytope containment iff w_lam(outer) <= w_lam(inner) for all lam,
        # enumerated over a lattice ball of 1-PSGs (criteria 2 <=> 3)
        charsets = [
            [(2, 0, 0), (0, 2, 0)],
            [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
            [(1, 1, 0), (0, 1, 1)],
            [(1, 0, 1)],
            [(2, 1, 0), (1, 2, 0), (0, 1, 2)],
        ]
        polys = [LatticePolytope([WeightCharacter(c) for c in cs]) for cs in charsets]
        lams = [
            OnePSG([a, b, -a - b])
            for a in range(-3, 4)
            for b in range(-3, 4)
            if (a, b) != (0, 0) or a + b != 0
            if not (a == 0 and b == 0)
        ]
        for P in polys:
            for Q in polys:
                ok, _ = contains(P, Q)
                weight_ok = all(psg_weight(l, Q) <= psg_weight(l, P) for l in lams)
                assert ok == weight_ok


def contains_by_lp_on_every_point(inner, outer):
    """contains() without the outer-point shortcut: one LP per inner point."""
    outer_pts = [list(p.projected) for p in outer.points]
    for p in inner.points:
        ok, cert = hull_membership(outer_pts, list(p.projected))
        if not ok:
            mu = cert[: inner.ambient]
            mean = sum(mu, Fraction(0)) / len(mu)
            return False, primitive_integer_vector([mean - m for m in mu])
    return True, None


CHARS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


class TestContainsShortcut:
    @given(st.lists(CHARS, min_size=1, max_size=6), st.lists(CHARS, max_size=4),
           st.lists(st.booleans(), min_size=6, max_size=6))
    def test_same_answer_as_lp_on_every_point(self, outer_chars, extra, keep):
        # the inner support shares some points with the outer one
        shared = [c for c, k in zip(outer_chars, keep) if k]
        if not shared + extra:
            extra = [(1, 1, 1)]
        inner = LatticePolytope([WeightCharacter(c) for c in shared + extra])
        outer = LatticePolytope([WeightCharacter(c) for c in outer_chars])
        ok, lam = contains(inner, outer)
        ok_ref, lam_ref = contains_by_lp_on_every_point(inner, outer)
        assert ok == ok_ref
        assert (lam is None and lam_ref is None) or list(lam.exponents) == lam_ref

    def test_polytope_in_itself_needs_no_lp(self, monkeypatch):
        calls = []

        def counting(points, x):
            calls.append(x)
            return hull_membership(points, x)

        monkeypatch.setattr(weights, "hull_membership", counting)
        P = weight_polytope(HomogeneousPolynomial(
            VariableShape.vector(3), 3, {(3, 0, 0): 1, (1, 1, 1): -2, (0, 1, 2): 5, (0, 3, 0): 1},
            "exact"))
        assert contains(P, P) == (True, None)
        assert calls == []
        # a point inside but not on the support still goes to the LP
        inner = LatticePolytope([WeightCharacter((1, 2, 0)), WeightCharacter((3, 0, 0))])
        assert contains(inner, P)[0]
        assert len(calls) == 1


@st.composite
def hull_queries(draw):
    """Small integer points in dimension 1 to 3, and a query point."""
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    return draw(st.lists(coords, min_size=1, max_size=6)), draw(coords)


def linprog_feasible(points, x):
    """x in conv(points) by a floating-point LP: lambda >= 0, sum 1, sum lambda p = x."""
    a_eq = np.vstack([np.array(points, dtype=float).T, np.ones(len(points))])
    res = linprog(np.zeros(len(points)), A_eq=a_eq, b_eq=list(x) + [1.0], bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def exact_hull_membership(points, x):
    return hull_membership([[Fraction(c) for c in p] for p in points], [Fraction(c) for c in x])


class TestHullMembership:
    @given(hull_queries())
    def test_farkas_certificate_separates(self, query):
        points, x = query
        ok, y = exact_hull_membership(points, x)
        assert ok == linprog_feasible(points, x)
        if not ok:
            # y[:dim] . x > max_k y[:dim] . p_k, exactly (zip stops at dim)
            score = [sum(yi * c for yi, c in zip(y, p)) for p in points + [x]]
            assert score[-1] > max(score[:-1])

    @given(hull_queries(), st.integers(0, 5))
    def test_listed_point_is_feasible(self, query, k):
        points, _ = query
        assert exact_hull_membership(points, points[k % len(points)]) == (True, None)


class TestMinkowski:
    def test_additive_identity(self):
        P = weight_polytope(disc_poly())
        origin = LatticePolytope([WeightCharacter((0, 0, 0))])
        assert minkowski_sum(P, origin) == P

    def test_simplex_dilation(self):
        q = standard_simplex(3)
        assert minkowski_sum(q, q) == scale(q, 2)

    def test_tensor_brute_force(self):
        # q Q_N + m N(v) against the expanded support of I^q (x) v^m, N = 1
        v = binary_form(2, [1, 0, 3])  # support {(2,0), (0,2)}
        q_n = standard_simplex(2)
        for q, m in ((1, 1), (2, 2), (2, 1)):
            lhs = minkowski_sum(scale(q_n, q), scale(weight_polytope(v), m))
            # brute force: sumsets of the coordinate characters and supports
            base = [(1, 0), (0, 1)]
            supp = [(2, 0), (0, 2)]
            total = [(0, 0)]
            for _ in range(q):
                total = [tuple(x + y for x, y in zip(t, b)) for t in total for b in base]
            for _ in range(m):
                total = [tuple(x + y for x, y in zip(t, s)) for t in total for s in supp]
            rhs = LatticePolytope([WeightCharacter(t) for t in set(total)])
            assert lhs == rhs


class TestWeylEquivariance:
    def test_permutation_action(self, rng):
        from stablepairs.poly import act

        P = HomogeneousPolynomial(
            VariableShape.vector(3), 2, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 3}, "exact"
        )
        perm = [[QQi(0), QQi(1), QQi(0)], [QQi(0), QQi(0), QQi(1)], [QQi(1), QQi(0), QQi(0)]]
        moved = act(perm, P)
        orig = {c.raw for c in support(P)}
        # substitution by a permutation matrix permutes the characters
        expected = set()
        for raw in orig:
            expected.add(tuple(raw[[1, 2, 0][i]] for i in range(3)))
        assert {c.raw for c in support(moved)} == expected


@st.composite
def mixed_tensors(draw, n=3):
    """Exact tensors on C^n with at least one vector and one wedge slot."""
    kinds = draw(st.permutations(
        ["vector", "wedge2"] + draw(st.lists(st.sampled_from(["vector", "wedge2"]), max_size=1))))
    wedge = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = st.tuples(*(st.integers(0, n - 1) if k == "vector" else st.sampled_from(wedge)
                        for k in kinds))
    coords = draw(st.dictionaries(index, st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    return TensorVector([(k, n) for k in kinds], {i: QQi(c) for i, c in coords.items()}, "exact")


class TestTensorVector:
    def test_wedge_index_validation(self):
        with pytest.raises(Exception):
            TensorVector([("wedge2", 3)], {((1, 1),): 1})

    def test_act_tensor_support_transform(self):
        w = blowup_pair().w
        sig = [[QQi(1), QQi(1), QQi(0)], [QQi(0), QQi(1), QQi(0)], [QQi(0), QQi(0), QQi(1)]]
        moved = act_tensor(sig, w)
        assert (2, 2, 0) in {c.raw for c in support(moved)}

    @given(mixed_tensors(), st.lists(st.integers(-2, 2), min_size=9, max_size=9),
           st.lists(st.integers(-2, 2), min_size=9, max_size=9))
    def test_act_tensor_composition_law(self, x, s, t):
        # the left action composes: tau . (sigma . x) == (tau sigma) . x, on
        # any integer matrices, singular ones included (both sides annihilate)
        sigma = [[QQi(v) for v in s[i:i + 3]] for i in (0, 3, 6)]
        tau = [[QQi(v) for v in t[i:i + 3]] for i in (0, 3, 6)]

        def moved(m, y):
            try:
                return act_tensor(m, y)
            except PreconditionError:
                return None

        once = moved(sigma, x)
        twice = None if once is None else moved(tau, once)
        product = moved((np.array(tau, dtype=object) @ np.array(sigma, dtype=object)).tolist(), x)
        assert (twice is None) == (product is None)
        if product is not None:
            assert twice.slots == product.slots
            assert twice.coords == product.coords

    def test_rep_degree(self):
        pair = blowup_pair()
        assert rep_degree(pair.v) == 4
        assert rep_degree(pair.w) == 4
        assert rep_degree(binary_form(3, [1, 0, 0, 1])) == 3
        assert rep_degree(HomogeneousPolynomial.constant(V2, 5)) == 0
