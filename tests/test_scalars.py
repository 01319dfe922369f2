"""Gaussian rationals: QQi against a reference pair of Fractions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablepairs.errors import ExactnessError
from stablepairs.scalars import EXACT, QQi, coerce_scalar
from stablepairs.serialize import scalar_to_json

# ints, reduced Fractions, and Fractions such as 4/2 that reduce to integers
RATIONALS = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
)
PAIRS = st.tuples(RATIONALS, RATIONALS)


def ref(x):
    """The reference value: a (re, im) pair of Fractions."""
    if isinstance(x, QQi):
        return Fraction(x.re), Fraction(x.im)
    if isinstance(x, tuple):
        return Fraction(x[0]), Fraction(x[1])
    return Fraction(x), Fraction(0)


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


def fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def assert_matches(z, expected):
    assert isinstance(z, QQi)
    assert (z.re, z.im) == expected
    for part in (z.re, z.im):
        # integral components are plain ints; a Fraction is never integral
        assert type(part) is (int if part.denominator == 1 else Fraction)
    assert z == QQi(*expected)
    assert hash(z) == hash(QQi(*expected)) == hash(expected)
    assert scalar_to_json(z) == {"re": fraction_text(expected[0]), "im": fraction_text(expected[1])}


class TestAgainstFractionPairs:
    @given(PAIRS, st.one_of(PAIRS, RATIONALS))
    def test_ring_operations(self, a, b):
        z = QQi(*a)
        w = QQi(*b) if isinstance(b, tuple) else b
        assert_matches(z + w, ref_add(ref(a), ref(b)))
        assert_matches(w + z, ref_add(ref(b), ref(a)))
        assert_matches(z - w, ref_sub(ref(a), ref(b)))
        assert_matches(w - z, ref_sub(ref(b), ref(a)))
        assert_matches(z * w, ref_mul(ref(a), ref(b)))
        assert_matches(w * z, ref_mul(ref(b), ref(a)))
        assert_matches(-z, (-ref(a)[0], -ref(a)[1]))

    @given(PAIRS, st.one_of(PAIRS, RATIONALS))
    def test_division(self, a, b):
        z = QQi(*a)
        w = QQi(*b) if isinstance(b, tuple) else b
        if ref(b) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                z / w
            return
        assert_matches(z / w, ref_div(ref(a), ref(b)))
        assert (z / w) * w == z

    @given(PAIRS, PAIRS)
    def test_equality_and_hash(self, a, b):
        z, w = QQi(*a), QQi(*b)
        assert (z == w) == (ref(a) == ref(b))
        if z == w:
            assert hash(z) == hash(w)
        if ref(a)[1] == 0:
            assert z == a[0] and z == Fraction(a[0])
        assert bool(z) == (ref(a) != (0, 0))


class TestComponents:
    def test_integral_fraction_becomes_int(self):
        z = QQi(Fraction(4, 2))
        assert z.re == 2 and type(z.re) is int
        assert type(z.im) is int
        assert type((QQi(Fraction(1, 2)) * 2).re) is int
        assert type((QQi(Fraction(3, 2)) + Fraction(1, 2)).re) is int

    def test_json_text_unchanged(self):
        assert scalar_to_json(QQi(Fraction(4, 2), Fraction(-3, 6))) == {"re": "2", "im": "-1/2"}
        assert scalar_to_json(QQi(0, 7)) == {"re": "0", "im": "7"}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            QQi(1).re = 2

    def test_floats_rejected(self):
        with pytest.raises(ExactnessError):
            coerce_scalar(0.5, EXACT)
        with pytest.raises(ExactnessError):
            QQi(1) + 0.5
