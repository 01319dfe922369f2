"""Scalar coefficients in the two arithmetic modes.

Exact mode uses Gaussian rationals: a pair of exact rational components
(real, imaginary), each a plain ``int`` when it is integral and a
``fractions.Fraction`` otherwise.  All ring operations are closed, so no
rounding can ever occur on the exact path, and the integer case runs on
machine-speed Python ints.  Float mode uses the ordinary Python ``complex``.

A polynomial or group element is uniformly in one mode; helper functions
here parse, coerce and serialize scalars for both.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactnessError

EXACT = "exact"
FLOAT = "float"


def _rational(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return int(x.numerator) if x.denominator == 1 else x


class QQi:
    """Gaussian rational a + b*i with exact rational components.

    ``re`` and ``im`` are ints when integral and Fractions otherwise (a
    Fraction never has denominator 1), so both always offer ``numerator``
    and ``denominator`` and hash like the equal Fraction.  Immutable and
    hashable; supports +, -, *, /, unary -, ==, and conversion to
    ``complex``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _rational(re))
        _set_im(self, _rational(im))

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        if type(other) is not QQi:
            other = _as_qqi(other)
        return _qqi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QQi:
            other = _as_qqi(other)
        return _qqi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_qqi(other) - self

    def __mul__(self, other):
        if type(other) is not QQi:
            other = _as_qqi(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            return _qqi(a * c, b * c)
        if not b:
            return _qqi(a * c, a * d)
        return _qqi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QQi:
            other = _as_qqi(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        if not den:
            raise ZeroDivisionError("division by zero QQi")
        if not d:
            return _qqi(Fraction(a, c), Fraction(b, c))
        return _qqi(Fraction(a * c + b * d, den), Fraction(b * c - a * d, den))

    def __neg__(self):
        return _qqi(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (QQi, int, Fraction)):
            other = _as_qqi(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QQi({self.re!s}, {self.im!s})"

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


_new = object.__new__
_set_re = QQi.re.__set__
_set_im = QQi.im.__set__


def _qqi(re, im) -> QQi:
    """A QQi from exact rational components, without coercion checks.

    The one constructor of arithmetic results: a Fraction component with
    denominator 1 becomes its int numerator, so integral values stay ints.
    """
    if type(re) is not int and re.denominator == 1:
        re = re.numerator
    if type(im) is not int and im.denominator == 1:
        im = im.numerator
    z = _new(QQi)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _as_qqi(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x, 0)
    raise ExactnessError(f"cannot coerce {type(x).__name__} to exact scalar")


def coerce_scalar(x, mode: str):
    """Coerce x into the coefficient type of the given mode.

    Exact mode accepts QQi, int and Fraction; floats and complex values are
    rejected rather than approximated.  Float mode accepts anything complex()
    accepts, including QQi.
    """
    if mode == EXACT:
        return _as_qqi(x)
    if mode == FLOAT:
        if isinstance(x, QQi):
            return x.to_complex()
        return complex(x)
    raise ValueError(f"unknown mode {mode!r}")


def scalar_is_zero(x) -> bool:
    if isinstance(x, QQi):
        return not x
    return x == 0


def scalar_to_complex(x) -> complex:
    return x.to_complex() if isinstance(x, QQi) else complex(x)


def parse_fraction(s) -> Fraction:
    """Parse "p/q" (or a plain integer string/int) into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ExactnessError(f"exact component must be int or 'p/q' string, got {s!r}")


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
