"""Exact Gaussian-rational arithmetic (rationals adjoined i)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class GQ:
    """Gaussian rational (a + b*i)/d held as three Python ints, with d > 0
    and gcd(a, b, d) = 1: the form is unique, so equal values have equal
    triples.  A real GQ equals, and hashes like, the int or Fraction of
    its value."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # the least common denominator leaves gcd(a, b, d) = 1
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __add__(self, other):
        other = _as_gq(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_as_gq(other)

    def __rsub__(self, other):
        return _as_gq(other) - self

    def __mul__(self, other):
        other = _as_gq(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if b1 or b2:
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                            self._d * other._d)
        return _reduced(a1 * a2, 0, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a1 + b1 i)/d1 * d2/(a2 + b2 i) = (a1 + b1 i)(a2 - b2 i) d2 /
        # (d1 (a2^2 + b2^2))
        other = _as_gq(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a1 * a2 + b1 * b2) * other._d,
                        (b1 * a2 - a1 * b2) * other._d, self._d * norm)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, GQ):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def _make(a, b, d):
    """The GQ of a triple already in lowest terms, with d > 0."""
    z = object.__new__(GQ)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a, b, d):
    """The GQ (a + b*i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _as_gq(x):
    if isinstance(x, GQ):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x)!r} to GQ")


ONE = GQ(1)
I = GQ(0, 1)
