"""Exact Gaussian-rational arithmetic (rationals adjoined i)."""

from __future__ import annotations

from fractions import Fraction


class GQ:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_gq(other)
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gq(other)
        return GQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gq(other) - self

    def __mul__(self, other):
        other = _as_gq(other)
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gq(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __eq__(self, other):
        other = _as_gq(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conj(self):
        return GQ(self.re, -self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def _as_gq(x):
    if isinstance(x, GQ):
        return x
    if isinstance(x, (int, Fraction)):
        return GQ(x)
    raise TypeError(f"cannot coerce {type(x)!r} to GQ")


ONE = GQ(1)
I = GQ(0, 1)
