"""Gaussian rational scalars: a + b*i with a, b exact rationals.

No floating point anywhere.  Fraction keeps lowest terms with a positive
denominator, so equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction


class Scalar:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(x)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values hash like their Fraction so x == y implies equal hashes
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        if not other.im:
            return Scalar(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sign, _imag_str(abs(self.im)))


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    if b.denominator == 1:
        return "%si" % b.numerator
    return "%si/%s" % (b.numerator, b.denominator)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
