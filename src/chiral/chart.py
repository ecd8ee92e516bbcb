"""Coefficient ring for upper half-plane computations.

Functions are Laurent polynomials in v = gamma - conj(gamma) with
polynomial coefficients in u = gamma, over Gaussian rationals.  In these
variables the holomorphic and antiholomorphic derivatives are

    d/dgamma = d/du + d/dv        d/dconj(gamma) = -d/dv

and the hyperbolic metric data is exact: H = -2i v^-2, H^-1 = (i/2) v^2,
the connection form theta = -2 v^-1 dconj(gamma).

A Gaussian coefficient a + bi is stored as its two rational parts, each
under its own key with the power of i (0 or 1) as the last entry, and
integral parts are kept as int.  So the arithmetic runs on int and
Fraction alone; Scalar appears only where coefficients enter or are
read back (the constructor, scale, `terms` and repr).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalar import Scalar, ZERO


def _rational(x):
    """x (an int or Fraction) as an int when it is integral."""
    if type(x) is int:
        return x
    return int(x.numerator) if x.denominator == 1 else x


def _parts(c):
    """(real part, imaginary part) of an int, Fraction or Scalar."""
    if isinstance(c, Scalar):
        return _rational(c.re), _rational(c.im)
    if isinstance(c, (int, Fraction)):
        return _rational(c), 0
    raise TypeError("chart coefficients are int, Fraction or Scalar, not %s"
                    % type(c).__name__)


def _wrap(coeffs) -> "ChartFn":
    f = ChartFn.__new__(ChartFn)
    f._coeffs = coeffs
    return f


class ChartFn:
    """A finite sum of c * u^a * v^b with a >= 0, b any integer and c a
    Gaussian rational.

    Stored as a dict (a, b, w) -> nonzero int or Fraction, where w in
    {0, 1} is the power of i: c = re + im*i occupies (a, b, 0) -> re and
    (a, b, 1) -> im, each only when nonzero.  `terms` is a read-only view
    (a, b) -> Scalar built on demand."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for (du, dv), c in terms.items():
                if du < 0:
                    raise ValueError("negative u-degree")
                re, im = _parts(c)
                if re:
                    coeffs[(du, dv, 0)] = re
                if im:
                    coeffs[(du, dv, 1)] = im
        self._coeffs = coeffs

    @staticmethod
    def const(c) -> "ChartFn":
        return ChartFn({(0, 0): c})

    @staticmethod
    def u_pow(n, coeff=1) -> "ChartFn":
        return ChartFn({(n, 0): coeff})

    @staticmethod
    def v_pow(n, coeff=1) -> "ChartFn":
        return ChartFn({(0, n): coeff})

    @property
    def terms(self):
        """(u-degree, v-degree) -> Scalar; a fresh dict on every read."""
        parts = {}
        for (du, dv, w), c in self._coeffs.items():
            parts.setdefault((du, dv), [0, 0])[w] = c
        return {key: Scalar(re, im) for key, (re, im) in parts.items()}

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # stored values are in normal form, so f == g means equal items
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        out = dict(self._coeffs)
        get = out.get
        for key, c in other._coeffs.items():
            v = _rational(get(key, 0) + c)
            if v:
                out[key] = v
            else:
                del out[key]
        return _wrap(out)

    def __neg__(self):
        return _wrap({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ChartFn):
            return self.scale(other)
        out = {}
        get = out.get
        right = other._coeffs.items()
        for (a1, b1, w1), c1 in self._coeffs.items():
            for (a2, b2, w2), c2 in right:
                p = c1 * c2
                w = w1 + w2
                if w == 2:  # i * i = -1
                    p, w = -p, 0
                key = (a1 + a2, b1 + b2, w)
                v = _rational(get(key, 0) + p)
                if v:
                    out[key] = v
                else:
                    del out[key]
        return _wrap(out)

    def scale(self, c) -> "ChartFn":
        re, im = _parts(c)
        items = self._coeffs.items()
        if not im:
            return _wrap({k: _rational(re * v) for k, v in items} if re else {})
        # times im*i: w = 0 moves to w = 1, and w = 1 to w = 0 with i*i = -1
        turned = {(du, dv, 1 - w): _rational(-im * v if w else im * v)
                  for (du, dv, w), v in items}
        if not re:
            return _wrap(turned)
        return _wrap({k: _rational(re * v) for k, v in items}) + _wrap(turned)

    __rmul__ = scale

    def d_u(self) -> "ChartFn":
        return _wrap({(du - 1, dv, w): _rational(c * du)
                      for (du, dv, w), c in self._coeffs.items() if du})

    def d_v(self) -> "ChartFn":
        return _wrap({(du, dv - 1, w): _rational(c * dv)
                      for (du, dv, w), c in self._coeffs.items() if dv})

    def d_gamma(self) -> "ChartFn":
        return self.d_u() + self.d_v()

    def d_gammabar(self) -> "ChartFn":
        return -self.d_v()

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for (du, dv) in sorted(terms):
            piece = "(%r)" % terms[(du, dv)]
            if du:
                piece += "*u^%d" % du if du > 1 else "*u"
            if dv:
                piece += "*v^%d" % dv if dv != 1 else "*v"
            parts.append(piece)
        return " + ".join(parts)


@dataclass(frozen=True)
class MetricData:
    h: ChartFn            # hermitian metric i / (2 y^2) = -2i v^-2
    h_inv: ChartFn        # (i/2) v^2
    theta_coeff: ChartFn  # dconj(gamma)-coefficient of the connection form
    b0_theta: Scalar      # H^-1 d_gamma(theta_coeff)


def metric_data() -> MetricData:
    h = ChartFn.v_pow(-2, Scalar(0, -2))
    h_inv = ChartFn.v_pow(2, Scalar(0, Fraction(1, 2)))
    theta_coeff = ChartFn.v_pow(-1, -2)
    prod = h_inv * theta_coeff.d_gamma()
    b0 = prod.terms.get((0, 0), ZERO)
    return MetricData(h=h, h_inv=h_inv, theta_coeff=theta_coeff, b0_theta=b0)
