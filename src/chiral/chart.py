"""Coefficient ring for upper half-plane computations.

Functions are Laurent polynomials in v = gamma - conj(gamma) with
polynomial coefficients in u = gamma, over Gaussian rationals.  In these
variables the holomorphic and antiholomorphic derivatives are

    d/dgamma = d/du + d/dv        d/dconj(gamma) = -d/dv

and the hyperbolic metric data is exact: H = -2i v^-2, H^-1 = (i/2) v^2,
the connection form theta = -2 v^-1 dconj(gamma).

A function is stored as integer numerators over one common
denominator: a dict (u-degree, v-degree, w) -> nonzero int, where w (0
or 1) is the power of i, so a Gaussian coefficient a + bi takes up to
two entries, and one int den > 0 with gcd(den, *numerators) == 1.  The
zero function is {} over 1.  That form is canonical, so equality and
hashing compare the stored data.

The arithmetic runs on int alone.  A sum costs one addition per term,
plus one multiplication per term when the two denominators differ (both
sides are brought to their lcm); a product costs one multiplication per
pair of terms, a derivative or scale one per term (d/dgamma one per
partial, in one pass that sums d/du and d/dv).  A result whose
denominator is above 1 is then reduced by one math.gcd over its
numerators; over denominator 1 nothing is reduced.  The constructor and
scale take int or Fraction coefficients and read a Fraction's numerator
and denominator; only repr builds Fractions.  The imaginary unit is the
constant function I, and a Gaussian function is built as a product,
e.g. ChartFn.v_pow(-2, -2) * I.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .freefield import check_int


def _ratio(c):
    """c (an int or Fraction) as a (numerator, denominator) pair of ints."""
    if type(c) is int:
        return c, 1
    if isinstance(c, (int, Fraction)):
        return int(c.numerator), int(c.denominator)
    raise TypeError("chart coefficients are int or Fraction, not %s"
                    % type(c).__name__)


def _wrap(nums, den=1) -> "ChartFn":
    """The function nums / den, already in lowest terms."""
    f = ChartFn.__new__(ChartFn)
    f._nums = nums
    f._den = den
    return f


def _reduced(nums, den) -> "ChartFn":
    """The function nums / den (nums nonzero ints, den > 0) in lowest
    terms; empty nums give den 1, since gcd(den) is den."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: c // g for k, c in nums.items()}
    return _wrap(nums, den)


class ChartFn:
    """A finite sum of c * u^a * v^b with a >= 0, b any integer and c a
    Gaussian rational.

    Stored as _nums, a dict (a, b, w) -> nonzero int, over the common
    denominator _den, in lowest terms: c = (re + im*i) / _den occupies
    (a, b, 0) -> re and (a, b, 1) -> im, each only when nonzero.  The
    constructor takes int degrees, else TypeError; it and scale take
    rational coefficients, and a product with I supplies the rest."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        parts = {}
        den = 1
        if terms:
            for (du, dv), c in terms.items():
                check_int(du, "u-degrees")
                check_int(dv, "v-degrees")
                if du < 0:
                    raise ValueError("negative u-degree")
                p, q = _ratio(c)
                if p:
                    parts[(du, dv, 0)] = p, q
                    den = lcm(den, q)
        # each prime power of the lcm divides some q fully, whose p is
        # prime to it, so the numerators below share no factor with den
        self._nums = {k: p * (den // q) for k, (p, q) in parts.items()}
        self._den = den

    @staticmethod
    def const(c) -> "ChartFn":
        return ChartFn({(0, 0): c})

    @staticmethod
    def v_pow(n, coeff=1) -> "ChartFn":
        return ChartFn({(0, n): coeff})

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # the stored form is canonical, so f == g means equal data
        return hash((self._den, frozenset(self._nums.items())))

    def __add__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        da, db = self._den, other._den
        if da == db:
            out = dict(self._nums)
            mb = 1
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            out = {k: c * ma for k, c in self._nums.items()}
            da *= ma
        get = out.get
        for key, c in other._nums.items():
            v = get(key, 0) + c * mb
            if v:
                out[key] = v
            else:
                del out[key]
        return _reduced(out, da)

    def __neg__(self):
        return _wrap({k: -c for k, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, ChartFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ChartFn):
            return self.scale(other)
        out = {}
        get = out.get
        right = other._nums.items()
        for (a1, b1, w1), c1 in self._nums.items():
            for (a2, b2, w2), c2 in right:
                p = c1 * c2
                w = w1 + w2
                if w == 2:  # i * i = -1
                    p, w = -p, 0
                key = (a1 + a2, b1 + b2, w)
                v = get(key, 0) + p
                if v:
                    out[key] = v
                else:
                    del out[key]
        return _reduced(out, self._den * other._den)

    def scale(self, c) -> "ChartFn":
        p, q = _ratio(c)
        nums, den = self._nums, self._den
        if not p or not nums:
            return _wrap({})
        # with gcd(den, nums) == 1 and gcd(p, q) == 1, cancelling den
        # against p and q against the numerators leaves lowest terms
        if den > 1:
            g = gcd(den, p)
            den //= g
            p //= g
        if q > 1:
            g = gcd(q, *nums.values())
            den *= q // g
            if g > 1:
                return _wrap({k: v // g * p for k, v in nums.items()}, den)
        return _wrap({k: v * p for k, v in nums.items()}, den)

    __rmul__ = scale

    def d_gamma(self) -> "ChartFn":
        """d/du + d/dv in one pass over the terms and one reduction."""
        out = {}
        get = out.get
        for (du, dv, w), c in self._nums.items():
            if du:
                key = (du - 1, dv, w)
                v = get(key, 0) + c * du
                if v:
                    out[key] = v
                else:
                    del out[key]
            if dv:
                key = (du, dv - 1, w)
                v = get(key, 0) + c * dv
                if v:
                    out[key] = v
                else:
                    del out[key]
        return _reduced(out, self._den)

    def d_gammabar(self) -> "ChartFn":
        """-d/dv."""
        return _reduced({(du, dv - 1, w): -c * dv
                         for (du, dv, w), c in self._nums.items() if dv},
                        self._den)

    def __repr__(self):
        if not self._nums:
            return "0"
        den = self._den
        parts = {}
        for (du, dv, w), c in self._nums.items():
            parts.setdefault((du, dv), [0, 0])[w] = (Fraction(c, den)
                                                    if den > 1 else c)
        pieces = []
        for (du, dv) in sorted(parts):
            piece = "(%s)" % _gaussian_str(*parts[(du, dv)])
            if du:
                piece += "*u^%d" % du if du > 1 else "*u"
            if dv:
                piece += "*v^%d" % dv if dv != 1 else "*v"
            pieces.append(piece)
        return " + ".join(pieces)


def _gaussian_str(re, im):
    """re + im*i as 2/3+1i/2, -i or 3."""
    if not im:
        return str(re)
    if not re:
        return _imag_str(im)
    return "%s%s%s" % (re, "+" if im > 0 else "-", _imag_str(abs(im)))


def _imag_str(b):
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    if b.denominator == 1:
        return "%si" % b.numerator
    return "%si/%s" % (b.numerator, b.denominator)


I = _wrap({(0, 0, 1): 1})  # the imaginary unit


# h:           hermitian metric i / (2 y^2) = -2i v^-2
# h_inv:       (i/2) v^2
# theta_coeff: dconj(gamma)-coefficient of the connection form
# b0_theta:    H^-1 d_gamma(theta_coeff), the constant i
MetricData = namedtuple("MetricData", "h h_inv theta_coeff b0_theta")


def metric_data() -> MetricData:
    h = ChartFn.v_pow(-2, -2) * I
    h_inv = ChartFn.v_pow(2, Fraction(1, 2)) * I
    theta_coeff = ChartFn.v_pow(-1, -2)
    return MetricData(h=h, h_inv=h_inv, theta_coeff=theta_coeff,
                      b0_theta=h_inv * theta_coeff.d_gamma())
