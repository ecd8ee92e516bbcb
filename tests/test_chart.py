import random
from fractions import Fraction

import pytest

from chiral.chart import ChartFn, metric_data
from chiral.scalar import I, Scalar, ZERO


def test_normal_form_and_equality():
    f = ChartFn({(0, 0): 1, (1, -2): Fraction(1, 2)})
    g = ChartFn({(1, -2): Fraction(1, 2), (0, 0): Scalar(1)})
    assert f == g
    assert hash(f) == hash(g)
    assert ChartFn({(0, 0): 0}) == ChartFn()
    assert not ChartFn()
    assert ChartFn.const(3).terms == {(0, 0): Scalar(3)}


def test_rejects_negative_u_power():
    with pytest.raises(ValueError):
        ChartFn({(-1, 0): 1})


def test_ring_operations():
    u = ChartFn.u_pow(1)
    v = ChartFn.v_pow(1)
    vinv = ChartFn.v_pow(-1)
    assert v * vinv == ChartFn.const(1)
    assert (u + v) * (u - v) == u * u - v * v
    assert 2 * v == v + v
    assert (u + v) - u == v


def test_derivatives():
    # d/dgamma = d_u + d_v, d/dgammabar = -d_v on u^a v^b
    f = ChartFn.u_pow(2)
    assert f.d_gamma() == ChartFn.u_pow(1, 2)
    assert f.d_gammabar() == ChartFn()
    g = ChartFn.v_pow(3)
    assert g.d_gamma() == ChartFn.v_pow(2, 3)
    assert g.d_gammabar() == ChartFn.v_pow(2, -3)
    h = ChartFn.v_pow(-2)
    assert h.d_gammabar() == ChartFn.v_pow(-3, 2)
    mixed = ChartFn({(1, 1): 1})
    assert mixed.d_gamma() == ChartFn({(0, 1): 1, (1, 0): 1})


def test_leibniz_rule():
    f = ChartFn({(2, -1): Fraction(1, 3), (0, 2): I})
    g = ChartFn({(1, 1): 1, (0, -2): Scalar(0, -2)})
    fg = f * g
    assert fg.d_gamma() == f.d_gamma() * g + f * g.d_gamma()
    assert fg.d_gammabar() == f.d_gammabar() * g + f * g.d_gammabar()


def test_metric_data_constants():
    md = metric_data()
    assert md.h == ChartFn.v_pow(-2, Scalar(0, -2))
    assert md.h * md.h_inv == ChartFn.const(1)
    assert md.theta_coeff == ChartFn.v_pow(-1, -2)
    assert md.b0_theta == I
    # the connection coefficient is Hinv times the gamma-derivative of H
    assert md.h_inv * md.h.d_gamma() == md.theta_coeff
    # and the curvature constant is Hinv d_gamma of the theta coefficient
    assert (md.h_inv * md.theta_coeff.d_gamma()) == ChartFn.const(I)


def test_scale_by_scalar_and_fraction():
    f = ChartFn.v_pow(2)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert f.scale(I).scale(I) == f.scale(-1)


def test_rejects_foreign_coefficients_and_operands():
    for bad in ("1/2", 0.5, None, [1]):
        with pytest.raises(TypeError):
            ChartFn({(0, 0): bad})
        with pytest.raises(TypeError):
            ChartFn.const(1).scale(bad)
    one = ChartFn.const(1)
    for bad in (1, Fraction(1, 2), Scalar(1), "1"):
        with pytest.raises(TypeError):
            one + bad
        with pytest.raises(TypeError):
            one - bad
        with pytest.raises(TypeError):
            bad + one
    assert one != 1 and one != Scalar(1)


def test_scalar_times_chartfn_from_either_side():
    # Scalar.__mul__ declines a ChartFn, so ChartFn.__rmul__ runs
    f = ChartFn({(0, 0): 1, (1, -2): Fraction(1, 2), (2, 1): Scalar(3, -1)})
    assert I * f == f * I
    assert Scalar(2, 1) * f == f * Scalar(2, 1)


# The reference below is the dense Gaussian algorithm this module used
# before its coefficients were split by the power of i: a dict
# (u-degree, v-degree) -> Scalar, added and multiplied with Scalar
# arithmetic and printed by the same rules.

def _ref(terms):
    out = {}
    for key, c in terms.items():
        c = Scalar.coerce(c)
        if c:
            out[key] = c
    return out


def _ref_add(f, g):
    out = dict(f)
    for key, c in g.items():
        v = out.get(key, ZERO) + c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def _ref_neg(f):
    return {key: -c for key, c in f.items()}


def _ref_mul(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            v = out.get(key, ZERO) + c1 * c2
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _ref_scale(f, c):
    c = Scalar.coerce(c)
    return {key: c * v for key, v in f.items()} if c else {}


def _ref_du(f):
    return {(du - 1, dv): c * du for (du, dv), c in f.items() if du}


def _ref_dv(f):
    return {(du, dv - 1): c * dv for (du, dv), c in f.items() if dv}


def _ref_repr(f):
    if not f:
        return "0"
    parts = []
    for (du, dv) in sorted(f):
        piece = "(%r)" % f[(du, dv)]
        if du:
            piece += "*u^%d" % du if du > 1 else "*u"
        if dv:
            piece += "*v^%d" % dv if dv != 1 else "*v"
        parts.append(piece)
    return " + ".join(parts)


_PARTS = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
          Fraction(-5, 4))


def _random_coeff(rng):
    re, im = rng.choice(_PARTS), rng.choice(_PARTS)
    kind = rng.randrange(4)
    if kind == 0 and not im:
        return re  # int or Fraction
    if kind == 1:
        return Scalar(re, 0)
    if kind == 2:
        return Scalar(0, im)
    return Scalar(re, im)


def _random_terms(rng):
    return {(rng.randrange(3), rng.randrange(-3, 3)): _random_coeff(rng)
            for _ in range(rng.randrange(6))}


def _check(got, want):
    """got (a ChartFn) matches the reference dict want in value, view,
    bytes and hash, and keeps the storage normal form."""
    assert got.terms == want
    assert repr(got) == _ref_repr(want)
    rebuilt = ChartFn(want)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert bool(got) == bool(want)
    for (du, dv, w), c in got._coeffs.items():
        assert du >= 0 and w in (0, 1) and c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_matches_scalar_reference():
    rng = random.Random(20240)
    scalars = (0, 3, -1, Fraction(-2, 3), Scalar(Fraction(1, 2)), I,
               Scalar(0, Fraction(-3, 2)), Scalar(1, -1), Scalar(Fraction(2, 3), 2))
    dropped = {"add": 0, "mul": 0, "one part": 0}
    for _ in range(300):
        ft = _random_terms(rng)
        gt = _random_terms(rng)
        keys = list(ft)
        if rng.randrange(2):
            # opposite real or imaginary parts on shared keys cancel in sums
            for key in keys:
                c = Scalar.coerce(ft[key])
                re, im = _random_coeff(rng), _random_coeff(rng)
                gt[key] = rng.choice((-c, Scalar(-c.re, Scalar.coerce(im).im),
                                      Scalar(Scalar.coerce(re).re, -c.im)))
        elif len(keys) >= 2:
            # (a x^p + b x^q)(b x^q - a x^p) has no x^(p+q) term
            p, q = rng.sample(keys, 2)
            gt.update({p: -Scalar.coerce(ft[p]), q: ft[q]})
        f, g = ChartFn(ft), ChartFn(gt)
        rf, rg = _ref(ft), _ref(gt)
        _check(f, rf)
        _check(g, rg)
        total = _ref_add(rf, rg)
        _check(f + g, total)
        _check(f - g, _ref_add(rf, _ref_neg(rg)))
        _check(-f, _ref_neg(rf))
        prod = _ref_mul(rf, rg)
        _check(f * g, prod)
        for c in scalars:
            _check(f.scale(c), _ref_scale(rf, c))
        _check(f * Fraction(3, 2), _ref_scale(rf, Fraction(3, 2)))
        _check(f * I, _ref_scale(rf, I))
        _check(3 * f, _ref_scale(rf, 3))
        _check(f.d_u(), _ref_du(rf))
        _check(f.d_v(), _ref_dv(rf))
        _check(f.d_gamma(), _ref_add(_ref_du(rf), _ref_dv(rf)))
        _check(f.d_gammabar(), _ref_neg(_ref_dv(rf)))
        assert (f == g) == (rf == rg)
        assert f + g == g + f and hash(f + g) == hash(g + f)
        # count the cancellations the sweep went through
        dropped["add"] += len(set(rf) | set(rg)) > len(total)
        dropped["mul"] += len({(a1 + a2, b1 + b2) for a1, b1 in rf
                               for a2, b2 in rg}) > len(prod)
        dropped["one part"] += any(
            (s.re and not s.im) or (s.im and not s.re)
            for key, s in total.items()
            if key in rf and key in rg and rf[key].re and rf[key].im)
    assert all(n >= 10 for n in dropped.values()), dropped


def test_equal_values_of_different_types():
    forms = (2, Fraction(2), Scalar(2), Scalar(Fraction(4, 2), 0))
    fns = [ChartFn({(1, -1): c}) for c in forms]
    assert all(f == fns[0] and hash(f) == hash(fns[0]) for f in fns)
    half = ChartFn.v_pow(-2, Fraction(1, 2))
    assert half + half == ChartFn.v_pow(-2) and repr(half + half) == "(1)*v^-2"
    mixed = ChartFn.const(Scalar(1, 1))
    assert mixed * mixed == ChartFn.const(Scalar(0, 2))
    assert (mixed * ChartFn.const(Scalar(1, -1))).terms == {(0, 0): Scalar(2)}
    assert mixed.terms is not mixed.terms
