import fractions
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from chiral.chart import ChartFn, I, metric_data, monomial_image


def _view(f):
    """(u-degree, v-degree) -> (real part, imaginary part) of a ChartFn,
    read off its stored numerators and denominator."""
    out = {}
    for (du, dv, w), c in f._nums.items():
        re, im = out.get((du, dv), (Fraction(0), Fraction(0)))
        c = Fraction(c, f._den)
        out[(du, dv)] = (re, c) if w else (c, im)
    return out


def _assert_normal_form(f):
    """f is stored as nonzero int numerators over a positive int
    denominator in lowest terms; for the zero function gcd(den) == 1
    leaves {} over 1."""
    assert type(f._den) is int and f._den > 0
    assert all(type(c) is int and c for c in f._nums.values())
    assert gcd(f._den, *f._nums.values()) == 1
    for (du, dv, w) in f._nums:
        assert du >= 0 and w in (0, 1)


def test_normal_form_and_equality():
    f = ChartFn({(0, 0): 1, (1, -2): Fraction(1, 2)})
    g = ChartFn({(1, -2): Fraction(1, 2), (0, 0): Fraction(1)})
    assert f == g
    assert hash(f) == hash(g)
    assert ChartFn({(0, 0): 0}) == ChartFn()
    assert not ChartFn()
    assert _view(ChartFn.const(3)) == {(0, 0): (3, 0)}
    assert _view(I) == {(0, 0): (0, 1)}
    assert (repr(I), repr(-I)) == ("(i)", "(-i)")
    assert repr(ChartFn.const(Fraction(2, 3)) + I.scale(Fraction(1, 2))) == "(2/3+1i/2)"


def test_rejects_negative_u_power():
    with pytest.raises(ValueError):
        ChartFn({(-1, 0): 1})


def test_rejects_a_non_int_degree():
    # a float degree would print as an int power and reach the derivatives
    for terms in ({(0, 1.5): 1}, {(2.0, 0): 1}, {(0, Fraction(1)): 1},
                  {(-1.0, 0): 1}):
        with pytest.raises(TypeError, match="degrees are int, not"):
            ChartFn(terms)
    with pytest.raises(TypeError, match="u-degrees are int, not float"):
        ChartFn({(2.0, 0): 1})
    with pytest.raises(TypeError, match="v-degrees are int, not float"):
        ChartFn.v_pow(-1.0)


def test_ring_operations():
    u = ChartFn({(1, 0): 1})
    v = ChartFn.v_pow(1)
    vinv = ChartFn.v_pow(-1)
    assert v * vinv == ChartFn.const(1)
    assert (u + v) * (u - v) == u * u - v * v
    assert 2 * v == v + v
    assert (u + v) - u == v


def test_derivatives():
    # d/dgamma = d/du + d/dv, d/dgammabar = -d/dv on u^a v^b
    f = ChartFn({(2, 0): 1})
    assert f.d_gamma() == ChartFn({(1, 0): 2})
    assert f.d_gammabar() == ChartFn()
    g = ChartFn.v_pow(3)
    assert g.d_gamma() == ChartFn.v_pow(2, 3)
    assert g.d_gammabar() == ChartFn.v_pow(2, -3)
    h = ChartFn.v_pow(-2)
    assert h.d_gammabar() == ChartFn.v_pow(-3, 2)
    mixed = ChartFn({(1, 1): 1})
    assert mixed.d_gamma() == ChartFn({(0, 1): 1, (1, 0): 1})


def test_leibniz_rule():
    f = ChartFn({(2, -1): Fraction(1, 3)}) + ChartFn.v_pow(2) * I
    g = ChartFn({(1, 1): 1}) + ChartFn.v_pow(-2, -2) * I
    fg = f * g
    assert fg.d_gamma() == f.d_gamma() * g + f * g.d_gamma()
    assert fg.d_gammabar() == f.d_gammabar() * g + f * g.d_gammabar()


def test_metric_data_constants():
    md = metric_data()
    assert md.h == ChartFn.v_pow(-2, -2) * I
    assert md.h * md.h_inv == ChartFn.const(1)
    assert md.theta_coeff == ChartFn.v_pow(-1, -2)
    assert md.b0_theta == I
    # the connection coefficient is Hinv times the gamma-derivative of H
    assert md.h_inv * md.h.d_gamma() == md.theta_coeff
    # and the curvature constant is Hinv d_gamma of the theta coefficient
    assert (md.h_inv * md.theta_coeff.d_gamma()) == I
    assert (repr(md.h), repr(md.h_inv)) == ("(-2i)*v^-2", "(1i/2)*v^2")


def test_scale_by_scalar_and_fraction():
    f = ChartFn.v_pow(2)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert f * I * I == f.scale(-1)
    assert I * I * I * I == ChartFn.const(1)


def test_rejects_foreign_coefficients_and_operands():
    # coefficients are rational: a Gaussian one is a product with I
    for bad in ("1/2", 0.5, 1j, None, [1], I):
        with pytest.raises(TypeError):
            ChartFn({(0, 0): bad})
        with pytest.raises(TypeError):
            ChartFn.const(1).scale(bad)
    one = ChartFn.const(1)
    for bad in (1, Fraction(1, 2), None, "1"):
        with pytest.raises(TypeError):
            one + bad
        with pytest.raises(TypeError):
            one - bad
        with pytest.raises(TypeError):
            bad + one
    assert one != 1 and one != Fraction(1)


def test_scalar_times_chartfn_from_either_side():
    # int and Fraction decline a ChartFn, so ChartFn.__rmul__ runs
    f = (ChartFn({(0, 0): 1, (1, -2): Fraction(1, 2), (2, 1): 3})
         + ChartFn({(2, 1): -1}) * I)
    assert I * f == f * I
    assert 2 * f == f * 2
    assert Fraction(-1, 3) * f == f * Fraction(-1, 3)


# The reference below is a dense Gaussian algorithm independent of the
# module's split storage: a dict (u-degree, v-degree) -> (re, im), a
# pair of Fractions, added and multiplied pairwise and printed by the
# rules the module's repr follows.

def _ref(terms):
    """terms (key -> (re, im)) with zero pairs dropped and parts as Fraction."""
    return {key: (Fraction(re), Fraction(im))
            for key, (re, im) in terms.items() if re or im}


def _pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_add(f, g):
    out = dict(f)
    for key, (re, im) in g.items():
        re0, im0 = out.get(key, (0, 0))
        out[key] = (re0 + re, im0 + im)
    return _ref(out)


def _ref_neg(f):
    return {key: (-re, -im) for key, (re, im) in f.items()}


def _ref_mul(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            re, im = _pair_mul(c1, c2)
            re0, im0 = out.get((a1 + a2, b1 + b2), (0, 0))
            out[(a1 + a2, b1 + b2)] = (re0 + re, im0 + im)
    return _ref(out)


def _ref_scale(f, c):
    return _ref({key: _pair_mul(c, v) for key, v in f.items()})


def _ref_du(f):
    return {(du - 1, dv): (re * du, im * du)
            for (du, dv), (re, im) in f.items() if du}


def _ref_dv(f):
    return {(du, dv - 1): (re * dv, im * dv)
            for (du, dv), (re, im) in f.items() if dv}


def _ref_imag(b):
    """b*i as i, -i, 3i or -1i/2."""
    sign, b = ("-" if b < 0 else ""), abs(b)
    if b == 1:
        return sign + "i"
    if b.denominator == 1:
        return "%s%di" % (sign, b.numerator)
    return "%s%di/%d" % (sign, b.numerator, b.denominator)


def _ref_number(re, im):
    if not im:
        return str(re)
    if not re:
        return _ref_imag(im)
    return str(re) + ("+" if im > 0 else "") + _ref_imag(im)


def _ref_repr(f):
    if not f:
        return "0"
    parts = []
    for (du, dv) in sorted(f):
        piece = "(%s)" % _ref_number(*f[(du, dv)])
        if du:
            piece += "*u^%d" % du if du > 1 else "*u"
        if dv:
            piece += "*v^%d" % dv if dv != 1 else "*v"
        parts.append(piece)
    return " + ".join(parts)


def _chart(terms):
    """The ChartFn of a reference dict, built from its real and
    imaginary parts as ChartFn(re) + ChartFn(im) * I."""
    return (ChartFn({key: re for key, (re, im) in terms.items()})
            + ChartFn({key: im for key, (re, im) in terms.items()}) * I)


_PARTS = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
          Fraction(-5, 4))


def _random_coeff(rng):
    re, im = rng.choice(_PARTS), rng.choice(_PARTS)
    kind = rng.randrange(4)
    if kind == 1:
        return re, 0
    if kind == 2:
        return 0, im
    return re, im


def _random_terms(rng):
    return {(rng.randrange(3), rng.randrange(-3, 3)): _random_coeff(rng)
            for _ in range(rng.randrange(6))}


def _check(got, want):
    """got (a ChartFn) matches the reference dict want in value, view,
    bytes and hash, and keeps the storage normal form."""
    assert _view(got) == want
    assert repr(got) == _ref_repr(want)
    rebuilt = _chart(want)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert bool(got) == bool(want)
    _assert_normal_form(got)


def test_matches_scalar_reference():
    rng = random.Random(20240)
    rationals = (0, 3, -1, Fraction(-2, 3), Fraction(1, 2))
    gaussians = ((0, 1), (0, Fraction(-3, 2)), (1, -1), (Fraction(2, 3), 2))
    dropped = {"add": 0, "mul": 0, "one part": 0}
    for _ in range(300):
        ft = _random_terms(rng)
        gt = _random_terms(rng)
        keys = list(ft)
        if rng.randrange(2):
            # opposite real or imaginary parts on shared keys cancel in sums
            for key in keys:
                re, im = ft[key]
                gt[key] = rng.choice(((-re, -im),
                                      (-re, _random_coeff(rng)[1]),
                                      (_random_coeff(rng)[0], -im)))
        elif len(keys) >= 2:
            # (a x^p + b x^q)(b x^q - a x^p) has no x^(p+q) term
            p, q = rng.sample(keys, 2)
            gt.update({p: (-ft[p][0], -ft[p][1]), q: ft[q]})
        rf, rg = _ref(ft), _ref(gt)
        f, g = _chart(ft), _chart(gt)
        _check(f, rf)
        _check(g, rg)
        total = _ref_add(rf, rg)
        _check(f + g, total)
        _check(f - g, _ref_add(rf, _ref_neg(rg)))
        _check(-f, _ref_neg(rf))
        prod = _ref_mul(rf, rg)
        _check(f * g, prod)
        for c in rationals:
            _check(f.scale(c), _ref_scale(rf, (c, 0)))
        for c in gaussians:
            _check(f * _chart({(0, 0): c}), _ref_scale(rf, c))
        _check(f * Fraction(3, 2), _ref_scale(rf, (Fraction(3, 2), 0)))
        _check(f * I, _ref_scale(rf, (0, 1)))
        _check(3 * f, _ref_scale(rf, (3, 0)))
        _check(f.d_gamma(), _ref_add(_ref_du(rf), _ref_dv(rf)))
        _check(f.d_gammabar(), _ref_neg(_ref_dv(rf)))
        assert (f == g) == (rf == rg)
        assert f + g == g + f and hash(f + g) == hash(g + f)
        # count the cancellations the sweep went through
        dropped["add"] += len(set(rf) | set(rg)) > len(total)
        dropped["mul"] += len({(a1 + a2, b1 + b2) for a1, b1 in rf
                               for a2, b2 in rg}) > len(prod)
        dropped["one part"] += any(
            not (re and im)
            for key, (re, im) in total.items()
            if key in rf and key in rg and all(rf[key]))
    assert all(n >= 10 for n in dropped.values()), dropped


def test_equal_values_of_different_types():
    forms = (2, Fraction(2), Fraction(4, 2))
    fns = [ChartFn({(1, -1): c}) for c in forms]
    assert all(f == fns[0] and hash(f) == hash(fns[0]) for f in fns)
    half = ChartFn.v_pow(-2, Fraction(1, 2))
    assert half + half == ChartFn.v_pow(-2) and repr(half + half) == "(1)*v^-2"
    mixed = ChartFn.const(1) + I
    assert mixed * mixed == I.scale(2) and I.scale(2) == 2 * I
    assert _view(mixed * (ChartFn.const(1) - I)) == {(0, 0): (2, 0)}
    assert hash(I + I) == hash(I * 2)


def _random_gaussian_terms(rng):
    """A random reference dict with assorted denominators."""
    def part():
        return Fraction(rng.randint(-30, 30),
                        rng.choice((1, 1, 2, 3, 4, 6, 9, 10, 12)))
    return {(rng.randrange(4), rng.randrange(-3, 4)): (part(), part())
            for _ in range(rng.randrange(5))}


def _random_gaussian_fn(rng):
    """A random Gaussian-rational function with assorted denominators."""
    return _chart(_random_gaussian_terms(rng))


def test_normal_form_holds_on_every_route():
    rng = random.Random(17)
    zero = ChartFn()
    assert (zero._nums, zero._den) == ({}, 1)
    scalars = (0, 1, -2, 6, Fraction(1, 3), Fraction(-3, 4), Fraction(10, 9))
    for _ in range(300):
        rf = _random_gaussian_terms(rng)
        f = _chart(rf)
        g, h = _random_gaussian_fn(rng), _random_gaussian_fn(rng)
        results = [f + g, f - g, f - f, f * g, f * zero, -f,
                   f.d_gamma(), f.d_gammabar()]
        results += [f.scale(c) for c in scalars]
        for r in results:
            _assert_normal_form(r)
        # the same value reached by different routes is the same data
        for x, y in (((f + g) - g, f), ((f * g) * h, f * (g * h)),
                     (f.scale(Fraction(1, 3)).scale(3), f),
                     (f * (g + h), f * g + f * h),
                     (f.d_gamma(), _chart(_ref_add(_ref_du(rf), _ref_dv(rf)))),
                     (f.d_gammabar(), _chart(_ref_neg(_ref_dv(rf))))):
            assert x == y and hash(x) == hash(y)
            assert (x._nums, x._den) == (y._nums, y._den)


def test_arithmetic_runs_without_fractions():
    # with no Fraction taken in, no code of the fractions module runs:
    # sums, products and derivatives stay on int numerators
    rng = random.Random(5)
    pairs = [(_random_gaussian_fn(rng), _random_gaussian_fn(rng))
             for _ in range(50)]
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for f, g in pairs:
            f + g, f - g, f * g, 3 * f, f.scale(-2), -f
            f.d_gamma(), f.d_gammabar()
            f == g, hash(f), bool(f)
    finally:
        sys.setprofile(None)
    assert entered == []


def test_stored_form_round_trips_and_rejects_bad_input():
    rng = random.Random(7)
    for _ in range(50):
        f = _random_gaussian_fn(rng)
        nums, den = f.as_ints()
        assert ChartFn.from_ints(nums, den) == f
        # a common factor is divided out, and a zero numerator dropped
        scaled = {k: 6 * c for k, c in nums.items()}
        assert ChartFn.from_ints({**scaled, (9, 9, 0): 0}, 6 * den) == f
        nums.clear()  # as_ints hands out a copy
        _assert_normal_form(f)
        assert f.as_ints()[1] == den
    one = {(0, 0, 0): 1}
    for nums, den, error in ((one, 0, ValueError), (one, 1.0, TypeError),
                             (one, True, TypeError),
                             ({(-1, 0, 0): 1}, 1, ValueError),
                             ({(0, 0, 2): 1}, 1, ValueError),
                             ({(0, 0.0, 0): 1}, 1, TypeError),
                             ({(0, 0, True): 1}, 1, TypeError),
                             ({(0, 0, 0): Fraction(1, 2)}, 1, TypeError)):
        with pytest.raises(error):
            ChartFn.from_ints(nums, den)


def test_monomial_image_matches_chart_arithmetic():
    # factor * d(u^a v^b i^w) for one key, against the same product and
    # derivative taken on ChartFns
    rng = random.Random(11)
    for _ in range(100):
        factor = _random_gaussian_fn(rng)
        key = (rng.randrange(3), rng.randrange(-3, 4), rng.randrange(2))
        mono = ChartFn.from_ints({key: 1})
        for d in (None, ChartFn.d_gamma, ChartFn.d_gammabar):
            g = mono if d is None else d(mono)
            for fac in (None, factor):
                terms, den = monomial_image(key, fac, d)
                assert all(type(c) is int and c for c in terms.values())
                expected = g if fac is None else fac * g
                assert ChartFn.from_ints(terms, den) == expected
    with pytest.raises(ValueError):
        monomial_image((0, 1, 0), None, ChartFn.scale)
