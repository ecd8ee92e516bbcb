"""Sections over the half-plane chart and the global-section recursion.

A section is a finite sum A (x) f + A' (x) g dconj(gamma) with A, A'
positive-sector fiber monomials and f, g chart functions.  The operators:

* dbar_prime: the antiholomorphic covariant derivative.  Per monomial,
  d/dconj(gamma) on the coefficient plus (s - l) copies of the connection
  form, since beta- and b-type modes each contribute +theta and gamma-
  and c-type modes -theta; one pass over the modes gives the count.
* dbar_star: the formal adjoint -i H^-1 iota d/dgamma, which in chart
  coordinates is (v^2/2) d/dgamma on the dconj(gamma)-coefficient.
  Both theta and -i H^-1 are read from chart.metric_data() at import.
* f1, f2: the tail of the deformed differential.  Their fiber parts are
  mode operators built from the gtilde family, and the overall factor i
  of f1 is a chart factor.  f1 drops s by one, f2 by two; both raise
  form degree, so they vanish on degree-1 input on a curve.

A section stores each form degree as {chart monomial: {fiber monomial:
int}} over one int denominator shared by both degrees, in lowest terms,
so == compares the stored data.  A chart monomial is the key (u-degree,
v-degree, power of i) of chiral.chart, so the factor i of f1 moves a key
and at most flips a sign.  The layout is exact: every coefficient is an
integer over the common denominator, an operator multiplies integers
and denominators without rounding, and each result is divided once by
the gcd of its denominator and numerators.  Every operator above is a
chart map (a product with a fixed ChartFn, after d/dgamma or
d/dconj(gamma) or neither; chart.monomial_image applies it to one chart
monomial) times a fiber map, so it runs once per chart monomial: the
chart map gives a few keys with int factors, and f1 and f2 sum the
memoised fiber image of each monomial, ints over their own denominator,
with int coefficients through freefield.sadd.  That suits the
recursion, where every entry a_{s-t} of a chain has the single chart
monomial i^t v^(2(l-s)+t).  deg0 and deg1 are {fiber monomial:
ChartFn} views, built as new dicts on each read.

A section keeps its own f1 and f2 images, so chain_residuals reuses
the images solve_recursion computed for the same chain entries;
dbar_total on a summed section, a new object, recomputes them (a sum
with the zero section is the other section itself).

The public FormSection(...) checks every fiber monomial with
freefield.check_monomial and that every coefficient is a ChartFn, and
drops the zeros.  Every section this module builds from its own values
skips that check through _section, which drops nothing: each operator
drops the zeros it makes.  Only seed_section, whose monomial and g come
from the caller, builds its section through the check.

The total differential on a curve is dbar_prime + f1 + f2, and a
dbar_prime-closed seed in a block with l - s > 0 extends to a closed
section by the exact recursion

    a_{s-t} = -(t (l-s) + t(t-1)/2)^{-1} dbar_star(f1 a_{s-t+1} + f2 a_{s-t+2}).

On the l = s block every constant section A (x) 1 is closed for
dbar_prime and f2, so it is global exactly when n1 kills A.  On
gamma_(-1)-free states, the positive sector, n1 is (1/2) Lplus(2) of
chiral.sl2, since

    2 n1 - Lplus(2) = 2 (::gtilde c: b: + ::gtilde b: c:)_(0)
                      - :gtilde gtilde:_(-1) beta_(0).

beta_(0) acts only by contracting gamma_(-1), so the last term kills
the positive sector.  The first zero mode vanishes on every state:
gtilde contracts with neither b nor c, so its modes commute with theirs
and ::gtilde x: y:_(0) = sum_p gtilde_(p) :xy:_(-p-1) for {x, y} =
{b, c}.  (Expanding both sides, the two normal orders of the bc modes
split at different places, and the terms between the splits differ by
{c_(r), b_(t)} with r + t = -p - 2, which is nonzero only at p = -1,
where the splits coincide.)  And :cb:_(n) = -:bc:_(n) for every n, by
the same count with r + t = n - 1: the terms that differ are those with
0 <= r < n, or n <= r < 0, and none of their brackets fires, since
r + t + 1 = n is zero only when that range is empty.  So the case-3
states are the sl2 invariants; case3_kernel checks the identity on each
block monomial and eliminates once (see there).

dim_global assembles the global-section dimension of a [k, l] block over
a closed curve of genus >= 2 from the invariant space, the s-block counts
and h0_canonical, the classical section count of canonical powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .basis import basis_block, enumerate_basis, mon_scount, split_by_s
from .chart import ChartFn, I, metric_data, monomial_image, ratio
from .freefield import (BETA, GAMMA, B, C, apply_mode, check_int,
                        check_monomial, mon_charge, mon_str, mon_weight, sadd,
                        sscale)
from .linalg import integer_multiple
from .modeops import ModeOperator, pair
from .sl2 import invariants, kernel_states, sl2_Lplus

_METRIC = metric_data()
_THETA = _METRIC.theta_coeff
_HALF_V2 = -(I * _METRIC.h_inv)  # -i H^-1 = v^2/2
_IMGAMMA_SQ = ChartFn.v_pow(2, Fraction(-1, 4))  # (Im gamma)^2 = -v^2/4
# the (s - l) count of dbar_prime, per mode generator
_S_MINUS_L = {BETA: 1, B: 1, GAMMA: -1, C: -1}
_CONST = (0, 0, 0)  # the chart monomial 1


def _section(deg0, deg1, den=1) -> "FormSection":
    """The section (deg0, deg1) / den, brought to lowest terms: each
    part {chart monomial: nonempty {fiber monomial: nonzero int}} built
    by this module and not shared, den an int > 0.  Empty parts leave
    den / gcd(den) = 1."""
    g = den
    if den > 1:
        for fibers in (*deg0.values(), *deg1.values()):
            g = gcd(g, *fibers.values())
            if g == 1:
                break
    if g > 1:
        den //= g
        deg0 = {k: {m: c // g for m, c in fibers.items()}
                for k, fibers in deg0.items()}
        deg1 = {k: {m: c // g for m, c in fibers.items()}
                for k, fibers in deg1.items()}
    sec = FormSection.__new__(FormSection)
    sec._parts = (deg0, deg1)
    sec._den = den
    sec._f1 = sec._f2 = None
    return sec


def _add_terms(out, terms, fibers):
    """out[k] += c fibers for each k: c of terms (ints), in place,
    dropping a fiber sum that cancels; fibers is left as it is."""
    for k, c in terms.items():
        acc = out.get(k)
        if acc is None:
            out[k] = {m: c * x for m, x in fibers.items()}
        elif not sadd(acc, fibers, c):
            del out[k]


def _add_parts(a, ma, b, mb):
    """ma a + mb b as a new part, for ints ma and mb."""
    out = {k: sscale(fibers, ma) if ma != 1 else dict(fibers)
           for k, fibers in a.items()}
    for k, fibers in b.items():
        acc = out.get(k)
        if acc is None:
            out[k] = sscale(fibers, mb) if mb != 1 else dict(fibers)
        elif not sadd(acc, fibers, mb):
            del out[k]
    return out


def _scaled(sec, p, q) -> "FormSection":
    """sec times p / q, for ints p and q > 0."""
    if not p:
        return _section({}, {})
    return _section(*({k: sscale(fibers, p) for k, fibers in part.items()}
                      for part in sec._parts), sec._den * q)


def _chart_map(part, factor=None, d=None, p=1):
    """The part sum over the chart monomials K of part of p factor d(K)
    (x) part[K] (chart.monomial_image), with factor's denominator."""
    out = {}
    den = 1
    for key, fibers in part.items():
        terms, den = monomial_image(key, factor, d)
        if p != 1:
            terms = {k: c * p for k, c in terms.items()}
        _add_terms(out, terms, fibers)
    return out, den


def _chart_fiber_map(part, factor, d, image):
    """The part sum over the chart monomials K of part of factor d(K)
    (x) F_K, F_K the sum of c image(A) over the entries c A of part[K],
    with its denominator: factor's times the lcm L of the denominators e
    of the memoised images (ints, e).  Each image entry is one int
    multiply-add at the factor L / e; when an image widens L, the sums
    so far are brought to the new L in place."""
    out = {}
    den = fden = 1
    for key, fibers in part.items():
        terms, fden = monomial_image(key, factor, d)
        if not terms:
            continue
        acc = {}
        for m, c in fibers.items():
            img, e = image(m)
            if den % e:
                r = e // gcd(den, e)
                den *= r
                for done in (acc, *out.values()):
                    for x in done:
                        done[x] *= r
            sadd(acc, img, c * (den // e))
        if acc:
            _add_terms(out, terms, acc)
    return out, den * fden


def _view(part, den):
    """One stored degree as a new {fiber monomial: ChartFn} dict."""
    by_mon = {}
    for key, fibers in part.items():
        for m, c in fibers.items():
            by_mon.setdefault(m, {})[key] = c
    return {m: ChartFn.from_ints(nums, den) for m, nums in by_mon.items()}


class FormSection:
    """A section with ChartFn coefficients: deg0 and deg1 map fiber
    monomials to chart coefficients, deg1 the dconj(gamma) component.
    A monomial that freefield.check_monomial refuses raises its
    TypeError or ValueError, a coefficient that is not a ChartFn
    TypeError, and zero coefficients are dropped; the sections the
    module builds itself skip that check (_section).

    Stored per degree as {chart monomial: {fiber monomial: int}} over
    one denominator (module docstring); deg0 and deg1 are views.  A
    section is a value: nothing changes it after construction, so it
    keeps its f1 and f2 images once they are computed, and every later
    call returns the same image object.
    """

    __slots__ = ("_parts", "_den", "_f1", "_f2")

    def __init__(self, deg0=None, deg1=None):
        given = []  # (part index, fiber monomial, numerators, den)
        den = 1
        for d, part in enumerate((deg0, deg1)):
            for m, f in (part or {}).items():
                if not isinstance(f, ChartFn):
                    raise TypeError("section coefficients are ChartFn, not %s"
                                    % type(f).__name__)
                check_monomial(m)
                nums, q = f.as_ints()
                if nums:
                    given.append((d, m, nums, q))
                    den = lcm(den, q)
        # as in ChartFn(...), the lcm of lowest-terms denominators leaves
        # the scaled numerators in lowest terms
        self._parts = parts = ({}, {})
        for d, m, nums, q in given:
            r = den // q
            part = parts[d]
            for key, c in nums.items():
                if key in part:
                    part[key][m] = c * r
                else:
                    part[key] = {m: c * r}
        self._den = den
        self._f1 = self._f2 = None

    @property
    def deg0(self):
        """The degree-0 part as a new {fiber monomial: ChartFn} dict."""
        return _view(self._parts[0], self._den)

    @property
    def deg1(self):
        """The dconj(gamma) part as a new {fiber monomial: ChartFn} dict."""
        return _view(self._parts[1], self._den)

    def __bool__(self):
        deg0, deg1 = self._parts
        return bool(deg0 or deg1)

    def __eq__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        return self._den == other._den and self._parts == other._parts

    def __add__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        da, db = self._den, other._den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _section(*(_add_parts(a, ma, b, mb)
                          for a, b in zip(self._parts, other._parts)), da * ma)

    def __neg__(self):
        return _scaled(self, -1, 1)

    def __sub__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """The section times c, an int or Fraction (chart.ratio)."""
        return _scaled(self, *ratio(c))

    def monomials(self, d):
        """The set of fiber monomials of degree d (0 or 1), read off the
        stored form without building their ChartFn coefficients."""
        return {m for fibers in self._parts[d].values() for m in fibers}

    def gradings(self):
        """The set of (weight, charge, s) over all fiber monomials."""
        mons = self.monomials(0) | self.monomials(1)
        return {(mon_weight(m), mon_charge(m), mon_scount(m)) for m in mons}

    def __repr__(self):
        bits = []
        for part, tail in ((self.deg0, ""), (self.deg1, " dcg")):
            bits += ["[%s](x)%r%s" % (mon_str(m), part[m], tail)
                     for m in sorted(part)]
        return " + ".join(bits) if bits else "0"


def dbar_prime(sec: FormSection) -> FormSection:
    """Covariant dbar.  Degree-1 input would give a (0,2)-form, which
    vanishes on a curve, so only the degree-0 part contributes.  Per
    chart monomial K the image is d/dconj(gamma)(K) + n theta K on an
    entry with s - l count n, one int per fiber monomial and key."""
    out = {}
    e = 1
    for key, fibers in sec._parts[0].items():
        bar, _ = monomial_image(key, d=ChartFn.d_gammabar)
        conn, e = monomial_image(key, _THETA)
        # c (e bar + n conn) over theta's denominator e
        counted = [(m, c, c * sum([_S_MINUS_L[gen] for gen, _ in m]))
                   for m, c in fibers.items()]
        for k in {**bar, **conn}:
            x, y = e * bar.get(k, 0), conn.get(k, 0)
            acc = out.setdefault(k, {})
            for m, c, nc in counted:
                v = acc.get(m, 0) + c * x + nc * y
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
            if not acc:
                del out[k]
    return _section({}, out, sec._den * e)


def nabla_gamma(sec: FormSection) -> FormSection:
    """Holomorphic covariant derivative; the frame is flat in this
    direction, so it is d/dgamma on coefficients."""
    return _section(*(_chart_map(part, d=ChartFn.d_gamma)[0]
                      for part in sec._parts), sec._den)


def dbar_star(sec: FormSection) -> FormSection:
    """-i H^-1 iota_{dcg} nabla_gamma: degree 1 -> degree 0."""
    return _star(sec, 1, 1)


def _star(sec, p, q) -> FormSection:
    """dbar_star(sec) times p / q, for ints p and q > 0, in one pass."""
    if sec._parts[0]:
        raise ValueError("dbar_star acts on pure degree-1 sections")
    out, e = _chart_map(sec._parts[1], _HALF_V2, ChartFn.d_gamma, p)
    return _section(out, {}, sec._den * e * q)


# fiber operators; the full f1 operator is i times _N1_RAT, with the i
# a chart factor
_N1_RAT = ModeOperator([
    (1, pair(pair("gtilde", "c"), "b"), 0),
    (Fraction(1, 2), pair(pair("gtilde", "gtilde"), "beta"), 0),
])
_GG_MINUS1 = ModeOperator([(1, pair("gtilde", "gtilde"), -1)])


def _over_ints(state):
    """A rational state as (ints, den) with state = ints / den; an int
    state is returned as it is, over 1."""
    if all(type(c) is int for c in state.values()):
        return state, 1
    return (integer_multiple(state),
            lcm(*[c.denominator for c in state.values()]))


@cache
def _n1_image(mon):
    """The n1_fiber image of one monomial as (ints, den), computed once
    and shared: callers must not change it."""
    state = {mon: 1}
    img = _N1_RAT.apply(state)
    b0 = apply_mode(BETA, 0, state)
    if b0:
        sadd(img, _GG_MINUS1.apply(b0), Fraction(-1, 2))
    return _over_ints(img)


@cache
def _gg_image(mon):
    """The f2 fiber image :gtilde gtilde:_(-1) of one monomial as
    (ints, den), computed once and shared."""
    return _over_ints(_GG_MINUS1.apply({mon: 1}))


def n1_fiber(state):
    """Rational part of the degree-raising fiber operator:
    ::gtilde c: b:_(0) + (1/2)(::gtilde gtilde: beta:_(0)
    - :gtilde gtilde:_(-1) beta_(0)).  Sums the memoised image of each
    monomial into a fresh dict, which callers may change in place.  Each
    monomial is checked with check_monomial before the memo is read."""
    out = {}
    for mon, c in state.items():
        check_monomial(mon)
        img, den = _n1_image(mon)
        sadd(out, img, c if den == 1 else Fraction(c, den))
    return out


def f1(sec: FormSection) -> FormSection:
    if sec._f1 is None:
        out, e = _chart_fiber_map(sec._parts[0], I, None, _n1_image)
        sec._f1 = _section({}, out, sec._den * e)
    return sec._f1


def f2(sec: FormSection) -> FormSection:
    if sec._f2 is None:
        out, e = _chart_fiber_map(sec._parts[0], _IMGAMMA_SQ,
                                  ChartFn.d_gamma, _gg_image)
        sec._f2 = _section({}, out, sec._den * e)
    return sec._f2


def dbar_total(sec: FormSection) -> FormSection:
    return dbar_prime(sec) + f1(sec) + f2(sec)


def curvature_op(sec: FormSection) -> FormSection:
    """-i H^-1 R(d/dgamma, d/dcg) acting on a homogeneous section:
    multiplication by l - s."""
    grades = sec.gradings()
    if not grades:
        return _section({}, {})
    if len(grades) > 1:
        raise ValueError("curvature needs a homogeneous section")
    (_, l, s), = grades
    return sec.scale(l - s)


def seed_section(mon, g=None) -> FormSection:
    """The dbar_prime-closed section A (x) v^(2(l-s)) [times g(u)]."""
    l, s = mon_charge(mon), mon_scount(mon)
    if l < s:
        raise ValueError("seed needs l >= s")
    f = ChartFn.v_pow(2 * (l - s))
    if g is not None:
        f = f * g
    return FormSection(deg0={mon: f})


def solve_recursion(seed: FormSection):
    """Extend a closed seed a_s to [a_s, a_{s-1}, ...] with
    dbar_total(sum) = 0.  Requires l - s > 0 and dbar_prime(seed) = 0."""
    grades = seed.gradings()
    if len(grades) != 1 or seed._parts[1]:
        raise ValueError("seed must be homogeneous of degree 0")
    (k, l, s), = grades
    if l - s <= 0:
        raise ValueError("recursion needs l - s > 0")
    if dbar_prime(seed):
        raise ValueError("seed must be dbar_prime-closed")
    chain = [seed]
    limit = max(k + s, 0) + 3
    t = 0
    while t < limit:
        t += 1
        num = f1(chain[t - 1])
        if t >= 2:
            num = num + f2(chain[t - 2])
        # times -(t (l-s) + t(t-1)/2)^{-1}
        chain.append(_star(num, -2, t * (2 * (l - s) + t - 1)))
        if not chain[-1] and not chain[-2] and t >= 2:
            break
    else:
        raise ArithmeticError("recursion did not close within %d steps" % limit)
    while chain and not chain[-1]:
        chain.pop()
    return chain


def chain_residuals(chain):
    """The defining identities of a recursion chain: entry t is
    dbar_prime(a_{s-t}) + f1(a_{s-t+1}) + f2(a_{s-t+2}), all of which
    must vanish, together with t = 0 giving dbar_prime(a_s).  An empty
    chain raises ValueError."""
    if not chain:
        raise ValueError("chain_residuals needs a nonempty chain")
    zero = _section({}, {})
    padded = list(chain) + [zero, zero]
    out = [dbar_prime(chain[0])]
    for t in range(1, len(chain) + 2):
        res = dbar_prime(padded[t]) + f1(padded[t - 1])
        if t >= 2:
            res = res + f2(padded[t - 2])
        out.append(res)
    return out


def case3_kernel(k, s):
    """Basis of the n1-kernel on the l = s block: the constant sections
    over these states are closed for the total differential.

    The block is gamma_(-1)-free, where n1 is (1/2) Lplus(2) (module
    docstring), so the kernel is the invariant space invariants(k, s).
    Before eliminating, the n1 image of each block monomial is compared
    with (1/2) Lplus(2) of it, and a mismatch raises ArithmeticError
    naming the monomial and the block.  Equal maps have equal kernels,
    so one elimination, of the n1 images, serves both operators, and a
    wrong n1 is caught even where its kernel happens to be right.  Each
    kernel state must then give a closed constant section, else
    ArithmeticError."""
    block = basis_block(k, s, s)
    if not block:
        return []
    images = []
    for m in block:
        ints, den = _n1_image(m)
        if ints != sscale(sl2_Lplus(2, {m: 1}), Fraction(den, 2)):
            raise ArithmeticError("n1 != Lplus(2)/2 on %s at (%d, %d)"
                                  % (mon_str(m), k, s))
        images.append(ints if den == 1 else sscale(ints, Fraction(1, den)))
    states = kernel_states(block, images)
    for st in states:
        sec = _section({_CONST: integer_multiple(st)}, {})
        if f2(sec) or dbar_prime(sec) or dbar_total(sec):
            raise ArithmeticError("case-3 state is not closed")
    return states


def _check_genus(genus):
    """Raise TypeError unless genus is an int, ValueError below 2."""
    check_int(genus, "genera")
    if genus < 2:
        raise ValueError("genus must be at least 2")


def h0_canonical(m, genus):
    """Dimension of the space of holomorphic sections of the m-th power
    of the canonical bundle on a closed curve of genus >= 2.  Classical
    values: 1 for m = 0, g for m = 1, (2m-1)(g-1) for m >= 2.  This is
    the one ingredient not computed by the exact engine.  An m or genus
    that is not an int raises TypeError, a genus below 2 ValueError.
    """
    check_int(m, "canonical powers")
    _check_genus(genus)
    if m < 0:
        return 0
    if m == 0:
        return 1
    if m == 1:
        return genus
    return (2 * m - 1) * (genus - 1)


def dim_global(k, l, genus):
    """Global-section dimension of the [k, l] block over a genus-g
    curve: the invariant space plus, for every s < l, the block count
    times h0 of the (l-s)-th canonical power.  A genus that is not an
    int raises TypeError and one below 2 ValueError, as in h0_canonical."""
    _check_genus(genus)
    total = invariants(k, l).dim
    for s, mons in split_by_s(enumerate_basis(k, l)).items():
        if s < l:
            total += len(mons) * h0_canonical(l - s, genus)
    return total
