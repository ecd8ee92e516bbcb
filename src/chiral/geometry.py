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
  mode operators built from the gtilde family; the overall factor i of f1
  is carried on the chart coefficient, keeping fiber states rational.
  A chart function keeps integer numerators, split by the power of i,
  over one denominator, so that factor only moves numerators between
  the real and imaginary slots and leaves the denominator as it is.
  f1 drops s by one, f2 by two; both raise form degree, so they vanish
  on degree-1 input on a curve.  The n1 image of each fiber monomial is
  memoised, and a section keeps its own f1 and f2 images, so
  chain_residuals reuses the images solve_recursion computed for the
  same chain entries; dbar_total on a summed section, a new object,
  recomputes them.

The public FormSection(...) checks that every coefficient is a ChartFn
and drops the zeros.  Every section this module builds from its own
values (sums, scalings, the covariant derivatives, dbar_star, the f1/f2
tail, curvature_op, the zero of chain_residuals and the case-3 states)
skips that check through _section: each drops the zeros it makes, a
sum that cancels or a derivative of a constant, and keeps only nonzero
ChartFns.  Only seed_section, whose g comes from the caller, builds its
section through the check.

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

from .basis import basis_block, enumerate_basis, mon_scount, split_by_s
from .chart import ChartFn, I, metric_data
from .freefield import (BETA, GAMMA, B, C, apply_mode, check_int, mon_charge,
                        mon_str, mon_weight, sadd, sscale)
from .modeops import ModeOperator, pair
from .sl2 import invariants, kernel_states, sl2_Lplus

_METRIC = metric_data()
_THETA = _METRIC.theta_coeff
_HALF_V2 = -(I * _METRIC.h_inv)  # -i H^-1 = v^2/2
_IMGAMMA_SQ = ChartFn.v_pow(2, Fraction(-1, 4))  # (Im gamma)^2 = -v^2/4
# the (s - l) count of dbar_prime, per mode generator
_S_MINUS_L = {BETA: 1, B: 1, GAMMA: -1, C: -1}


def _clean(part):
    part = part or {}
    for f in part.values():
        if not isinstance(f, ChartFn):
            raise TypeError("section coefficients are ChartFn, not %s"
                            % type(f).__name__)
    return {m: f for m, f in part.items() if f}


def _section(deg0, deg1) -> "FormSection":
    """The section over deg0 and deg1, taken as they are: every value a
    nonzero ChartFn that this module built."""
    sec = FormSection.__new__(FormSection)
    sec.deg0 = deg0
    sec.deg1 = deg1
    sec._f1 = sec._f2 = None
    return sec


def _add_into(out, pairs):
    """Add each (m, f) of pairs into out[m], dropping an entry whose sum
    cancels; returns out."""
    for m, f in pairs:
        if m in out:
            f = out[m] + f
            if not f:
                del out[m]
                continue
        out[m] = f
    return out


class FormSection:
    """deg0 and deg1 map fiber monomials to chart coefficients; deg1 is
    the dconj(gamma) component.  A coefficient that is not a ChartFn
    raises TypeError, and zero coefficients are dropped; the sections
    the module builds itself skip that check (_section).

    A section is a value: nothing changes deg0 or deg1 after
    construction, so a section keeps its f1 and f2 images once they are
    computed, and every later call returns the same image object.
    """

    __slots__ = ("deg0", "deg1", "_f1", "_f2")

    def __init__(self, deg0=None, deg1=None):
        self.deg0 = _clean(deg0)
        self.deg1 = _clean(deg1)
        self._f1 = self._f2 = None

    def __bool__(self):
        return bool(self.deg0) or bool(self.deg1)

    def __eq__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        return self.deg0 == other.deg0 and self.deg1 == other.deg1

    def __add__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        return _section(_add_into(dict(self.deg0), other.deg0.items()),
                        _add_into(dict(self.deg1), other.deg1.items()))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, FormSection):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        d0 = {m: f.scale(c) for m, f in self.deg0.items()}
        d1 = {m: f.scale(c) for m, f in self.deg1.items()}
        # f.scale has checked c; c = 0 leaves only zeros
        return _section(d0, d1) if c else _section({}, {})

    def gradings(self):
        """The set of (weight, charge, s) over all fiber monomials."""
        mons = set(self.deg0) | set(self.deg1)
        return {(mon_weight(m), mon_charge(m), mon_scount(m)) for m in mons}

    def __repr__(self):
        bits = []
        for m in sorted(self.deg0):
            bits.append("[%s](x)%r" % (mon_str(m), self.deg0[m]))
        for m in sorted(self.deg1):
            bits.append("[%s](x)%r dcg" % (mon_str(m), self.deg1[m]))
        return " + ".join(bits) if bits else "0"


def dbar_prime(sec: FormSection) -> FormSection:
    """Covariant dbar.  Degree-1 input would give a (0,2)-form, which
    vanishes on a curve, so only the degree-0 part contributes."""
    out = {}
    for mon, f in sec.deg0.items():
        n = sum(_S_MINUS_L[gen] for gen, _ in mon)
        g = f.d_gammabar()
        if n:
            g = g + (_THETA * f).scale(n)
        if g:
            out[mon] = g
    return _section({}, out)


def nabla_gamma(sec: FormSection) -> FormSection:
    """Holomorphic covariant derivative; the frame is flat in this
    direction, so it is d/dgamma on coefficients."""
    return _section(*({m: g for m, f in part.items() if (g := f.d_gamma())}
                      for part in (sec.deg0, sec.deg1)))


def dbar_star(sec: FormSection) -> FormSection:
    """-i H^-1 iota_{dcg} nabla_gamma: degree 1 -> degree 0."""
    if sec.deg0:
        raise ValueError("dbar_star acts on pure degree-1 sections")
    out = {}
    for m, g in sec.deg1.items():
        h = _HALF_V2 * g.d_gamma()
        if h:
            out[m] = h
    return _section(out, {})


# fiber operators; the full f1 operator is i times _N1_RAT, with the i
# carried on the chart coefficient
_N1_RAT = ModeOperator([
    (1, pair(pair("gtilde", "c"), "b"), 0),
    (Fraction(1, 2), pair(pair("gtilde", "gtilde"), "beta"), 0),
])
_GG_MINUS1 = ModeOperator([(1, pair("gtilde", "gtilde"), -1)])


@cache
def _n1_image(mon):
    """The n1_fiber image of one monomial, computed once and shared:
    callers must not change it."""
    state = {mon: 1}
    img = _N1_RAT.apply(state)
    b0 = apply_mode(BETA, 0, state)
    if b0:
        sadd(img, _GG_MINUS1.apply(b0), Fraction(-1, 2))
    return img


def n1_fiber(state):
    """Rational part of the degree-raising fiber operator:
    ::gtilde c: b:_(0) + (1/2)(::gtilde gtilde: beta:_(0)
    - :gtilde gtilde:_(-1) beta_(0)).  Sums the memoised image of each
    monomial into a fresh dict, which callers may change in place."""
    out = {}
    for mon, c in state.items():
        sadd(out, _n1_image(mon), c)
    return out


def _tail(terms) -> FormSection:
    """The degree-1 section sum of coeff (x) image over the (chart
    coefficient, fiber image) pairs of terms, summed per monomial."""
    return _section({}, _add_into({}, ((m2, coeff.scale(c))
                                       for coeff, img in terms
                                       for m2, c in img.items())))


def f1(sec: FormSection) -> FormSection:
    if sec._f1 is None:
        sec._f1 = _tail((f * I, img) for mon, f in sec.deg0.items()
                        if (img := _n1_image(mon)))
    return sec._f1


def f2(sec: FormSection) -> FormSection:
    if sec._f2 is None:
        sec._f2 = _tail((g, _GG_MINUS1.apply({mon: 1}))
                        for mon, f in sec.deg0.items()
                        if (g := _IMGAMMA_SQ * f.d_gamma()))
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
    if len(grades) != 1 or seed.deg1:
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
        step = dbar_star(num)
        # -(t (l-s) + t(t-1)/2)^{-1} as one Fraction
        chain.append(step.scale(Fraction(-2, t * (2 * (l - s) + t - 1))))
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
    images = [_n1_image(m) for m in block]
    for m, img in zip(block, images):
        if img != sscale(sl2_Lplus(2, {m: 1}), Fraction(1, 2)):
            raise ArithmeticError("n1 != Lplus(2)/2 on %s at (%d, %d)"
                                  % (mon_str(m), k, s))
    states = kernel_states(block, images)
    for st in states:
        sec = _section({m: ChartFn.const(c) for m, c in st.items()}, {})
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
