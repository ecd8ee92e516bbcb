import fractions
import hashlib
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from chiral.basis import (basis_block, charges, enumerate_basis,
                          enumerate_full, grades, mon_scount)
from chiral.chart import ChartFn, I, metric_data
from chiral.freefield import (BETA, GAMMA, B, C, apply_mode, mon_charge,
                              mon_str, mon_weight, sadd, sscale)
from chiral import geometry
from chiral.geometry import (FormSection, case3_kernel, chain_residuals,
                             curvature_op, dbar_prime, dbar_star, dbar_total,
                             f1, f2, n1_fiber, nabla_gamma, seed_section,
                             solve_recursion)
from chiral.modeops import ModeOperator, pair
from chiral.sl2 import invariants, sl2_Lplus

ONE_FN = ChartFn.const(1)


def sections_sum(chain):
    total = FormSection()
    for a in chain:
        total = total + a
    return total


def test_form_section_arithmetic():
    a = FormSection(deg0={((BETA, -1),): ONE_FN})
    b = FormSection(deg0={((BETA, -1),): ChartFn.const(-1)})
    assert not (a + b)
    assert a - a == FormSection()
    assert a.scale(2).deg0[((BETA, -1),)] == ChartFn.const(2)
    assert a.gradings() == {(1, 0, 1)}


def test_dbar_prime_rules():
    # vacuum with constant coefficient is closed
    assert not dbar_prime(FormSection(deg0={(): ONE_FN}))
    # a single gamma mode has s - l = -1: +2/v times the coefficient
    out = dbar_prime(FormSection(deg0={((GAMMA, -2),): ONE_FN}))
    assert out.deg1 == {((GAMMA, -2),): ChartFn.v_pow(-1, 2)}
    # degree-1 input dies (no (0,2)-forms on a curve)
    assert not dbar_prime(FormSection(deg1={((GAMMA, -2),): ONE_FN}))


def test_nabla_gamma_is_coefficientwise():
    sec = FormSection(deg0={((B, -1),): ChartFn({(1, 0): 1})},
                      deg1={((C, -1),): ChartFn.v_pow(2)})
    out = nabla_gamma(sec)
    assert out.deg0 == {((B, -1),): ONE_FN}
    assert out.deg1 == {((C, -1),): ChartFn.v_pow(1, 2)}


def test_dbar_star():
    sec = FormSection(deg1={(): ChartFn({(1, 0): 1})})
    assert dbar_star(sec).deg0 == {(): ChartFn.v_pow(2, Fraction(1, 2))}
    assert not dbar_star(FormSection(deg1={(): ONE_FN}))
    with pytest.raises(ValueError):
        dbar_star(FormSection(deg0={(): ONE_FN}))


def test_n1_fiber_oracle():
    # hand-computed: the fiber operator sends beta_(-1) to b_(-1)c_(-1)
    assert n1_fiber({((BETA, -1),): 1}) == {((B, -1), (C, -1)): 1}
    # and f1 carries the overall factor i on the chart coefficient
    img = f1(FormSection(deg0={((BETA, -1),): ONE_FN}))
    assert img.deg1 == {((B, -1), (C, -1)): I}


def test_f2_oracle():
    # hand mode sum: (gtilde^2)_(-1) beta_(-1) = -2 gamma_(-2), and the
    # coefficient is (Im gamma)^2 d_gamma(u) = -v^2/4
    img = f2(FormSection(deg0={((BETA, -1),): ChartFn({(1, 0): 1})}))
    assert img.deg1 == {((GAMMA, -2),): ChartFn.v_pow(2, Fraction(1, 2))}
    # constant coefficients are killed by the derivative
    assert not f2(FormSection(deg0={((BETA, -1),): ONE_FN}))
    # the fiber operator kills the vacuum regardless of coefficient
    assert not f2(FormSection(deg0={(): ChartFn({(3, 0): 1})}))


def test_f_operators_drop_s():
    for k in range(3):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                s = mon_scount(mon)
                sec = FormSection(deg0={mon: ChartFn.v_pow(1)})
                for op, ds in ((f1, -1), (f2, -2)):
                    for m2 in op(sec).deg1:
                        assert (mon_weight(m2), mon_charge(m2),
                                mon_scount(m2)) == (k, l, s + ds)


def test_curvature_eigenvalue():
    vac = FormSection(deg0={(): ChartFn({(1, 0): 1})})
    assert curvature_op(vac) == vac.scale(0)
    c = FormSection(deg0={((C, -1),): ONE_FN})
    assert curvature_op(c) == c
    bsec = FormSection(deg0={((BETA, -1),): ONE_FN})
    assert curvature_op(bsec) == bsec.scale(-1)
    with pytest.raises(ValueError):
        curvature_op(FormSection(deg0={(): ONE_FN, ((C, -1),): ONE_FN}))


def test_curvature_is_the_commutator_of_the_covariant_derivatives():
    # an oracle apart from curvature_op's own definition.  Convention:
    # R = dbar_prime . nabla_gamma - nabla_gamma . dbar_prime, a
    # dconj(gamma)-form, and -i H^-1 R, read as a degree-0 section, is
    # multiplication by l - s (the opposite order gives s - l)
    minus_i_hinv = -(I * metric_data().h_inv)
    coeffs = (ChartFn.v_pow(2), ChartFn({(1, -1): 1}), ChartFn.const(3),
              ChartFn.v_pow(1))
    count = 0
    for k in range(6):
        for l in charges(k):
            for mon in enumerate_basis(k, l):
                for f in coeffs:
                    sec = FormSection(deg0={mon: f})
                    r = (dbar_prime(nabla_gamma(sec))
                         - nabla_gamma(dbar_prime(sec)))
                    assert not r.deg0
                    got = FormSection(deg0={m: minus_i_hinv * g
                                            for m, g in r.deg1.items()})
                    assert got == curvature_op(sec), (mon, f)
                    count += 1
    assert count == 2344


def test_seed_closure():
    mon = ((C, -1),)
    seed = seed_section(mon)
    assert seed.deg0 == {mon: ChartFn.v_pow(2)}
    assert not dbar_prime(seed)
    with pytest.raises(ValueError):
        seed_section(((BETA, -1),))  # l - s = -1 < 0


def test_recursion_simple_chain():
    mon = ((BETA, -1), (C, -2), (C, -1))  # weight 2, charge 2, s 1
    chain = solve_recursion(seed_section(mon))
    assert len(chain) == 2
    assert chain[0].deg0 == {mon: ChartFn.v_pow(2)}
    (m2, fn), = chain[1].deg0.items()
    assert (mon_weight(m2), mon_charge(m2), mon_scount(m2)) == (2, 2, 0)
    for res in chain_residuals(chain):
        assert not res
    assert not dbar_total(sections_sum(chain))


def test_recursion_rejects_bad_seeds():
    with pytest.raises(ValueError):
        solve_recursion(FormSection(deg0={((B, -1), (C, -1)): ONE_FN}))  # l = s
    with pytest.raises(ValueError):
        solve_recursion(FormSection())
    # not dbar_prime-closed: wrong v-power
    with pytest.raises(ValueError):
        solve_recursion(FormSection(deg0={((C, -1),): ChartFn.v_pow(1)}))


def test_recursion_sweep_small():
    # every seed with l - s >= 1 through weight 5, bare and times a
    # holomorphic factor u^j: every seed dim_global counts there, not
    # only the l - s in (1, 2) of geometry_failures
    factors = (None,) + tuple(ChartFn({(j, 0): 1}) for j in (1, 2, 3))
    chains = 0
    for k in range(6):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                s = mon_scount(mon)
                if l - s < 1:
                    continue
                for g in factors:
                    chain = solve_recursion(seed_section(mon, g))
                    chains += 1
                    assert len(chain) - 1 <= k + s + 1
                    for res in chain_residuals(chain):
                        assert not res
                    assert not dbar_total(sections_sum(chain))
    assert chains == 1172


def _assert_nonzero_chart_coefficients(sec):
    for part in (sec.deg0, sec.deg1):
        for f in part.values():
            assert type(f) is ChartFn and f, sec
    _assert_normal_form(sec)


def _assert_normal_form(sec):
    """The stored form: per degree {chart monomial: nonempty {fiber
    monomial: nonzero int}} over an int denominator > 0, in lowest terms,
    so that the empty section is {} and {} over 1."""
    den = sec._den
    assert type(den) is int and den > 0
    nums = []
    for part in sec._parts:
        for (a, b, w), fibers in part.items():
            assert a >= 0 and w in (0, 1) and fibers, sec
            assert all(type(c) is int and c for c in fibers.values()), sec
            nums += fibers.values()
    assert gcd(den, *nums) == 1, sec


def _assert_empty(sec):
    _assert_nonzero_chart_coefficients(sec)
    assert sec.deg0 == {} and sec.deg1 == {}, sec


def test_every_built_section_holds_only_nonzero_chart_coefficients():
    # the sections geometry builds skip the check of the public
    # constructor, so each route must drop the zeros it makes itself;
    # every seed with l - s >= 1 through weight 3, bare and times u, and
    # every section built from it
    seeds = 0
    for k in range(4):
        for l in range(-(k + 2), k + 3):
            for mon, g in product(enumerate_basis(k, l),
                                  (None, ChartFn({(1, 0): 1}))):
                if l - mon_scount(mon) < 1:
                    continue
                seeds += 1
                chain = solve_recursion(seed_section(mon, g))
                residuals = chain_residuals(chain)
                total = sections_sum(chain)
                built = [*chain, *residuals, total]
                for a in chain:
                    built += [f1(a), f2(a), dbar_prime(a), dbar_total(a),
                              dbar_star(f1(a))]
                for sec in built:
                    _assert_nonzero_chart_coefficients(sec)
                # the cancelling cases are empty; d/dgamma kills the
                # constant coefficients f1 gives a constant section
                plain = FormSection(deg0={mon: ONE_FN})
                for sec in (*residuals, dbar_total(total),
                            dbar_star(f1(plain))):
                    _assert_empty(sec)
                for a in chain:
                    _assert_empty(a.scale(0))
                    _assert_empty(a - a)
    assert seeds == 98


def test_case3_matches_invariants():
    for k in range(4):
        for s in range(-k, k + 1):
            states = case3_kernel(k, s)
            assert states == list(invariants(k, s).states)
            for st in states:
                sec = FormSection(deg0={m: ChartFn.const(c)
                                        for m, c in st.items()})
                assert not dbar_total(sec)


def test_n1_is_half_lplus2_up_to_the_beta0_term():
    # 2 n1 = Lplus(2) - :gtilde gtilde:_(-1) beta_(0) on every state, the
    # gamma_(-1) powers included; the beta_(0) term is built here, apart
    # from geometry's own operators
    gg = ModeOperator([(1, pair("gtilde", "gtilde"), -1)])
    count = 0
    for k, l in grades(6):
        for mon in enumerate_full(k, l, 2):
            st = {mon: 1}
            rhs = sl2_Lplus(2, st)
            sadd(rhs, gg.apply(apply_mode(BETA, 0, st)), -1)
            assert sscale(n1_fiber(st), 2) == rhs, mon
            count += 1
    assert count == 3870


def test_n1_is_half_lplus2_on_the_positive_sector():
    # beta_(0) kills every gamma_(-1)-free monomial, so there n1 is
    # (1/2) Lplus(2), the identity case3_kernel checks block by block
    count = 0
    for k, l in grades(7):
        for mon in enumerate_basis(k, l):
            st = {mon: 1}
            assert not apply_mode(BETA, 0, st)
            half = sscale(sl2_Lplus(2, st), Fraction(1, 2))
            assert n1_fiber(st) == half, mon
            count += 1
    assert count == 2698


def test_case3_block_identities():
    for k in range(4):
        for s in range(-k, k + 1):
            for mon in basis_block(k, s, s):
                sec = FormSection(deg0={mon: ONE_FN})
                assert not f2(sec)
                assert not dbar_prime(sec)


def test_form_section_rejects_non_chart_coefficients():
    for bad in (1, Fraction(1, 2), [1], "1"):
        with pytest.raises(TypeError):
            FormSection(deg0={((BETA, -1),): bad})
        with pytest.raises(TypeError):
            FormSection(deg1={((BETA, -1),): bad})


def test_form_section_arithmetic_with_a_non_section_is_a_type_error():
    sec = FormSection(deg0={((BETA, -1),): ONE_FN})
    for other in (1, 0, ONE_FN, "x"):
        with pytest.raises(TypeError):
            sec + other
        with pytest.raises(TypeError):
            sec - other
        with pytest.raises(TypeError):
            other + sec


def test_chain_residuals_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="nonempty"):
        chain_residuals([])


def _recursion_seeds(kmax):
    # the seeds of the geometry_failures sweep: l - s in (1, 2)
    for k in range(kmax + 1):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                if l - mon_scount(mon) in (1, 2):
                    yield mon


def test_kept_f_images_match_fresh_sections():
    # solve_recursion fills f1/f2 on its chain entries and
    # chain_residuals reads them back; both must equal the images of an
    # equal section built afresh, and a second call must agree
    for mon in _recursion_seeds(5):
        chain = solve_recursion(seed_section(mon))
        chain_residuals(chain)
        for a in chain:
            fresh = FormSection(a.deg0, a.deg1)
            for op in (f1, f2):
                img = op(a)
                assert img == op(fresh)
                assert op(a) == img


def test_n1_fiber_returns_fresh_dicts():
    # callers may add into the result in place; that must not reach the
    # memoised image
    for st in ({((BETA, -1),): 1}, {((B, -1), (C, -2)): 1},
               {((BETA, -1),): 1, ((BETA, -2), (C, -1)): Fraction(3, 2)}):
        expected = dict(n1_fiber(st))
        assert expected
        got = n1_fiber(st)
        got[((C, -1),)] = 7
        assert n1_fiber(st) == expected
        n1_fiber(st).clear()
        assert n1_fiber(st) == expected
    assert n1_fiber({}) == {}


def test_recursion_fixture():
    # every chain and residual of the geometry_failures(kmax=5) sweep, as
    # printed; the digest predates the split of chart coefficients by i
    lines = []
    for k in range(6):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                if l - mon_scount(mon) not in (1, 2):
                    continue
                chain = solve_recursion(seed_section(mon))
                lines.extend("%s | a%d | %r" % (mon_str(mon), t, a)
                             for t, a in enumerate(chain))
                lines.extend("%s | r%d | %r" % (mon_str(mon), t, r)
                             for t, r in enumerate(chain_residuals(chain)))
    assert len({line.split(" | ")[0] for line in lines}) == 205
    assert len(lines) == 2112
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "982d8eb4580bd045d39ffa6636ef1e4568ca8feb55c2d6d6df270a3edad25b06"


def test_form_section_rejects_bad_monomials():
    # the public constructor checks each monomial with check_monomial,
    # whatever the fiber image memo holds: a float or bool index is a
    # TypeError, an annihilation mode or a repeated odd mode a ValueError.
    # (GAMMA, -2.0) hashes and compares equal to (GAMMA, -2), so once the
    # image of gamma(-2) is memoised a memo lookup would find it
    bad = [(((GAMMA, -2.0),), TypeError), (((GAMMA, True),), TypeError),
           (((BETA, 0),), ValueError), (((C, -1), (C, -1)), ValueError)]
    good = [((GAMMA, -2),), ((BETA, -1),), ((C, -1),)]
    geometry._n1_image.cache_clear()
    geometry._gg_image.cache_clear()
    for memoised in (False, True):
        if memoised:
            for mon in good:
                f1(FormSection(deg0={mon: ChartFn.v_pow(1)}))
                f2(FormSection(deg0={mon: ChartFn.v_pow(1)}))
            assert geometry._n1_image.cache_info().currsize == len(good)
        for mon, error in bad:
            for deg in ("deg0", "deg1"):
                with pytest.raises(error):
                    FormSection(**{deg: {mon: ONE_FN}})
        with pytest.raises(TypeError):
            seed_section(((GAMMA, -2.0),))
    # a bad monomial is refused next to good ones, and a zero coefficient
    # does not hide it
    with pytest.raises(ValueError):
        FormSection(deg0={((C, -1),): ONE_FN, ((BETA, 0),): ChartFn()})


def test_n1_fiber_rejects_a_non_int_mode_with_a_cold_or_warm_memo():
    # (C, -2.0) hashes and compares equal to (C, -2): once the n1 image
    # of beta(-1) c(-2) is memoised, a lookup would find it, so n1_fiber
    # checks each monomial before it reads the memo
    good, bad = ((BETA, -1), (C, -2)), ((BETA, -1), (C, -2.0))
    geometry._n1_image.cache_clear()
    for warm in (False, True):
        if warm:
            n1_fiber({good: 1})
            assert geometry._n1_image.cache_info().currsize == 1
        with pytest.raises(TypeError, match="mode indices are int"):
            n1_fiber({bad: 1})


def _recursion_chains(kmax):
    for mon in _recursion_seeds(kmax):
        yield mon, solve_recursion(seed_section(mon))


def test_chain_entries_have_one_chart_monomial():
    # every entry a_{s-t} of every chain the geometry sweep solves is
    # A (x) c i^t v^(2(l-s)+t) summed over fiber monomials A, with c
    # rational: a single chart monomial, which the section layout stores
    # once per entry
    chains = entries = 0
    for mon, chain in _recursion_chains(5):
        l, s = mon_charge(mon), mon_scount(mon)
        chains += 1
        for t, a in enumerate(chain):
            assert not a.deg1 and a.deg0
            key = (0, 2 * (l - s) + t, t % 2)
            for f in a.deg0.values():
                nums, _ = f.as_ints()
                assert list(nums) == [key], (mon, t, f)
            entries += 1
    assert (chains, entries) == (205, 851)


def test_section_operators_run_without_fractions():
    # once the fiber images are memoised, the operators on the sweep's
    # chains run on ints alone: no code of the fractions module runs
    sections = []
    for _, chain in _recursion_chains(5):
        for a in chain:
            fresh = FormSection(a.deg0, a.deg1)  # no f1/f2 image kept
            f1(a), f2(a)
            sections.append((fresh, FormSection(a.deg0, a.deg1)))
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for a, b in sections:
            f1(a), f2(b), dbar_prime(a), dbar_star(f1(a))
            a + b, a - b, a.scale(3), b.scale(-2)
    finally:
        sys.setprofile(None)
    assert len(sections) == 851
    assert entered == []
