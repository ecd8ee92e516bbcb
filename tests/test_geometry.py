import hashlib
from fractions import Fraction

import pytest

from chiral.basis import basis_block, enumerate_basis, mon_scount
from chiral.chart import ChartFn
from chiral.freefield import BETA, GAMMA, B, C, mon_charge, mon_str, mon_weight
from chiral.geometry import (FormSection, case3_kernel, chain_residuals,
                             curvature_op, dbar_prime, dbar_star, dbar_total,
                             f1, f2, n1_fiber, nabla_gamma, seed_section,
                             solve_recursion)
from chiral.scalar import I
from chiral.sl2 import invariants

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
    sec = FormSection(deg0={((B, -1),): ChartFn.u_pow(1)},
                      deg1={((C, -1),): ChartFn.v_pow(2)})
    out = nabla_gamma(sec)
    assert out.deg0 == {((B, -1),): ONE_FN}
    assert out.deg1 == {((C, -1),): ChartFn.v_pow(1, 2)}


def test_dbar_star():
    sec = FormSection(deg1={(): ChartFn.u_pow(1)})
    assert dbar_star(sec).deg0 == {(): ChartFn.v_pow(2, Fraction(1, 2))}
    assert not dbar_star(FormSection(deg1={(): ONE_FN}))
    with pytest.raises(ValueError):
        dbar_star(FormSection(deg0={(): ONE_FN}))


def test_n1_fiber_oracle():
    # hand-computed: the fiber operator sends beta_(-1) to b_(-1)c_(-1)
    assert n1_fiber({((BETA, -1),): 1}) == {((B, -1), (C, -1)): 1}
    # and f1 carries the overall factor i on the chart coefficient
    img = f1(FormSection(deg0={((BETA, -1),): ONE_FN}))
    assert img.deg1 == {((B, -1), (C, -1)): ChartFn.const(I)}


def test_f2_oracle():
    # hand mode sum: (gtilde^2)_(-1) beta_(-1) = -2 gamma_(-2), and the
    # coefficient is (Im gamma)^2 d_gamma(u) = -v^2/4
    img = f2(FormSection(deg0={((BETA, -1),): ChartFn.u_pow(1)}))
    assert img.deg1 == {((GAMMA, -2),): ChartFn.v_pow(2, Fraction(1, 2))}
    # constant coefficients are killed by the derivative
    assert not f2(FormSection(deg0={((BETA, -1),): ONE_FN}))
    # the fiber operator kills the vacuum regardless of coefficient
    assert not f2(FormSection(deg0={(): ChartFn.u_pow(3)}))


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
    vac = FormSection(deg0={(): ChartFn.u_pow(1)})
    assert curvature_op(vac) == vac.scale(0)
    c = FormSection(deg0={((C, -1),): ONE_FN})
    assert curvature_op(c) == c
    bsec = FormSection(deg0={((BETA, -1),): ONE_FN})
    assert curvature_op(bsec) == bsec.scale(-1)
    with pytest.raises(ValueError):
        curvature_op(FormSection(deg0={(): ONE_FN, ((C, -1),): ONE_FN}))


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
    for k in range(3):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                s = mon_scount(mon)
                if l - s not in (1, 2):
                    continue
                chain = solve_recursion(seed_section(mon))
                assert len(chain) - 1 <= k + s + 1
                for res in chain_residuals(chain):
                    assert not res
                assert not dbar_total(sections_sum(chain))


def test_case3_matches_invariants():
    for k in range(4):
        for s in range(-k, k + 1):
            states = case3_kernel(k, s)
            assert len(states) == invariants(k, s).dim
            for st in states:
                sec = FormSection(deg0={m: ChartFn.const(c)
                                        for m, c in st.items()})
                assert not dbar_total(sec)


def test_case3_block_identities():
    for k in range(4):
        for s in range(-k, k + 1):
            for mon in basis_block(k, s, s):
                sec = FormSection(deg0={mon: ONE_FN})
                assert not f2(sec)
                assert not dbar_prime(sec)


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
