import hashlib
import random
from fractions import Fraction

from chiral.basis import enumerate_basis, enumerate_full
from chiral.freefield import (BETA, GAMMA, B, C, VACUUM, apply_word, mon_charge,
                              mon_str, mon_weight, nth_product, sadd, sscale)
from chiral.modeops import ModeOperator, expr_parity, expr_weight, mode_words, pair


def test_expr_gradings():
    assert expr_weight("beta") == 1
    assert expr_weight("gtilde") == 0
    assert expr_weight(pair("gtilde", "beta")) == 1
    assert expr_parity("b") == 1
    assert expr_parity(pair("b", "c")) == 0
    assert expr_parity(pair(pair("gtilde", "c"), "b")) == 0


def test_mode_words_truncation_consistency():
    # enlarging the bound must not change the action on bounded states
    op_small = ModeOperator([(1, pair("b", "c"), 0)])
    st = {((B, -1), (C, -2)): 1}
    words3 = op_small.materialize(3)
    words6 = op_small.materialize(6)
    from chiral.freefield import apply_word, sadd
    out3, out6 = {}, {}
    for coeff, word in words3:
        sadd(out3, apply_word(word, st), coeff)
    for coeff, word in words6:
        sadd(out6, apply_word(word, st), coeff)
    assert out3 == out6


def test_bc_zero_mode_counts_fermions():
    op = ModeOperator([(1, pair("b", "c"), 0)])
    for k in range(3):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                nb = sum(1 for g, _ in mon if g == B)
                nc = sum(1 for g, _ in mon if g == C)
                assert op.apply({mon: 1}) == sscale({mon: 1}, nb - nc)


def test_gtilde_beta_zero_mode_counts_bosons():
    # counts gamma modes of index <= -2 minus beta modes
    op = ModeOperator([(1, pair("gtilde", "beta"), 0)])
    for k in range(3):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_full(k, l, 2):
                ng = sum(1 for g, i in mon if g == GAMMA and i <= -2)
                nbeta = sum(1 for g, _ in mon if g == BETA)
                assert op.apply({mon: 1}) == sscale({mon: 1}, ng - nbeta)


def test_zero_modes_kill_vacuum():
    for expr in (pair("b", "c"), pair("gtilde", "beta"),
                 pair(pair("gtilde", "gtilde"), "beta")):
        op = ModeOperator([(1, expr, 0)])
        assert op.apply(dict(VACUUM)) == {}


def test_mode_words_match_state_products():
    # :gamma beta:_(0) as mode words equals the state-product route
    # L~ = wick(gamma_(-1), beta_(-1)) has zero mode acting like J-type counting
    op = ModeOperator([(1, pair("gamma", "beta"), 0)])
    gb = nth_product({((GAMMA, -1),): 1}, -1, {((BETA, -1),): 1})
    for k in range(3):
        for l in range(-2, 3):
            for mon in enumerate_full(k, l, 1):
                st = {mon: 1}
                assert op.apply(st) == nth_product(gb, 0, st)


def test_rational_coefficients():
    op = ModeOperator([(Fraction(1, 2), pair("gtilde", "beta"), 0)])
    st = {((BETA, -1),): 1}
    assert op.apply(st) == sscale(st, Fraction(-1, 2))


def _operators():
    from chiral.geometry import _GG_MINUS1, _N1_RAT
    from chiral.sl2 import _LPLUS_OPS
    return [*_LPLUS_OPS.values(), _N1_RAT, _GG_MINUS1]


def _apply_all_words(op, state):
    # the uncompiled route: every word at the state's largest weight
    if not state:
        return {}
    out = {}
    for coeff, word in op.materialize(max(mon_weight(m) for m in state)):
        sadd(out, apply_word(word, state), coeff)
    return out


def test_apply_matches_all_words_oracle():
    ops = _operators()
    by_weight = [[mon for l in range(-(k + 2), k + 3)
                  for mon in enumerate_full(k, l, 2)] for k in range(5)]
    for mons in by_weight:
        for mon in mons:
            for op in ops:
                assert op.apply({mon: 1}) == _apply_all_words(op, {mon: 1})
    # states of mixed weight, where the uncompiled route uses one bound
    rng = random.Random(20261018)
    for _ in range(200):
        st = {}
        for k in rng.sample(range(5), 2):
            for mon in rng.sample(by_weight[k], rng.randint(1, 3)):
                st[mon] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                   rng.randint(1, 6))
        for op in ops:
            assert op.apply(st) == _apply_all_words(op, st)


def test_apply_returns_fresh_dicts():
    # callers add into the result in place; that must not reach the memo
    for st in ({((B, -1), (C, -2)): 1}, {((BETA, -2),): Fraction(3, 2)},
               {((B, -1), (C, -2)): 1, ((BETA, -2),): -2}):
        for op in _operators():
            expected = _apply_all_words(op, st)
            got = op.apply(st)
            assert got == expected
            got[((C, -1),)] = 7
            assert op.apply(st) == expected
            op.apply(st).clear()
            assert op.apply(st) == expected
            assert op.apply({}) == {}


def test_operator_images_fixture():
    # sorted images of n1_fiber, :gtilde gtilde:_(-1) and Lplus(0|1|2) on
    # the positive-sector basis through weight 6, frozen before operators
    # were compiled and memoised
    from chiral.geometry import _GG_MINUS1, n1_fiber
    from chiral.sl2 import sl2_Lplus
    ops = (("n1", n1_fiber), ("gg-1", _GG_MINUS1.apply),
           ("L+0", lambda st: sl2_Lplus(0, st)),
           ("L+1", lambda st: sl2_Lplus(1, st)),
           ("L+2", lambda st: sl2_Lplus(2, st)))
    lines = []
    for k in range(7):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                for name, op in ops:
                    img = sorted(op({mon: 1}).items())
                    lines.append("%s | %s | %s" % (name, mon_str(mon), " ".join(
                        "%s:%s" % (mon_str(m), c) for m, c in img)))
    assert len(lines) == 6450
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ed3903d104b3b335708f76f6edac446184a6725a0867a9197d5b5e8c355a569b"
