import hashlib
from fractions import Fraction

import pytest

from chiral import freefield, linalg, sl2
from chiral.basis import basis_block, enumerate_basis, grades, mon_scount
from chiral.freefield import (BETA, GAMMA, B, C, G_STATE, L_STATE, mon_charge,
                              sscale, state_str, translate)
from chiral.geometry import case3_kernel
from chiral.sl2 import (character, charge_range, gamma_shift, invariants,
                        sl2_L, sl2_Lplus, verify_sl2)

# dual-oracle table: dimensions computed independently through the
# state-product operators and the mode-word operators, frozen here
CHARACTER_4 = {
    (0, 0): 1,
    (2, -1): 1, (2, 0): 1,
    (3, -1): 1, (3, 0): 1,
    (4, -1): 3, (4, 0): 3,
}


def test_sl2_actions_reject_a_non_int_mode_with_a_warm_memo():
    # L(i) goes through nth_product and Lplus(i) through ModeOperator.apply;
    # after beta(-1) gamma(-2) is memoised in both, the equal monomial
    # with a float index still raises instead of reading its image
    good = ((BETA, -1), (GAMMA, -2))
    bad = ((BETA, -1), (GAMMA, -2.0))
    for action in (sl2_L, sl2_Lplus):
        for i in range(3):
            action(i, {good: 1})
            with pytest.raises(TypeError, match="mode indices are int"):
                action(i, {bad: 1})


def test_lplus_one_is_diagonal_counting():
    # eigenvalue l - s on every gamma_(-1)-free monomial through weight 6
    count = 0
    for k, l in grades(6):
        for mon in enumerate_basis(k, l):
            want = mon_charge(mon) - mon_scount(mon)
            assert sl2_Lplus(1, {mon: 1}) == sscale({mon: 1}, want)
            count += 1
    assert count == 1290


def test_lplus_zero_is_beta_zero_mode():
    assert sl2_Lplus(0, {((GAMMA, -1),): 1}) == {(): 1}
    assert sl2_Lplus(0, {((BETA, -1),): 1}) == {}


def test_relation_between_routes():
    relation, _ = verify_sl2(2, dmax=2)
    assert relation == []


def test_bracket_relations():
    _, bracket = verify_sl2(2, dmax=2)
    assert bracket == []


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        sl2_L(3, {(): 1})
    with pytest.raises(ValueError):
        sl2_Lplus(-1, {(): 1})


def test_rejects_a_non_int_index_with_a_cold_or_warm_actor_memo():
    # 1.0 == 1 and both hash alike, so the answer to a float index must
    # not depend on whether the int one is memoised: both raise
    st = {((GAMMA, -2),): 1}
    for warm in (False, True):
        sl2._l_actor.cache_clear()
        if warm:
            sl2_L(1, st)
        for op in (sl2_L, sl2_Lplus):
            with pytest.raises(TypeError, match="sl2 generator indices are int"):
                op(1.0, st)


def test_gamma_shift():
    st = {((BETA, -1),): 1}
    got = gamma_shift(st, 2)
    assert got == {((BETA, -1), (GAMMA, -1), (GAMMA, -1)): 1}


def test_character_table_fixture():
    assert character(4) == CHARACTER_4


def test_invariant_states_weight_2():
    inv = invariants(2, 0)
    assert inv.dim == 1
    (st,) = inv.states
    # spans the same line as L = beta_(-1)gamma_(-2) - b_(-1)c_(-2)
    ratio = None
    for mon, c in L_STATE.items():
        assert mon in st
        r = Fraction(st[mon]) / c
        ratio = ratio or r
        assert r == ratio
    inv_g = invariants(2, -1)
    assert inv_g.dim == 1
    assert inv_g.states[0] == dict(G_STATE)


def test_invariant_states_weight_3_are_derivatives():
    for base, (k, l) in ((G_STATE, (3, -1)), (L_STATE, (3, 0))):
        inv = invariants(k, l)
        assert inv.dim == 1
        t = translate(dict(base))
        # the derivative is itself invariant, hence spans the 1-dim kernel
        assert sl2_Lplus(2, t) == {}
        assert sl2_Lplus(1, t) == {}

def test_kernel_vectors_are_gamma_free():
    for k in range(5):
        for l in range(-(k + 2), k + 3):
            for st in invariants(k, l).states:
                for mon in st:
                    assert (GAMMA, -1) not in mon


def test_diagonal_filter():
    # the s = l block, where invariants takes its kernel, holds exactly
    # the monomials with #beta + #b == #gamma + #c, in basis order
    for k, l in grades(12):
        want = tuple(mon for mon in enumerate_basis(k, l)
                     if sum(1 for g, _ in mon if g in (BETA, B))
                     == sum(1 for g, _ in mon if g in (GAMMA, C)))
        assert basis_block(k, l, l) == want


def test_empty_blocks():
    assert invariants(0, 1).dim == 0
    assert invariants(1, 0).dim == 0
    assert invariants(1, 1).dim == 0
    assert invariants(0, 0).dim == 1
    assert invariants(0, 0).states[0] == {(): 1}


def test_weight_8_invariant_bases_fixture():
    # lines "8,l,dim", each followed by its basis vectors, frozen from the
    # exact Gaussian-rational elimination
    lines = []
    for l in charge_range(8):
        inv = invariants(8, l)
        lines.append("8,%d,%d" % (l, inv.dim))
        lines += [state_str(st) for st in inv.states]
    assert len(lines) == 70
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "42ead812d4404d640b2efebd944095930355dbb27c9c2067ce3b77b818d7d2a1")


def test_typed_kernel_bases_fixture():
    # every invariants(k, l) basis through weight 8 and every
    # case3_kernel(k, s) for k <= 4, with each coefficient's type, so an
    # int turning into an equal Fraction changes the digest; frozen from
    # the Gaussian-rational linalg that preceded the one over Q
    items = []
    for k in range(9):
        for l in charge_range(k):
            for st in invariants(k, l).states:
                items.append(("invariants", k, l, sorted(
                    (mon, type(c).__name__, c) for mon, c in st.items())))
    for k in range(5):
        for s in range(-k, k + 1):
            for st in case3_kernel(k, s):
                items.append(("case3_kernel", k, s, sorted(
                    (mon, type(c).__name__, c) for mon, c in st.items())))
    assert len(items) == 148
    assert hashlib.sha256(repr(items).encode()).hexdigest() == (
        "27510037d0dc3accb90cd7d1efad4d77d7427cdb758cc5851393cc921a864ea8")


def test_check_rejects_a_perturbed_fraction_state(monkeypatch):
    # the state-product check runs on integer multiples of the kernel
    # states; a kernel vector of (3, 0), which has Fraction entries, moved
    # off the kernel by 1/3 at one coordinate must still be caught
    def perturbed(mat):
        (vec,) = linalg.kernel_basis(mat)
        j = next(j for j, x in enumerate(vec) if isinstance(x, Fraction))
        vec[j] += Fraction(1, 3)
        return [vec]

    monkeypatch.setattr(sl2, "kernel_basis", perturbed)
    with pytest.raises(ArithmeticError,
                       match=r"state-product route disagrees at \(3, 0\)"):
        invariants(3, 0)


def test_state_product_check_memo_stays_small(empty_memo):
    # the check of every block through weight 7 from a fresh product
    # memo stores 5,749 products, 1,577 of them zero
    for k in range(8):
        for l in charge_range(k):
            invariants(k, l)
    assert sum(map(len, freefield._prod_rows.values())) < 10000
