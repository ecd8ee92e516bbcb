import hashlib
from fractions import Fraction

import pytest

from chiral.basis import enumerate_basis, enumerate_full
from chiral.freefield import (BETA, GAMMA, B, C, G_STATE, L_STATE, nth_product,
                              sadd, sscale, state_str, translate)
from chiral.sl2 import (character, charge_range, diagonal_monomials,
                        gamma_shift, invariants, sl2_L, sl2_Lplus,
                        verify_relationL, verify_sl2_bracket)

# dual-oracle table: dimensions computed independently through the
# state-product operators and the mode-word operators, frozen here
CHARACTER_4 = {
    (0, 0): 1,
    (2, -1): 1, (2, 0): 1,
    (3, -1): 1, (3, 0): 1,
    (4, -1): 3, (4, 0): 3,
}


def test_lplus_one_is_diagonal_counting():
    # eigenvalue (#gamma + #c) - (#beta + #b) on gamma_(-1)-free monomials
    for k in range(4):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                up = sum(1 for g, _ in mon if g in (GAMMA, C))
                down = sum(1 for g, _ in mon if g in (BETA, B))
                assert sl2_Lplus(1, {mon: 1}) == sscale({mon: 1}, up - down)


def test_lplus_zero_is_beta_zero_mode():
    assert sl2_Lplus(0, {((GAMMA, -1),): 1}) == {(): 1}
    assert sl2_Lplus(0, {((BETA, -1),): 1}) == {}


def test_relation_between_routes():
    assert verify_relationL(2, dmax=2) == []


def test_bracket_relations():
    assert verify_sl2_bracket(2, dmax=2) == []


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        sl2_L(3, {(): 1})
    with pytest.raises(ValueError):
        sl2_Lplus(-1, {(): 1})


def test_gamma_shift():
    st = {((BETA, -1),): 1}
    got = gamma_shift(st, 2)
    assert got == {((BETA, -1), (GAMMA, -1), (GAMMA, -1)): 1}


def test_character_table_fixture():
    assert character(4, check=True) == CHARACTER_4


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
    mons = diagonal_monomials(enumerate_basis(2, 0))
    for mon in mons:
        nb = sum(1 for g, _ in mon if g in (BETA, B))
        nc = sum(1 for g, _ in mon if g in (GAMMA, C))
        assert nb == nc
    assert set(mons) <= set(enumerate_basis(2, 0))


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
