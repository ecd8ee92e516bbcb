"""The sl2 action on states and its invariant subspace.

Two independent realizations of the vector fields x^i d/dx, i = 0, 1, 2:

* L(i): the zero mode of Q_(0) :gamma^i b:, computed entirely with state
  products in the free-field engine;
* Lplus(i): the zero mode of :gtilde^i beta: - i ::gtilde^{i-1} b: c:,
  computed entirely from truncated mode words.

They differ by gamma_(-1)-shifted lower terms:

    L(0) = Lplus(0)
    L(1) = Lplus(1) + g Lplus(0)
    L(2) = Lplus(2) + 2 g Lplus(1) + g^2 Lplus(0)      (g = gamma_(-1))

so the two joint kernels coincide and consist of gamma_(-1)-free states.
The invariant space in weight k, charge l is the kernel of Lplus(2) on
the s = l block of the positive sector (see invariants).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .basis import (charges, enumerate_basis, enumerate_full, grades,
                    mon_scount)
from .freefield import (GAMMA, Q_STATE, B, apply_mode, binomial, check_int,
                        nth_product, sadd, sscale)
from .linalg import Matrix, integer_multiple, kernel_basis
from .modeops import ModeOperator, pair

@cache
def _l_actor(i):
    """The state Q_(0) gamma_(-1)^i b_(-1) vac whose zero mode is L(i)."""
    return nth_product(Q_STATE, 0, {((GAMMA, -1),) * i + ((B, -1),): 1})


def _check_index(i):
    """Raise TypeError unless i is an int, ValueError unless 0 <= i <= 2."""
    check_int(i, "sl2 generator indices")
    if not 0 <= i <= 2:
        raise ValueError("sl2 has generators for i in {0, 1, 2}")


def sl2_L(i, state):
    _check_index(i)
    return nth_product(_l_actor(i), 0, state)


_LPLUS_OPS = {
    0: ModeOperator([(1, "beta", 0)]),
    1: ModeOperator([(1, pair("gtilde", "beta"), 0),
                     (-1, pair("b", "c"), 0)]),
    2: ModeOperator([(1, pair(pair("gtilde", "gtilde"), "beta"), 0),
                     (-2, pair(pair("gtilde", "b"), "c"), 0)]),
}


def sl2_Lplus(i, state):
    _check_index(i)
    return _LPLUS_OPS[i].apply(state)


def gamma_shift(state, d=1):
    """Multiply by gamma_(-1)^d (creation)."""
    for _ in range(d):
        state = apply_mode(GAMMA, -1, state)
    return state


def _l_from_lplus(i, state):
    """L(i) = sum_j C(i, j) g^j Lplus(i - j), g = gamma_(-1)."""
    out = {}
    for j in range(i + 1):
        sadd(out, gamma_shift(sl2_Lplus(i - j, state), j), binomial(i, j))
    return out


def verify_sl2(kmax, dmax):
    """On every extended basis state with weight <= kmax, check L(i)
    against the gamma-shifted Lplus combination and the brackets
    [L(i), L(j)] = (j - i) L(i+j-1).  Returns the two failure lists,
    (i, k, l, mon) for the relation and (i, j, k, l, mon) for the
    brackets."""
    relation, bracket = [], []
    for k, l in grades(kmax):
        for mon in enumerate_full(k, l, dmax):
            st = {mon: 1}
            img = [sl2_L(i, st) for i in range(3)]
            for i in range(3):
                if img[i] != _l_from_lplus(i, st):
                    relation.append((i, k, l, mon))
            for i, j in ((0, 1), (0, 2), (1, 2)):
                lhs = sl2_L(i, img[j])
                sadd(lhs, sl2_L(j, img[i]), -1)
                if lhs != sscale(img[i + j - 1], j - i):
                    bracket.append((i, j, k, l, mon))
    return relation, bracket


def kernel_states(mons, images):
    """Kernel of the linear map mon -> images[mon] on span(mons), as
    states with int (when integral) or Fraction coefficients."""
    mons = tuple(mons)
    row_mons = sorted({m for img in images for m in img})
    row_of = {m: i for i, m in enumerate(row_mons)}
    entries = {}
    for col, img in enumerate(images):
        for m, coeff in img.items():
            entries[(row_of[m], col)] = coeff
    mat = Matrix(len(row_mons), len(mons), entries)
    return [{mons[j]: v for j, v in enumerate(vec) if v}
            for vec in kernel_basis(mat)]


# the invariant subspace in weight k, charge l: its dimension and a basis
InvariantSpace = namedtuple("InvariantSpace", "k l dim states")


def invariants(k, l):
    """Basis of the invariant subspace in weight k, charge l.

    Lplus(1) acts on a positive-sector monomial as multiplication by
    l - s = (#gamma + #c) - (#beta + #b), so its kernel is the s = l
    block, basis_block(k, l, l).  The basis is the kernel of Lplus(2)
    on that block, and every basis state must also be killed by L(0),
    L(1) and L(2) of the state-product route, else ArithmeticError.
    L(i) is linear, so the check runs on each state's primitive integer
    multiple (linalg.integer_multiple, primitive because the state has a
    coefficient 1) and sees only int coefficients; the returned states
    keep their int/Fraction coefficients.
    """
    # basis_block(k, l, l), read through enumerate_basis, the name
    # perfbench/layertrace.py times in this module
    block = tuple(m for m in enumerate_basis(k, l) if mon_scount(m) == l)
    if not block:
        return InvariantSpace(k, l, 0, ())
    images = [sl2_Lplus(2, {m: 1}) for m in block]
    states = kernel_states(block, images)
    for st in states:
        scaled = integer_multiple(st)
        for i in range(3):
            if sl2_L(i, scaled):
                raise ArithmeticError(
                    "state-product route disagrees at (%d, %d)" % (k, l))
    return InvariantSpace(k, l, dim=len(states), states=tuple(states))


charge_range = charges  # the name perfbench/child.py calls


def character(kmax):
    """{(k, l): dim} of the invariant subspace, nonzero entries only."""
    return {(k, l): dim for k, l in grades(kmax)
            if (dim := invariants(k, l).dim)}
