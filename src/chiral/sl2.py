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
On positive-sector monomials Lplus(1) is diagonal with eigenvalue
(#gamma + #c) - (#beta + #b); the invariant space in weight k, charge l
is the kernel of Lplus(2) on the monomials where that count vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .basis import charges, enumerate_basis, enumerate_full
from .freefield import (FIELD_WEIGHT, GAMMA, Q_STATE, B, apply_mode,
                        nth_product, sadd, sscale)
from .linalg import Matrix, kernel_basis
from .modeops import ModeOperator, pair

_L_ACTORS = {}


def _l_actor(i):
    """The state Q_(0) gamma_(-1)^i b_(-1) vac whose zero mode is L(i)."""
    st = _L_ACTORS.get(i)
    if st is None:
        gen = {((GAMMA, -1),) * i + ((B, -1),): 1}
        st = nth_product(Q_STATE, 0, gen)
        _L_ACTORS[i] = st
    return st


def sl2_L(i, state):
    if not 0 <= i <= 2:
        raise ValueError("sl2 has generators for i in {0, 1, 2}")
    return nth_product(_l_actor(i), 0, state)


_LPLUS_OPS = {
    0: ModeOperator([(1, "beta", 0)]),
    1: ModeOperator([(1, pair("gtilde", "beta"), 0),
                     (-1, pair("b", "c"), 0)]),
    2: ModeOperator([(1, pair(pair("gtilde", "gtilde"), "beta"), 0),
                     (-2, pair(pair("gtilde", "b"), "c"), 0)]),
}


def sl2_Lplus(i, state):
    if not 0 <= i <= 2:
        raise ValueError("sl2 has generators for i in {0, 1, 2}")
    return _LPLUS_OPS[i].apply(state)


def gamma_shift(state, d=1):
    """Multiply by gamma_(-1)^d (creation)."""
    for _ in range(d):
        state = apply_mode(GAMMA, -1, state)
    return state


def _l_from_lplus(i, state):
    out = sl2_Lplus(i, state)
    if i >= 1:
        sadd(out, gamma_shift(sl2_Lplus(i - 1, state)), i)
    if i == 2:
        sadd(out, gamma_shift(sl2_Lplus(0, state), 2))
    return out


def verify_relationL(kmax, dmax=2):
    """Check L(i) against the gamma-shifted Lplus combination on every
    extended basis state with weight <= kmax.  Returns failures."""
    failures = []
    for k in range(kmax + 1):
        for l in charges(k):
            for mon in enumerate_full(k, l, dmax):
                st = {mon: 1}
                for i in range(3):
                    if sl2_L(i, st) != _l_from_lplus(i, st):
                        failures.append((i, k, l, mon))
    return failures


def verify_sl2_bracket(kmax, dmax=2):
    """Check [L(i), L(j)] = (j - i) L(i+j-1) on the same family."""
    failures = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    for k in range(kmax + 1):
        for l in charges(k):
            for mon in enumerate_full(k, l, dmax):
                st = {mon: 1}
                for i, j in pairs:
                    lhs = sl2_L(i, sl2_L(j, st))
                    sadd(lhs, sl2_L(j, sl2_L(i, st)), -1)
                    rhs = sscale(sl2_L(i + j - 1, st), j - i)
                    if lhs != rhs:
                        failures.append((i, j, k, l, mon))
    return failures


def diagonal_monomials(mons):
    """Monomials with #beta + #b == #gamma + #c, the Lplus(1) kernel: beta
    and b have field weight 1, gamma and c field weight 0."""
    return tuple(mon for mon in mons
                 if 2 * sum(FIELD_WEIGHT[g] for g, _ in mon) == len(mon))


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


@dataclass
class InvariantSpace:
    k: int
    l: int
    dim: int
    states: tuple


def invariants(k, l, check=True):
    """Basis of the invariant subspace in weight k, charge l.

    The basis is the kernel of Lplus(2) on the diagonal monomials.  With
    check, every basis state must also be killed by L(0), L(1) and L(2)
    of the state-product route.  L(i) is linear, so the check runs on
    each state's primitive integer multiple (the state times the lcm of
    its coefficient denominators, primitive because the state has a
    coefficient 1) and sees only int coefficients; the returned states
    keep their int/Fraction coefficients.
    """
    block = diagonal_monomials(enumerate_basis(k, l))
    if not block:
        return InvariantSpace(k, l, 0, ())
    images = [sl2_Lplus(2, {m: 1}) for m in block]
    states = kernel_states(block, images)
    if check:
        for st in states:
            den = lcm(*(c.denominator for c in st.values()))
            scaled = {mon: c.numerator * (den // c.denominator)
                      for mon, c in st.items()}
            for i in range(3):
                if sl2_L(i, scaled):
                    raise ArithmeticError(
                        "state-product route disagrees at (%d, %d)" % (k, l))
    return InvariantSpace(k, l, dim=len(states), states=tuple(states))


def charge_range(k):
    """All l with a nonempty positive-sector basis at weight k."""
    return [l for l in charges(k) if enumerate_basis(k, l)]


def character(kmax):
    """{(k, l): dim} of the invariant subspace, nonzero entries only."""
    table = {}
    for k in range(kmax + 1):
        for l in charge_range(k):
            inv = invariants(k, l)
            if inv.dim:
                table[(k, l)] = inv.dim
    return table
