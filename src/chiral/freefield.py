"""The rank-one bc-beta-gamma system as an exact mode algebra.

Generators beta, gamma (even) and b, c (odd), with the only nonzero
brackets between modes

    [beta_(m), gamma_(n)] = delta_{m+n+1,0}
    {b_(m), c_(n)}        = delta_{m+n+1,0}

States are finite linear combinations of normally ordered creation
monomials applied to the vacuum.  A monomial is a tuple of (generator,
index) pairs with index <= -1, sorted by generator then index; odd modes
square to zero.  Coefficients are exact (int, Fraction, or anything with
compatible arithmetic); mode brackets and binomials are integers, so the
engine itself never leaves the integers.

Conformal weight of a mode x_(n) is fieldweight(x) - n - 1 where beta, b
have field weight 1 and gamma, c have field weight 0; charge counts
#c - #b.  Weights of creation modes are >= 0, which is what makes every
mode sum below finite.
"""

from __future__ import annotations

from math import comb, factorial

BETA, GAMMA, B, C = 0, 1, 2, 3

GEN_NAMES = ("beta", "gamma", "b", "c")
PARITY = (0, 0, 1, 1)
FIELD_WEIGHT = (1, 0, 1, 0)

# (annihilating generator, passed generator) -> bracket constant, firing
# when the indices m, n satisfy m + n + 1 == 0.
_CONTRACT = {
    (BETA, GAMMA): 1,
    (GAMMA, BETA): -1,
    (B, C): 1,
    (C, B): 1,
}

VACUUM_MON = ()
VACUUM = {VACUUM_MON: 1}


def mon_weight(mon) -> int:
    return sum(FIELD_WEIGHT[g] - n - 1 for g, n in mon)


def mon_charge(mon) -> int:
    return sum((g == C) - (g == B) for g, n in mon)


def mon_parity(mon) -> int:
    return sum(PARITY[g] for g, n in mon) & 1


def weight_charge(state):
    """(weight, charge) of a grading-homogeneous state, else None."""
    grades = {(mon_weight(m), mon_charge(m)) for m in state}
    if len(grades) == 1:
        return grades.pop()
    return None


def normalize(modes, coeff=1):
    """Canonically order a raw creation-mode sequence.

    Returns a state: empty if an odd mode repeats, else one monomial with
    the Koszul sign from permuting odd modes past each other.
    """
    ordered = []
    sign = 1
    for gen, idx in modes:
        if idx > -1:
            raise ValueError("normalize expects creation modes, got index %d" % idx)
        key = (gen, idx)
        pos = len(ordered)
        crossings = 0
        while pos > 0 and ordered[pos - 1] > key:
            pos -= 1
            crossings += PARITY[ordered[pos][0]]
        if PARITY[gen]:
            if pos > 0 and ordered[pos - 1] == key:
                return {}
            if crossings & 1:
                sign = -sign
        ordered.insert(pos, key)
    return {tuple(ordered): coeff * sign} if coeff else {}


def _apply_mode_mono(gen, idx, mon):
    """x_(idx) applied to a single monomial, as a {monomial: int} dict."""
    if idx <= -1:
        key = (gen, idx)
        pos = 0
        crossings = 0
        for k in mon:
            if k < key:
                pos += 1
                crossings += PARITY[k[0]]
            else:
                break
        if PARITY[gen]:
            if pos < len(mon) and mon[pos] == key:
                return {}
            sign = -1 if crossings & 1 else 1
        else:
            sign = 1
        return {mon[:pos] + ((gen, idx),) + mon[pos:]: sign}
    # annihilation: walk right, contracting as we go
    out = {}
    sign = 1
    odd = PARITY[gen]
    for p, (g2, i2) in enumerate(mon):
        delta = _CONTRACT.get((gen, g2))
        if delta is not None and idx + i2 + 1 == 0:
            rest = mon[:p] + mon[p + 1:]
            out[rest] = out.get(rest, 0) + sign * delta
        if odd and PARITY[g2]:
            sign = -sign
    return {m: c for m, c in out.items() if c}


_apply_cache = {}


def apply_mode(gen, idx, state):
    """Action of the generator mode x_(idx) on a state."""
    out = {}
    for mon, coeff in state.items():
        key = (gen, idx, mon)
        img = _apply_cache.get(key)
        if img is None:
            img = _apply_mode_mono(gen, idx, mon)
            _apply_cache[key] = img
        for m, c in img.items():
            v = out.get(m, 0) + coeff * c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def apply_word(word, state):
    """Apply a tuple of (gen, idx) modes right to left."""
    for gen, idx in reversed(word):
        if not state:
            return {}
        state = apply_mode(gen, idx, state)
    return state


def binomial(m, j):
    """C(m, j) for any integer m, j >= 0, via the falling factorial."""
    if j < 0:
        return 0
    if m >= 0:
        return comb(m, j)
    num = 1
    for t in range(j):
        num *= m - t
    return num // factorial(j)


def sadd(acc, state, coeff=1):
    """acc += coeff * state, in place; zero entries are dropped."""
    if not coeff:
        return acc
    for mon, c in state.items():
        v = acc.get(mon, 0) + coeff * c
        if v:
            acc[mon] = v
        elif mon in acc:
            del acc[mon]
    return acc


def sscale(state, coeff):
    if not coeff:
        return {}
    return {m: coeff * c for m, c in state.items()}


def ssub(a, b):
    out = dict(a)
    return sadd(out, b, -1)


_prod_cache = {}


def _prod_mono(amon, n, bmon):
    """The n-th product a_(n) b for single monomials, via the iterate
    formula peeling the leftmost mode of a:

    (u_(m) v)_(n) = sum_j (-1)^j C(m,j) (u_(m-j) v_(n+j)
                    - (-1)^(m+|u||v|) v_(m+n-j) u_(j))
    """
    key = (amon, n, bmon)
    hit = _prod_cache.get(key)
    if hit is not None:
        return hit
    if not amon:
        out = {bmon: 1} if n == -1 else {}
        _prod_cache[key] = out
        return out
    (gu, m), rest = amon[0], amon[1:]
    wu = FIELD_WEIGHT[gu]
    wrest = mon_weight(rest)
    wb = mon_weight(bmon)
    out = {}
    # first sum: u_(m-j) (rest_(n+j) b)
    j1max = wrest + wb - n - 1
    if m >= 0:
        j1max = min(j1max, m)
    for j in range(0, j1max + 1):
        inner = _prod_mono(rest, n + j, bmon)
        if not inner:
            continue
        cj = binomial(m, j)
        if not cj:
            continue
        if j & 1:
            cj = -cj
        sadd(out, apply_mode(gu, m - j, inner), cj)
    # second sum: -(-1)^(m+|u||rest|) rest_(m+n-j) (u_(j) b)
    base = -1 if (m + PARITY[gu] * mon_parity(rest)) & 1 else 1
    j2max = wu + wb - 1
    if m >= 0:
        j2max = min(j2max, m)
    for j in range(0, j2max + 1):
        ub = _apply_mode_mono(gu, j, bmon)
        if not ub:
            continue
        cj = binomial(m, j)
        if not cj:
            continue
        if j & 1:
            cj = -cj
        for mon2, c2 in ub.items():
            inner = _prod_mono(rest, m + n - j, mon2)
            if inner:
                sadd(out, inner, -base * cj * c2)
    out = {mo: c for mo, c in out.items() if c}
    _prod_cache[key] = out
    return out


def nth_product(a, n, b):
    """Bilinear extension of the n-th product to states."""
    out = {}
    for amon, ca in a.items():
        for bmon, cb in b.items():
            sadd(out, _prod_mono(amon, n, bmon), ca * cb)
    return out


def wick(a, b):
    """Normally ordered product :ab: = a_(-1) b."""
    return nth_product(a, -1, b)


def translate(state):
    """The translation operator: derivation with x_(n) -> -n x_(n-1)."""
    out = {}
    for mon, coeff in state.items():
        for p, (g, n) in enumerate(mon):
            seq = list(mon)
            seq[p] = (g, n - 1)
            sadd(out, normalize(seq, coeff * (-n)))
    return out


def mon_str(mon) -> str:
    if not mon:
        return "1"
    return " ".join("%s(%d)" % (GEN_NAMES[g], n) for g, n in mon)


def state_str(state) -> str:
    if not state:
        return "0"
    parts = []
    for mon in sorted(state):
        c = state[mon]
        parts.append("(%s) %s" % (c, mon_str(mon)))
    return " + ".join(parts)


# Distinguished states.  L is the conformal vector :beta dgamma: - :b dc:,
# J = -:bc: grades by charge, Q = :beta c:, G = :b dgamma:.
Q_STATE = {((BETA, -1), (C, -1)): 1}
L_STATE = {((BETA, -1), (GAMMA, -2)): 1, ((B, -1), (C, -2)): -1}
J_STATE = {((B, -1), (C, -1)): -1}
G_STATE = {((GAMMA, -2), (B, -1)): 1}
