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

The action of one mode on a monomial (_apply_mode_mono) is the one
place a mode is inserted with its Koszul sign.  A mode sends a normally
ordered monomial to zero or to one signed monomial: a creation mode is
inserted (or kills a monomial that holds it, if odd), and an
annihilation mode removes one copy of its partner mode, so the action
returns that single term, or None, and finds it by binary search on the
sorted tuple.  apply_mode, apply_word, normalize and translate are built
on it and keep no memo; apply_word sends each monomial of a state
through the whole word on its own.  Outside the product engine's own
tables on ids, mode action is memoised in two places: the per-monomial
image memo of each chiral.modeops.ModeOperator, and chiral.geometry's
memo of the n1 image of a monomial (_n1_image), which combines the
images of two such operators with one beta_(0).  sadd is the one sparse add;
it also does chiral.linalg's row updates over Q.

The n-th product of two monomials is computed by the commutator formula
(Kac, Vertex Algebras for Beginners) and memoised.  For all p and n,

    [x_(p), a_(n)] = sum_{j>=0} C(p, j) (x_(j) a)_(p+n-j),

so peeling the leftmost mode of b = x_(p) c (p <= -1) gives

    a_(n) b = eps x_(p) (a_(n) c) - eps sum_j C(p, j) (x_(j) a)_(p+n-j) c,

eps = (-1)^(|a||x|).  x_(j) with j >= 0 acts on a only by contracting a
mode of a, so the sum runs over those contractions (see
_ProdRow.__missing__).  Each step shortens b, and each term of the sum
shortens a as well.  The recursion has one base case, the vacuum
column b = |0>: the divided translation a_(n)|0> = T^k a / k! for
k = -1 - n >= 0, and 0 for n >= 0.  It needs no other: for a = |0> the
sum is empty, and for a one-mode a = u_(m)|0> each x_(j) a is a
multiple of |0>.

Inside that engine, and in the engine sweep of chiral.checks,
monomials are interned: each distinct monomial gets a small int id on
first sight.  The memo _prod_rows holds one row per operator a_(n),
keyed by (id of a, n); a row maps the id of b to a_(n) b as a tuple of
(id, int) pairs with distinct ids and nonzero coefficients.  The memo,
its rows, the insertion rows of the creation modes and the contraction
rows of the annihilation modes are the engine's three tables, and each
fills its own misses (Memo, _ProdRow): _prod_rows[ia, n] makes the row
of a_(n) on first use, and row[ib] computes a missing product and
keeps it, unless the product lies below weight 0, where it is zero and
answered without being stored.  So a sweep that applies one operator
to many states fetches its row once (_prod_rows[ia, n]) and reads
every product as row[ib], and the engine itself reads its inner
products the same way.  Every stored pair is the one object _pairs
holds for its value, so products that share a term share its pair.
Everything public (nth_product, wick, apply_mode, apply_word,
translate, state_str) takes and returns monomial-keyed states; the ids
never leave this module and the engine sweep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from math import comb

BETA, GAMMA, B, C = 0, 1, 2, 3

GEN_NAMES = ("beta", "gamma", "b", "c")
_GENS = frozenset((BETA, GAMMA, B, C))
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

# generator -> the generator its annihilation modes contract with: x_(n),
# n >= 0, acts on a monomial only through a mode PARTNER[x]_(-1-n) in it.
PARTNER = {gen: other for gen, other in _CONTRACT}

VACUUM_MON = ()
VACUUM = {VACUUM_MON: 1}


def check_int(x, what):
    """Raise TypeError unless x is an int and not a bool (a bool would
    hash and compare equal to 0 or 1); what names the values in the
    message, e.g. "weights" gives "weights are int, not float"."""
    if type(x) is not int:
        raise TypeError("%s are int, not %s" % (what, type(x).__name__))


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
    the Koszul sign from permuting odd modes past each other.  The modes
    act on the vacuum right to left through apply_mode.  Every mode is
    checked before any is applied, as check_monomial checks a mode: a
    generator or an index that is not an int raises TypeError, an
    unknown generator or an index above -1 ValueError.
    """
    for mode in modes:
        check_monomial((mode,))
    state = {VACUUM_MON: coeff} if coeff else {}
    for gen, idx in reversed(modes):
        state = apply_mode(gen, idx, state)
    return state


def _apply_mode_mono(gen, idx, mon):
    """x_(idx) applied to one normally ordered monomial: the single term
    (monomial, int) it gives, or None if it gives zero.

    Both cases are found by binary search on the sorted tuple.  A
    creation mode is inserted at bisect_left(mon, (gen, idx)); an odd one
    that is already there gives zero.  An annihilation mode acts only by
    contracting its partner mode PARTNER[gen]_(-1-idx), which it removes
    once, with the bracket constant times the partner's multiplicity.
    Odd modes sort after beta and gamma, so an odd mode moved to or from
    position p passes the p - bisect_left(mon, (B,)) odd modes before
    it, which gives the Koszul sign."""
    odd = PARITY[gen]
    if idx <= -1:
        key = (gen, idx)
        pos = bisect_left(mon, key)
        if odd and pos < len(mon) and mon[pos] == key:
            return None
        out, coeff = mon[:pos] + (key,) + mon[pos:], 1
    else:
        key = (PARTNER[gen], -1 - idx)
        pos = bisect_left(mon, key)
        if pos == len(mon) or mon[pos] != key:
            return None
        out, coeff = mon[:pos] + mon[pos + 1:], _CONTRACT[gen, key[0]]
        if not odd:
            coeff *= bisect_right(mon, key, pos) - pos
    if odd and (pos - bisect_left(mon, (B,))) & 1:
        coeff = -coeff
    return out, coeff


def apply_mode(gen, idx, state):
    """Action of the generator mode x_(idx) on a state of normally
    ordered monomials; normalize is the entry for raw mode sequences."""
    return apply_word(((gen, idx),), state)


def apply_word(word, state):
    """Apply a tuple of (gen, idx) modes right to left to a state of
    normally ordered monomials; normalize is the entry for raw mode
    sequences.  Each monomial goes through the whole word on its own,
    as every mode sends it to zero or to one signed monomial."""
    out = {}
    for mon, coeff in state.items():
        for gen, idx in reversed(word):
            term = _apply_mode_mono(gen, idx, mon)
            if term is None:
                break
            mon, sign = term
            coeff *= sign
        else:
            sadd(out, {mon: coeff})
    return out


def binomial(m, j):
    """C(m, j) for any integer m, j >= 0; for m < 0 it is
    (-1)^j C(j - m - 1, j)."""
    if j < 0:
        return 0
    if m >= 0:
        return comb(m, j)
    c = comb(j - m - 1, j)
    return -c if j & 1 else c


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


# Interned monomials.  The product engine and the engine sweep work on
# small int ids rather than on monomial tuples: CPython does not cache
# tuple hashes, so every memo lookup keyed by nested (gen, idx) tuples
# rehashes them, while a key of three ints hashes at once.  An id is
# assigned on first sight and never changes; per-id data sits in lists.
_ids = {}        # monomial -> id
_mons = []       # id -> monomial
_heads = []      # id -> (gen, idx, id of the other modes), None for vacuum
_weights = []    # id -> conformal weight
_parities = []   # id -> parity


def check_monomial(mon, stop=None):
    """Raise ValueError unless mon is normally ordered: creation modes of
    the four generators, sorted, with no odd mode repeated; a generator
    or an index that is not exactly an int (a bool or a float too)
    raises TypeError, through check_int.  With stop, only mon[:stop] is
    checked."""
    prev = None
    for mode in mon[:stop]:
        gen, idx = mode
        if type(gen) is not int or type(idx) is not int:
            check_int(gen, "generators")
            check_int(idx, "mode indices")
        if gen not in _GENS or idx > -1:
            raise ValueError("not a creation mode: %r in %r" % (mode, mon))
        if prev is not None and (prev > mode or prev == mode and PARITY[gen]):
            raise ValueError("not a normally ordered monomial: %r" % (mon,))
        prev = mode


def _intern(mon):
    """The id of a monomial, assigning one (and one to each of its
    tails) on first sight.  A monomial seen for the first time must be
    normally ordered; its first two modes are checked here, and
    interning its tail checks the rest."""
    i = _ids.get(mon)
    if i is None:
        head, weight, parity = None, 0, 0
        if mon:
            check_monomial(mon, 2)
            gen, idx = mon[0]
            tail = _intern(mon[1:])
            head = (gen, idx, tail)
            weight = _weights[tail] + FIELD_WEIGHT[gen] - idx - 1
            parity = _parities[tail] ^ PARITY[gen]
        i = len(_mons)
        _ids[mon] = i
        _mons.append(mon)
        _heads.append(head)
        _weights.append(weight)
        _parities.append(parity)
    return i


def _state(prod):
    """(id, coeff) pairs, e.g. a memoised product, as a monomial-keyed
    state."""
    return {_mons[i]: c for i, c in prod}


class Memo(dict):
    """A memo table that fills its own misses: reading a key it lacks
    computes fill(key), keeps the value under the key and returns it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _insert(gen, idx, i):
    """x_(idx) |i> for a creation mode x_(idx), as (sign, id), or
    (None, None) if an odd mode repeats."""
    term = _apply_mode_mono(gen, idx, _mons[i])
    if term is None:
        return None, None
    mon, sign = term
    return sign, _intern(mon)


# (gen, idx) -> the insertion row of x_(idx), {id: _insert(gen, idx, id)}
_insert_rows = Memo(lambda mode: Memo(partial(_insert, *mode)))


def _contract(gen, i):
    """Every nonzero x_(j) |i> with j >= 0, as (j, id, coeff) triples.
    x_(j) only acts by contracting a mode y_(-1-j) of the monomial."""
    mon = _mons[i]
    partner = PARTNER[gen]
    js = sorted({-1 - idx for g, idx in mon if g == partner})
    return tuple((j, _intern(m), c) for j in js
                 for m, c in (_apply_mode_mono(gen, j, mon),))


# gen -> the contraction row of its annihilation modes, {id: _contract(gen, id)}
_contractions = Memo(lambda gen: Memo(partial(_contract, gen)))


class _ProdRow(dict):
    """The memo row of the operator a_(n), for the monomial a with id ia:
    {id of b: a_(n) b}.  Reading a product the row lacks computes it."""

    __slots__ = ("ia", "n")

    def __init__(self, key):
        self.ia, self.n = key

    def __missing__(self, ib):
        """a_(n) b for the monomial b with id ib, as a tuple of (id, int)
        pairs with distinct ids and nonzero coefficients, each pair the
        one _pairs holds for its value.  It is kept under ib, unless it
        lies below weight 0: then it is zero, answered as _EMPTY and
        never stored.

        A b = |0> is the one base case, the vacuum column:
        a_(n)|0> = T^k a / k! for k = -1 - n >= 0, by k steps of
        translate, each divided by its step number (T^i a / i! has int
        coefficients); 0 for n >= 0.

        Otherwise the commutator formula of the module docstring peels
        the leftmost mode x_(p) of b = x_(p) c, eps = (-1)^(|a||x|):

        a_(n) b = eps x_(p) (a_(n) c)
                  - eps sum_j (-1)^j C(j-p-1, j) (x_(j) a)_(p+n-j) c

        where (-1)^j C(j-p-1, j) = C(p, j), as p <= -1.  a_(n) c is read
        from this row, unless it lies below weight 0, and x_(p) is
        inserted into each of its monomials through the insertion row of
        x_(p).  The sum runs over the contractions (j, k, c') of x with a,
        x_(j) a = c' |k>, and reads each (mon k)_(p+n-j) c from the memo
        row of that operator; every term of the sum has the weight of
        a_(n) b, so none is below weight 0.
        """
        ia, n = self.ia, self.n
        if _weights[ia] + _weights[ib] - n - 1 < 0:
            return _EMPTY
        head = _heads[ib]
        if head is None:
            # b = |0>: a_(n)|0> = T^k a / k! for k = -1 - n >= 0, else 0
            state = {_mons[ia]: 1} if n < 0 else {}
            for i in range(1, -n):
                state = {mon: c // i for mon, c in translate(state).items()}
            terms = [(_intern(mon), c) for mon, c in state.items()]
        else:
            gx, p, ic = head
            eps = -1 if _parities[ia] & PARITY[gx] else 1
            out = {}
            get = out.get
            # eps x_(p) (a_(n) c), unless a_(n) c lies below weight 0
            if _weights[ia] + _weights[ic] - n - 1 >= 0:
                irow = _insert_rows[gx, p]
                for k, c in self[ic]:
                    sign, k2 = irow[k]
                    if sign is not None:
                        out[k2] = get(k2, 0) + eps * sign * c
            # -eps C(p, j) (x_(j) a)_(p+n-j) c, C(p, j) = (-1)^j C(j-p-1, j)
            for j, k, c in _contractions[gx][ia]:
                cj = comb(j - p - 1, j) * c * (eps if j & 1 else -eps)
                for k2, c2 in _prod_rows[k, p + n - j][ic]:
                    out[k2] = get(k2, 0) + cj * c2
            terms = out.items()
        pair = _pairs.setdefault
        out = self[ib] = tuple([pair(kc, kc) for kc in terms if kc[1]])
        return out


_prod_rows = Memo(_ProdRow)   # (id of a, n) -> the memo row of a_(n)
_pairs = {}        # (id, coeff) -> the one stored pair equal to it
_EMPTY = ()        # every zero product


def _prod_mono(ia, n, ib):
    """The n-th product a_(n) b of the monomials with ids ia and ib, read
    from the memo row of a_(n)."""
    return _prod_rows[ia, n][ib]


def nth_product(a, n, b):
    """Bilinear extension of the n-th product to states.  An n that is
    not an int raises TypeError."""
    check_int(n, "product indices")
    out = {}
    get = out.get
    bids = [(_intern(bmon), cb) for bmon, cb in b.items()]
    for amon, ca in a.items():
        row = _prod_rows[_intern(amon), n]
        for ib, cb in bids:
            cab = ca * cb
            for k, c in row[ib]:
                out[k] = get(k, 0) + cab * c
    return {_mons[k]: c for k, c in out.items() if c}


def wick(a, b):
    """Normally ordered product :ab: = a_(-1) b."""
    return nth_product(a, -1, b)


def translate(state):
    """The translation operator: derivation with x_(n) -> -n x_(n-1).

    On a monomial it shifts one mode at a time: the mode x_(n) at
    position p is taken out, with the Koszul sign of moving it past the
    modes before it, and x_(n-1) is put back with _apply_mode_mono."""
    out = {}
    for mon, coeff in state.items():
        odd_before = 0
        for p, (g, n) in enumerate(mon):
            c = coeff * (-n)
            if PARITY[g]:
                if odd_before & 1:
                    c = -c
                odd_before += 1
            term = _apply_mode_mono(g, n - 1, mon[:p] + mon[p + 1:])
            if term is not None:
                shifted, sign = term
                sadd(out, {shifted: sign}, c)
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
