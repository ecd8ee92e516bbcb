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
place a mode is inserted with its Koszul sign; apply_mode, apply_word,
normalize and translate are built on it and keep no memo.  Outside the
product engine's own tables on ids, the one memo of mode action is the
per-monomial image memo of each chiral.modeops.ModeOperator.  sadd is
the one sparse add; it also does chiral.linalg's row updates over Q.

The n-th product of two monomials is computed by the iterate formula
(see _ProdRow.__missing__) and memoised.  Two exact shortcuts keep it
off the products Wick's theorem proves zero.  A one-mode operator is
taken in closed form: for a = u_(m)|0> and k = -1 - m,
a_(n) b = (-1)^k C(n, k) u_(n-k) b.  And for t >= 0, r_(t) b is a sum
over nonempty sets of contractions between modes x_(m) of r and y_(p)
of b, each contraction a pole of order -m - p - 1; a set's term reaches
r_(t) b only if its total order exceeds t, and that total is at most
the contraction-degree bound _reach(r, b).  So the iterate formula's
first sum stops at t = _reach(r, b).

Inside that engine, and in the engine sweep of chiral.checks,
monomials are interned: each distinct monomial gets a small int id on
first sight.  The memo _prod_rows holds one row per operator a_(n),
keyed by (id of a, n); a row maps the id of b to a_(n) b as a tuple of
(id, int) pairs with distinct ids and nonzero coefficients.  The memo,
its rows and the insertion rows of the creation modes are tables that
fill their own misses (Memo, _ProdRow): _prod_rows[ia, n] makes the row
of a_(n) on first use, and row[ib] computes a missing product and
keeps it, unless the product lies below weight 0, where it is zero and
answered without being stored.  So a sweep that applies one operator
to many states fetches its row once (_prod_row) and reads every
product as row[ib], and the engine itself reads its inner products
the same way.  Every stored pair is the one object _pairs holds for
its value, so products that share a term share its pair.  The second
sum of the iterate formula is taken straight from the contractions of
the peeled mode with the modes of b.  Everything public (nth_product,
wick, apply_mode, apply_word, translate, state_str) takes and returns
monomial-keyed states; the ids never leave this module and the engine
sweep.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb, factorial

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
    """Raise TypeError unless x is an int; what names the values in the
    message, e.g. "weights" gives "weights are int, not float"."""
    if not isinstance(x, int):
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
    act on the vacuum right to left through apply_mode.
    """
    for gen, idx in modes:
        if idx > -1:
            raise ValueError("normalize expects creation modes, got index %d" % idx)
    state = {VACUUM_MON: coeff} if coeff else {}
    for gen, idx in reversed(modes):
        state = apply_mode(gen, idx, state)
    return state


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


def apply_mode(gen, idx, state):
    """Action of the generator mode x_(idx) on a state."""
    out = {}
    for mon, coeff in state.items():
        sadd(out, _apply_mode_mono(gen, idx, mon), coeff)
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
    the four generators, sorted, with no odd mode repeated.  With stop,
    only mon[:stop] is checked."""
    prev = None
    for mode in mon[:stop]:
        gen, idx = mode
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
        head = None
        if mon:
            check_monomial(mon, 2)
            gen, idx = mon[0]
            head = (gen, idx, _intern(mon[1:]))
        i = len(_mons)
        _ids[mon] = i
        _mons.append(mon)
        _heads.append(head)
        _weights.append(mon_weight(mon))
        _parities.append(mon_parity(mon))
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
    hit = None, None
    for mon, sign in _apply_mode_mono(gen, idx, _mons[i]).items():
        hit = sign, _intern(mon)
    return hit


# (gen, idx) -> the insertion row of x_(idx), {id: _insert(gen, idx, id)}
_insert_rows = Memo(lambda mode: Memo(partial(_insert, *mode)))


@cache
def _contractions(gen, i):
    """Every nonzero x_(j) |i> with j >= 0, as (j, id, coeff) triples.
    x_(j) only acts by contracting a mode y_(-1-j) of the monomial."""
    mon = _mons[i]
    partner = PARTNER[gen]
    js = sorted({-1 - idx for g, idx in mon if g == partner})
    return tuple((j, _intern(m), c) for j in js
                 for m, c in _apply_mode_mono(gen, j, mon).items())


def _reach(r, b):
    """The contraction-degree bound of the monomials r and b: the sum,
    over the modes u_(m) of r whose partner occurs in b, of -m - p - 1
    for that partner's lowest mode p in b (its first, as b is sorted).
    No set of contractions between r and b has a larger total pole
    order, so r_(t) b = 0 for every t >= 0 with t >= _reach(r, b)."""
    reach = 0
    for g, m in r:
        partner = PARTNER[g]
        for g2, p in b:
            if g2 == partner:
                reach -= m + p + 1
                break
    return reach


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

        A one-mode a = u_(m)|0> takes the closed form of the module
        docstring: one insertion through the insertion row of u_(n-k) if
        n < 0, else the contractions of u_(n-k) with the modes of b (none
        if n < k, where C(n, k) = 0).

        Otherwise the iterate formula peels the leftmost mode u_(m) of
        a = u_(m) r (m <= -1, so every binomial below is nonzero):

        (u_(m) r)_(n) b = sum_j (-1)^j C(m,j) (u_(m-j) (r_(n+j) b)
                          - (-1)^(m+|u||r|) r_(m+n-j) (u_(j) b))

        u_(m-j) is a creation mode, inserted into each monomial of
        r_(n+j) b through the insertion row of u_(m-j).  The first sum
        stops where r_(n+j) b is zero by weight or by the
        contraction-degree bound of the module docstring,
        n + j >= _reach(r, b).  u_(j) with j >= 0 only contracts a mode
        of b, so the second sum runs over those contractions rather than
        over every j.  Both sums read the products of r from their memo
        rows, which compute only their misses; every term of either sum
        has the weight of a_(n) b, so none is below weight 0.
        """
        ia, n = self.ia, self.n
        wb = _weights[ib]
        if _weights[ia] + wb - n - 1 < 0:
            return _EMPTY
        head = _heads[ia]
        if head is None:
            terms = ((ib, 1),) if n == -1 else ()
        elif _heads[head[2]] is None:
            # a = u_(m)|0>, k = -1 - m: a_(n) = (-1)^k C(n, k) u_(n-k), where
            # (-1)^k C(n, k) = C(k-n-1, k) for n < 0 and C(n, k) = 0 for
            # 0 <= n < k, when u_(n-k) has no contraction to make
            gu, m, _ = head
            k = -1 - m
            mode = n - k
            if n < 0:
                sign, k2 = _insert_rows[gu, mode][ib]
                terms = (() if sign is None
                         else ((k2, sign * comb(k - n - 1, k)),))
            else:
                c = -comb(n, k) if k & 1 else comb(n, k)
                terms = [(k2, c * c2) for j, k2, c2 in _contractions(gu, ib)
                         if j == mode]
        else:
            gu, m, rest = head
            rows = _prod_rows
            out = {}
            get = out.get
            # first sum: u_(m-j) (r_(n+j) b); (-1)^j C(m,j) = C(j-m-1, j)
            # for m < 0.  r_(n+j) b is zero below weight 0 and, by Wick's
            # theorem, once n + j >= _reach(r, b)
            for j in range(min(_weights[rest] + wb,
                               _reach(_mons[rest], _mons[ib])) - n):
                inner = rows[rest, n + j][ib]
                if inner:
                    cj = comb(j - m - 1, j)
                    irow = _insert_rows[gu, m - j]
                    for k, c in inner:
                        sign, k2 = irow[k]
                        if sign is not None:
                            out[k2] = get(k2, 0) + sign * cj * c
            # second sum: -(-1)^(m+|u||r|) r_(m+n-j) (u_(j) b)
            sgn = 1 if (m + PARITY[gu] * _parities[rest]) & 1 else -1
            for j, k, c in _contractions(gu, ib):
                inner = rows[rest, m + n - j][k]
                if inner:
                    cj = sgn * comb(j - m - 1, j) * c
                    for k2, c2 in inner:
                        out[k2] = get(k2, 0) + cj * c2
            terms = out.items()
        pair = _pairs.setdefault
        out = self[ib] = tuple([pair(kc, kc) for kc in terms if kc[1]])
        return out


_prod_rows = Memo(_ProdRow)   # (id of a, n) -> the memo row of a_(n)
_pairs = {}        # (id, coeff) -> the one stored pair equal to it
_EMPTY = ()        # every zero product


def _prod_row(ia, n):
    """The live memo row of a_(n) for the monomial with id ia, created on
    first use: row[ib] reads a_(n) b, computing and keeping a miss."""
    return _prod_rows[ia, n]


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
        ia = _intern(amon)
        for ib, cb in bids:
            cab = ca * cb
            for k, c in _prod_mono(ia, n, ib):
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
            sadd(out, _apply_mode_mono(g, n - 1, mon[:p] + mon[p + 1:]), c)
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
