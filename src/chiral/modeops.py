"""Truncated mode expansions of normally ordered field products.

A field expression is a generator symbol or a nested pair :PQ:; the mode
of a pair is

    :PQ:_(n) = sum_{m<=-1} P_(m) Q_(n-m-1)
             + (-1)^{|P||Q|} sum_{m>=0} Q_(n-m-1) P_(m)

The sums are materialized as explicit words of generator modes, keeping
exactly the terms that can act nonzero on some state of weight <= K:
an annihilation mode x_(n) kills every state of weight < n + 1 -
fieldweight(x), and weights are never negative.  ATOMS maps each field
symbol to its generator and the one mode it leaves out, if any: the
symbol "gtilde" is the gamma family with the (-1) mode removed.  Field
weights and parities are the generator's, freefield.FIELD_WEIGHT and
PARITY.

A ModeOperator does each piece of work once.  Per weight bound it
compiles its terms a single time into a trie of their words, keyed by
the modes in the order they act, rightmost first: identical words merge
with their coefficients added, and a prefix the words share is applied
once.  A chain of trie nodes with one child each and no coefficient of
their own is merged into one node that holds the chain's word.  Every
mode sends a monomial to zero or to one monomial, so the walk carries
one (monomial, coefficient) pair down the trie.  It skips a branch
whole when its word kills the monomial, and it does not even apply a
word whose first mode is an annihilation mode x_(n), n >= 0, unless the
monomial holds the partner mode PARTNER[x]_(-1-n): x_(n) acts only by
contracting that mode (freefield._apply_mode_mono).

The operator memoises the image of every monomial it meets, computed
with the monomial's own weight as the bound.  That is exact: the words
at a bound K are exactly those that can act nonzero on some state of
weight <= K, so a larger bound only adds words that kill the monomial.
apply sums the memoised images into a fresh dict, which callers may
change in place.  The tries and the images are freefield.Memo tables,
which compute and keep an entry the first time it is read.

This route shares only the elementary mode action with the state-product
engine; products of states are never used here.  Every mode action goes
through freefield.apply_word, one call per merged trie word.
"""

from __future__ import annotations

from fractions import Fraction

from .freefield import (BETA, FIELD_WEIGHT, GAMMA, PARITY, PARTNER, B, C,
                        Memo, apply_word, check_int, check_monomial,
                        mon_weight, sadd)

# symbol -> (generator, excluded index or None); the field weight and
# parity are the generator's
ATOMS = {
    "beta": (BETA, None),
    "gamma": (GAMMA, None),
    "gtilde": (GAMMA, -1),
    "b": (B, None),
    "c": (C, None),
}


def pair(left, right):
    return ("pair", left, right)


def expr_weight(expr) -> int:
    if isinstance(expr, str):
        return FIELD_WEIGHT[ATOMS[expr][0]]
    return expr_weight(expr[1]) + expr_weight(expr[2])


def expr_parity(expr) -> int:
    if isinstance(expr, str):
        return PARITY[ATOMS[expr][0]]
    return expr_parity(expr[1]) ^ expr_parity(expr[2])


def mode_words(expr, n, bound):
    """All (coefficient, word) terms of expr_(n) that can act nonzero on a
    state of weight <= bound.  Words apply right to left.  An n or bound
    that is not an int raises TypeError; an expression that is not an
    ATOMS symbol or a pair of expressions raises ValueError.  The
    arguments are checked here, once; the recursion does not repeat it."""
    check_int(n, "mode indices")
    check_int(bound, "weight bounds")
    _check_expr(expr)
    return _words(expr, n, bound)


def _words(expr, n, bound):
    """mode_words on checked arguments."""
    if isinstance(expr, str):
        gen, excl = ATOMS[expr]
        if n == excl or (n >= 0 and n > bound + FIELD_WEIGHT[gen] - 1):
            return ()
        return ((1, ((gen, n),)),)
    _, p, q = expr
    wp, wq = expr_weight(p), expr_weight(q)
    sign = -1 if expr_parity(p) and expr_parity(q) else 1
    out = []
    # creation part of P to the left
    for m in range(n - bound - wq, 0):
        j = n - m - 1
        inner_bound = bound + wq - j - 1
        if inner_bound < 0:
            continue
        qw = _words(q, j, bound)
        if not qw:
            continue
        pw = _words(p, m, inner_bound)
        for cp, wordp in pw:
            for cq, wordq in qw:
                out.append((cp * cq, wordp + wordq))
    # annihilation part of P to the right
    for m in range(0, bound + wp):
        pw = _words(p, m, bound)
        if not pw:
            continue
        inner_bound = bound + wp - m - 1
        qw = _words(q, n - m - 1, inner_bound)
        for cq, wordq in qw:
            for cp, wordp in pw:
                out.append((sign * cp * cq, wordq + wordp))
    return tuple(out)


def _check_expr(expr):
    """Raise ValueError unless expr is an ATOMS symbol or a pair of
    field expressions."""
    if isinstance(expr, str):
        if expr not in ATOMS:
            raise ValueError("unknown field symbol %r; expected one of %s"
                             % (expr, ", ".join(ATOMS)))
    elif isinstance(expr, tuple) and len(expr) == 3 and expr[0] == "pair":
        _check_expr(expr[1])
        _check_expr(expr[2])
    else:
        raise ValueError("a field expression is a symbol or pair(left, right),"
                         " not %r" % (expr,))


def _trie(terms):
    """The words of (coefficient, word) terms as a trie: a tuple of nodes
    (word, partner, coefficient, children), where word is the run of
    modes that acts next, as a word applied right to left, partner is
    the mode its first mode must find in the monomial if that is an
    annihilation mode (None for a creation mode), coefficient is the
    summed coefficient of the words that end at the node, and children
    is a tuple of nodes, or None at a leaf.  Nodes that contribute
    nothing are dropped, and a chain of nodes with one child each and no
    coefficient of their own is merged into one node."""
    root = {}
    for coeff, word in terms:
        level = root
        for mode in reversed(word[1:]):
            level = level.setdefault(mode, [0, {}])[1]
        level.setdefault(word[0], [0, {}])[0] += coeff
    return _freeze(root)


def _freeze(level):
    nodes = []
    for mode, (coeff, children) in level.items():
        children = _freeze(children) or None
        word = (mode,)
        if not coeff and children is not None and len(children) == 1:
            # the single child's word acts after mode, so it goes left
            (child_word, _, coeff, children), = children
            word = child_word + word
        if coeff or children:
            gen, n = mode
            partner = (PARTNER[gen], -1 - n) if n >= 0 else None
            nodes.append((word, partner, coeff, children))
    return tuple(nodes)


def _walk(nodes, mon, c, out):
    """out += every word of the trie nodes applied to c times the
    monomial mon, with its coefficient.  A word sends a monomial to zero
    or to one monomial, so the walk carries one."""
    for word, partner, coeff, children in nodes:
        if partner is not None and partner not in mon:
            continue
        head = apply_word(word, {mon: c})
        if head:
            sadd(out, head, coeff)
            if children:
                (head_mon, head_c), = head.items()
                _walk(children, head_mon, head_c, out)


class ModeOperator:
    """A finite linear combination of field-expression modes.

    pieces is a list of (coefficient, expr, n), checked when the operator
    is built: a coefficient that is not an int or a Fraction, or an index
    n that is not an int, raises TypeError; an expression that is not an
    ATOMS symbol or a pair of expressions raises ValueError.
    materialize(bound) lists the (coefficient, word) terms for states of
    weight <= bound.  The instance keeps those terms compiled into a trie
    per bound and the image of every monomial it has met; both only
    grow.  apply checks every monomial it is given with
    freefield.check_monomial before it reads the images, so a monomial
    that is not normally ordered raises ValueError, and a float or bool
    index TypeError, whatever the images hold.
    """

    def __init__(self, pieces):
        self.pieces = list(pieces)
        for c, expr, n in self.pieces:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("ModeOperator coefficients are int or Fraction, not %s"
                                % type(c).__name__)
            check_int(n, "ModeOperator mode indices")
            _check_expr(expr)
        # bound -> trie of the words at that bound
        self._tries = Memo(lambda bound: _trie(self.materialize(bound)))
        self._images = Memo(self._image)  # monomial -> {monomial: coeff}

    def materialize(self, bound):
        terms = []
        for coeff, expr, n in self.pieces:
            for c, word in mode_words(expr, n, bound):
                terms.append((coeff * c, word))
        return terms

    def _image(self, mon):
        """The image of one monomial, with its weight as the bound; the
        images table calls it on a miss."""
        out = {}
        _walk(self._tries[mon_weight(mon)], mon, 1, out)
        return out

    def apply(self, state):
        out = {}
        images = self._images
        for mon, c in state.items():
            check_monomial(mon)
            sadd(out, images[mon], c)
        return out
