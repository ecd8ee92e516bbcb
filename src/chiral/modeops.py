"""Truncated mode expansions of normally ordered field products.

A field expression is a generator symbol or a nested pair :PQ:; the mode
of a pair is

    :PQ:_(n) = sum_{m<=-1} P_(m) Q_(n-m-1)
             + (-1)^{|P||Q|} sum_{m>=0} Q_(n-m-1) P_(m)

The sums are materialized as explicit words of generator modes, keeping
exactly the terms that can act nonzero on some state of weight <= K:
an annihilation mode x_(n) kills every state of weight < n + 1 -
fieldweight(x), and weights are never negative.  The symbol "gtilde" is
the gamma family with the (-1) mode removed.

A ModeOperator does each piece of work once.  Per weight bound it
compiles its terms a single time, coefficients multiplied out and words
grouped by their rightmost mode, which acts first; a group whose first
mode kills a monomial is skipped whole.  It memoises the image of every
monomial it meets, computed with the monomial's own weight as the bound.
That is exact: the words at a bound K are exactly those that can act
nonzero on some state of weight <= K, so a larger bound only adds words
that kill the monomial.  apply sums the memoised images into a fresh
dict, which callers may change in place.

This route shares only the elementary mode action with the state-product
engine; products of states are never used here.  Every mode action goes
through freefield.apply_word, a first mode as a one-mode word.
"""

from __future__ import annotations

from fractions import Fraction

from .freefield import (BETA, GAMMA, B, C, FIELD_WEIGHT, PARITY,
                        apply_word, mon_weight, sadd)

# symbol -> (generator, field weight, parity, excluded index or None)
ATOMS = {
    "beta": (BETA, 1, 0, None),
    "gamma": (GAMMA, 0, 0, None),
    "gtilde": (GAMMA, 0, 0, -1),
    "b": (B, 1, 1, None),
    "c": (C, 0, 1, None),
}


def pair(left, right):
    return ("pair", left, right)


def expr_weight(expr) -> int:
    if isinstance(expr, str):
        return ATOMS[expr][1]
    return expr_weight(expr[1]) + expr_weight(expr[2])


def expr_parity(expr) -> int:
    if isinstance(expr, str):
        return ATOMS[expr][2]
    return expr_parity(expr[1]) ^ expr_parity(expr[2])


_words_cache = {}


def mode_words(expr, n, bound):
    """All (coefficient, word) terms of expr_(n) that can act nonzero on a
    state of weight <= bound.  Words apply right to left."""
    key = (expr, n, bound)
    hit = _words_cache.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, str):
        gen, w, _, excl = ATOMS[expr]
        if n == excl or (n >= 0 and n > bound + w - 1):
            out = ()
        else:
            out = ((1, ((gen, n),)),)
        _words_cache[key] = out
        return out
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
        qw = mode_words(q, j, bound)
        if not qw:
            continue
        pw = mode_words(p, m, inner_bound)
        for cp, wordp in pw:
            for cq, wordq in qw:
                out.append((cp * cq, wordp + wordq))
    # annihilation part of P to the right
    for m in range(0, bound + wp):
        pw = mode_words(p, m, bound)
        if not pw:
            continue
        inner_bound = bound + wp - m - 1
        qw = mode_words(q, n - m - 1, inner_bound)
        for cq, wordq in qw:
            for cp, wordp in pw:
                out.append((sign * cp * cq, wordq + wordp))
    out = tuple(out)
    _words_cache[key] = out
    return out


class ModeOperator:
    """A finite linear combination of field-expression modes.

    pieces is a list of (coefficient, expr, n).  materialize(bound) lists
    the (coefficient, word) terms for states of weight <= bound.  The
    instance keeps those terms compiled per bound and the image of every
    monomial it has met; both only grow.
    """

    def __init__(self, pieces):
        self.pieces = [(c if isinstance(c, (int, Fraction)) else Fraction(c), e, n)
                       for c, e, n in pieces]
        self._compiled = {}  # bound -> ((first mode, ((coeff, tail), ...)), ...)
        self._images = {}    # monomial -> {monomial: coeff}

    def materialize(self, bound):
        terms = []
        for coeff, expr, n in self.pieces:
            for c, word in mode_words(expr, n, bound):
                terms.append((coeff * c, word))
        return terms

    def _compile(self, bound):
        groups = {}
        for coeff, word in self.materialize(bound):
            groups.setdefault(word[-1], []).append((coeff, word[:-1]))
        compiled = tuple((first, tuple(tails)) for first, tails in groups.items())
        self._compiled[bound] = compiled
        return compiled

    def _image(self, mon):
        bound = mon_weight(mon)
        groups = self._compiled.get(bound)
        if groups is None:
            groups = self._compile(bound)
        out = {}
        for first, tails in groups:
            head = apply_word((first,), {mon: 1})
            if not head:
                continue
            for coeff, tail in tails:
                sadd(out, apply_word(tail, head), coeff)
        self._images[mon] = out
        return out

    def apply(self, state):
        out = {}
        images = self._images
        for mon, c in state.items():
            img = images.get(mon)
            if img is None:
                img = self._image(mon)
            sadd(out, img, c)
        return out
