"""Enumeration of the graded monomial bases.

The positive sector is spanned by monomials in beta_(n) (n <= -1),
gamma_(n) (n <= -2), b_(n) (n <= -1, distinct) and c_(n) (n <= -1,
distinct); gamma_(-1) never appears.  Weight contributions per mode are
beta_(-n), b_(-n) -> n and gamma_(-n), c_(-n) -> n - 1, so every graded
piece is finite.  s counts #beta - #gamma.

Each weight is enumerated once, by a depth-first walk over the creation
modes in canonical order that extends a monomial only by modes at or
after its last one (strictly after an odd one), so monomials come out in
canonical order with no sort and b, c modes never repeat.

basis_block(k, l, s) is the s-block of a weight-k, charge-l basis; the
block s = l is where chiral.sl2 takes the invariants.  enumerate_full
adds gamma_(-1) powers to a basis and keeps no memo of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .freefield import (BETA, FIELD_WEIGHT, GAMMA, PARITY, B, C, check_int,
                        mon_charge)


def mon_scount(mon) -> int:
    return sum((g == BETA) - (g == GAMMA) for g, n in mon)


@cache
def _walk(k: int):
    """{charge: monomials} of weight k, each tuple in canonical order."""
    steps = sorted(((g, n), FIELD_WEIGHT[g] - n - 1, PARITY[g])
                   for g in (BETA, GAMMA, B, C) for n in range(-k - 1, 0)
                   if (g, n) != (GAMMA, -1))
    groups = {}

    def extend(start, left, mon):
        if not left:
            groups.setdefault(mon_charge(mon), []).append(mon)
        for i in range(start, len(steps)):
            mode, w, odd = steps[i]
            if w <= left:
                extend(i + odd, left - w, mon + (mode,))

    extend(0, k, ())
    return {l: tuple(mons) for l, mons in groups.items()}


def enumerate_basis(k: int, l: int):
    """All positive-sector monomials of weight k and charge l, in
    canonical monomial order."""
    return _walk(k).get(l, ())


def charges(k: int):
    """The charges of the nonempty weight-k blocks, in increasing order."""
    return sorted(_walk(k))


def grades(kmax: int):
    """The (k, l) of every nonempty block of weight k <= kmax: weights
    in increasing order, each with its charges in increasing order."""
    for k in range(kmax + 1):
        for l in charges(k):
            yield k, l


def split_by_s(mons):
    """Group monomials by s = #beta - #gamma; returns {s: tuple}, keys sorted."""
    groups = {}
    for mon in mons:
        groups.setdefault(mon_scount(mon), []).append(mon)
    return {s: tuple(groups[s]) for s in sorted(groups)}


def enumerate_full(k: int, l: int, dmax: int):
    """Positive-sector basis of weight k, charge l, extended by powers
    gamma_(-1)^d for 0 <= d <= dmax, in canonical monomial order.  A k
    or dmax that is not an int raises TypeError."""
    check_int(k, "weights")
    check_int(dmax, "gamma_(-1)-degree bounds")
    out = []
    for mon in enumerate_basis(k, l):
        pos = bisect_left(mon, (GAMMA, -1))
        out.extend(mon[:pos] + ((GAMMA, -1),) * d + mon[pos:]
                   for d in range(dmax + 1))
    out.sort()
    return tuple(out)


def basis_block(k: int, l: int, s: int):
    """Monomials of enumerate_basis(k, l) with #beta - #gamma == s."""
    return tuple(m for m in enumerate_basis(k, l) if mon_scount(m) == s)
