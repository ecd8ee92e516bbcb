"""Enumeration of the graded monomial bases.

The positive sector is spanned by monomials in beta_(n) (n <= -1),
gamma_(n) (n <= -2), b_(n) (n <= -1, distinct) and c_(n) (n <= -1,
distinct); gamma_(-1) never appears.  Weight contributions per mode are
beta_(-n), b_(-n) -> n and gamma_(-n), c_(-n) -> n - 1, so every graded
piece is finite.  s counts #beta - #gamma.
"""

from __future__ import annotations

from functools import lru_cache

from .freefield import BETA, GAMMA, B, C, mon_weight, mon_charge


def mon_scount(mon) -> int:
    return sum((g == BETA) - (g == GAMMA) for g, n in mon)


def _partitions(total, max_part=None):
    """Partitions of total into parts >= 1, as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _distinct_partitions(total, count, min_part):
    """Partitions of total into exactly count distinct parts >= min_part,
    as strictly descending tuples."""
    if count == 0:
        if total == 0:
            yield ()
        return
    # largest part is at least min_part + count - 1
    lo = min_part + count - 1
    rest_min = sum(range(min_part, min_part + count - 1))
    for first in range(total - rest_min, lo - 1, -1):
        for rest in _distinct_partitions(total - first, count - 1, min_part):
            if not rest or rest[0] < first:
                yield (first,) + rest


def _assemble(beta_parts, gamma_parts, b_parts, c_parts):
    mon = []
    for w in sorted(beta_parts, reverse=True):
        mon.append((BETA, -w))
    for w in sorted(gamma_parts, reverse=True):
        mon.append((GAMMA, -w - 1))
    for w in sorted(b_parts, reverse=True):
        mon.append((B, -w))
    for w in sorted(c_parts, reverse=True):
        mon.append((C, -w - 1))
    return tuple(mon)


@lru_cache(maxsize=None)
def enumerate_basis(k: int, l: int):
    """All positive-sector monomials of weight k and charge l, sorted in
    canonical monomial order."""
    if k < 0:
        return ()
    out = []
    nb = 0
    while nb * (nb + 1) // 2 <= k:
        nc = nb + l
        if nc < 0 or nc * (nc - 1) // 2 > k:
            nb += 1
            continue
        min_bc = nb * (nb + 1) // 2 + nc * (nc - 1) // 2
        for wb in range(min_bc - nc * (nc - 1) // 2, k + 1):
            for wc in range(nc * (nc - 1) // 2, k - wb + 1):
                rem = k - wb - wc
                for b_parts in _distinct_partitions(wb, nb, 1):
                    for c_parts in _distinct_partitions(wc, nc, 0):
                        for wbeta in range(rem + 1):
                            for beta_parts in _partitions(wbeta):
                                for gamma_parts in _partitions(rem - wbeta):
                                    out.append(_assemble(
                                        beta_parts, gamma_parts,
                                        b_parts, c_parts))
        nb += 1
    out.sort()
    return tuple(out)


def split_by_s(mons):
    """Group monomials by s = #beta - #gamma; returns {s: tuple}, keys sorted."""
    groups = {}
    for mon in mons:
        groups.setdefault(mon_scount(mon), []).append(mon)
    return {s: tuple(groups[s]) for s in sorted(groups)}


@lru_cache(maxsize=None)
def enumerate_full(k: int, l: int, dmax: int):
    """Positive-sector basis of weight k, charge l, extended by powers
    gamma_(-1)^d for 0 <= d <= dmax, in canonical monomial order."""
    out = []
    for mon in enumerate_basis(k, l):
        pos = 0
        while pos < len(mon) and mon[pos] < (GAMMA, -1):
            pos += 1
        for d in range(dmax + 1):
            out.append(mon[:pos] + ((GAMMA, -1),) * d + mon[pos:])
    out.sort()
    return tuple(out)


def basis_block(k: int, l: int, s: int):
    """Monomials of enumerate_basis(k, l) with #beta - #gamma == s."""
    return tuple(m for m in enumerate_basis(k, l) if mon_scount(m) == s)
