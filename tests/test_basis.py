from fractions import Fraction

import pytest

from chiral.basis import (basis_block, enumerate_basis, enumerate_full,
                          grades, mon_scount, split_by_s)
from chiral.freefield import (BETA, GAMMA, B, C, mon_charge, mon_weight,
                              VACUUM_MON)


def test_small_blocks_exhaustive():
    assert enumerate_basis(0, 0) == (VACUUM_MON,)
    assert enumerate_basis(0, 1) == (((C, -1),),)
    assert enumerate_basis(0, -1) == ()
    got = set(enumerate_basis(1, 0))
    assert got == {((BETA, -1),), ((GAMMA, -2),), ((B, -1), (C, -1))}


def test_gradings_and_membership():
    # every block through weight 12: no monomial holds gamma_(-1), so
    # every invariant-kernel state, built on these, is gamma_(-1)-free
    count = 0
    for k, l in grades(12):
        for mon in enumerate_basis(k, l):
            assert mon_weight(mon) == k
            assert mon_charge(mon) == l
            assert (GAMMA, -1) not in mon
            assert list(mon) == sorted(mon)
            count += 1
    assert count == 64346


def test_no_duplicates_and_canonical_order():
    for k in range(5):
        for l in range(-(k + 2), k + 3):
            mons = enumerate_basis(k, l)
            assert len(set(mons)) == len(mons)
            assert list(mons) == sorted(mons)


def test_weight_family_sizes():
    # total count over all charges per weight; frozen after hand-checking
    # the first two weights exhaustively
    sizes = []
    for k in range(4):
        sizes.append(sum(len(enumerate_basis(k, l))
                         for l in range(-(k + 2), k + 3)))
    assert sizes == [2, 8, 24, 64]


def test_grades_yield_each_nonempty_block_once_in_order():
    # every charge of a weight-k monomial lies in [-(k + 2), k + 2]
    for kmax in range(13):
        want = [(k, l) for k in range(kmax + 1)
                for l in range(-(k + 2), k + 3) if enumerate_basis(k, l)]
        assert list(grades(kmax)) == want


def test_split_by_s():
    blocks = split_by_s(enumerate_basis(1, 0))
    assert set(blocks) == {-1, 0, 1}
    assert blocks[1] == (((BETA, -1),),)
    assert blocks[-1] == (((GAMMA, -2),),)
    assert blocks[0] == (((B, -1), (C, -1)),)
    assert split_by_s(enumerate_basis(0, 0)) == {0: (VACUUM_MON,)}


def test_emptiness_law():
    for k in range(6):
        for l in range(-(k + 2), k + 3):
            for s, mons in split_by_s(enumerate_basis(k, l)).items():
                assert not (k < abs(s) and mons)


def test_basis_block():
    assert basis_block(1, 0, 1) == (((BETA, -1),),)
    assert basis_block(1, 0, 2) == ()
    # weight 2, charge -1, one gamma more than beta: only gamma_(-2) b_(-1)
    assert basis_block(2, -1, -1) == (((GAMMA, -2), (B, -1)),)


def test_enumerate_full_layers():
    assert enumerate_full(0, 0, 2) == (VACUUM_MON, ((GAMMA, -1),),
                                       ((GAMMA, -1), (GAMMA, -1)))
    assert enumerate_full(1, 0, 0) == enumerate_basis(1, 0)
    # every member is a W+ monomial times a gamma_(-1) power
    for mon in enumerate_full(2, 1, 2):
        d = sum(1 for p in mon if p == (GAMMA, -1))
        stripped = tuple(p for p in mon if p != (GAMMA, -1))
        assert d <= 2
        assert stripped in enumerate_basis(2, 1)
        assert mon_weight(mon) == 2
        assert mon_charge(mon) == 1


def test_enumerate_full_rejects_a_non_int_bound_with_a_cold_or_warm_cache():
    # 1.0 == 1 and both hash alike, so a float weight or degree bound
    # must raise whether or not the int block was asked for before
    for warm in (False, True):
        if warm:
            assert len(enumerate_full(1, 0, 1)) == 6
        for args in ((1.0, 0, 1), (Fraction(1), 0, 1), (1, 0, 1.0)):
            with pytest.raises(TypeError, match="are int, not"):
                enumerate_full(*args)


def test_scount():
    assert mon_scount(((BETA, -1), (GAMMA, -2))) == 0
    assert mon_scount(((BETA, -1), (BETA, -2), (GAMMA, -2))) == 1
    assert mon_scount(((B, -1), (C, -1))) == 0


def _series_mul(p, factor, kmax):
    # product of two {(weight, charge, s): count} series, truncated in weight
    out = {}
    for (k1, l1, s1), a in p.items():
        for (k2, l2, s2), b in factor.items():
            if k1 + k2 <= kmax:
                key = (k1 + k2, l1 + l2, s1 + s2)
                out[key] = out.get(key, 0) + a * b
    return out


def test_counts_match_generating_function():
    # coefficients of q^k y^l x^s in
    #   prod_{n>=1} (1 + y^-1 q^n)(1 + y q^(n-1)) / ((1 - x q^n)(1 - x^-1 q^n)),
    # one factor per b_(-n), c_(-n), beta_(-n) and gamma_(-n-1)
    kmax = 12
    series = {(0, 0, 0): 1}
    for n in range(1, kmax + 2):
        series = _series_mul(series, {(0, 0, 0): 1, (n, -1, 0): 1}, kmax)
        series = _series_mul(series, {(0, 0, 0): 1, (n - 1, 1, 0): 1}, kmax)
        for x in (1, -1):
            geometric = {(n * j, 0, x * j): 1 for j in range(kmax // n + 1)}
            series = _series_mul(series, geometric, kmax)
    expected = {key: c for key, c in series.items() if c}
    counts = {}
    for k in range(kmax + 1):
        for l in range(-(k + 2), k + 3):
            for s, mons in split_by_s(enumerate_basis(k, l)).items():
                counts[(k, l, s)] = len(mons)
    assert counts == expected
    totals = [sum(c for (k, _, _), c in counts.items() if k == w)
              for w in range(kmax + 1)]
    assert totals[:4] == [2, 8, 24, 64] and totals[kmax] == 28352
