import random
from fractions import Fraction
from math import prod

import pytest

from chiral import linalg
from chiral.basis import charges, grades
from chiral.chart import ChartFn, I
from chiral.freefield import sadd
from chiral.linalg import Matrix, kernel_basis
from chiral.sl2 import invariants


def mat_vec(m, vec):
    """The product m vec, as a dense list."""
    out = [0] * m.rows
    for (r, c), v in m.entries.items():
        out[r] += v * vec[c]
    return out


def test_entry_validation():
    m = Matrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    assert m.entries[(0, 0)] == 1
    with pytest.raises(IndexError):
        Matrix(2, 2, {(2, 0): 1})
    # zero entries are dropped
    assert Matrix(2, 2, {(0, 1): 0}).entries == {}


def test_matrix_rejects_a_bad_shape_or_index():
    for rows, cols in ((2.0, 2), (2, "2"), (None, 1), (True, 2), (1, False)):
        with pytest.raises(TypeError):
            Matrix(rows, cols)
    for rows, cols in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            Matrix(rows, cols)
    for key in ((0.0, 1), (0, 1.0), (Fraction(0), 0), (False, 1), (0, True)):
        with pytest.raises(TypeError):
            Matrix(1, 2, {key: 1})
    # True == 1, but a bool entry is refused like any non-rational one
    for entry in (True, False):
        with pytest.raises(TypeError,
                           match="^matrix entries are int or Fraction, not bool$"):
            Matrix(1, 2, {(0, 1): entry})
    # an empty shape is a valid matrix
    assert kernel_basis(Matrix(0, 2)) == [[1, 0], [0, 1]]


def test_rank_simple():
    # rank 1, 3 and 0: the kernel has cols - rank vectors
    m = Matrix(2, 3, {(0, 0): 1, (0, 2): 2, (1, 0): 2, (1, 2): 4})
    assert len(kernel_basis(m)) == 2
    assert kernel_basis(Matrix(3, 3, {(i, i): 1 for i in range(3)})) == []
    assert kernel_basis(Matrix(2, 2, {})) == [[1, 0], [0, 1]]


def test_kernel_dimension_and_membership():
    # x + y + z = 0, y - z = 0
    m = Matrix(2, 3, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): -1})
    ker = kernel_basis(m)
    assert len(ker) == 1
    for vec in ker:
        assert all(not c for c in mat_vec(m, vec))
    assert ker[0] == [-2, 1, 1]


def test_kernel_gaussian_entries():
    # linalg works over Q: Gaussian entries, and chart functions of any
    # value, are rejected when the matrix is built
    with pytest.raises(TypeError):
        Matrix(1, 2, {(0, 0): 1, (0, 1): I})
    with pytest.raises(TypeError):
        Matrix(1, 2, {(0, 0): 1, (0, 1): ChartFn.const(1)})


def test_kernel_reduced_echelon_deterministic():
    m = Matrix(1, 3, {(0, 0): 2, (0, 1): 4, (0, 2): 6})
    ker = kernel_basis(m)
    # free columns 1 and 2, pivot column 0 eliminated
    assert ker == [[-2, 1, 0], [-3, 0, 1]]


def test_rank_nullity():
    entries = {(0, 0): Fraction(1, 2), (0, 1): 3, (1, 0): 1, (1, 1): 6,
               (2, 2): 5, (2, 3): 1}
    m = Matrix(3, 4, entries)
    # row 1 is twice row 0, so the rank is 2 and the nullity 4 - 2
    ker = kernel_basis(m)
    assert len(ker) == 2
    assert all(not any(mat_vec(m, vec)) for vec in ker)


# The kernel of a real matrix is computed mod one prime at a time, of
# linalg.PRIMES or, from linalg.WIDE_COLUMNS columns on, of
# linalg.WIDE_PRIMES, lifted and certified, falling back to exact
# elimination; every case below is compared against this dense Fraction
# Gauss-Jordan oracle.
P61 = 2**61 - 1
ALL_PRIMES = prod(linalg.PRIMES)


def oracle_echelon(rows, order):
    """Reduced echelon form of a dense matrix with the columns taken in
    the given order, as {pivot col: dense row}, by textbook Gauss-Jordan
    over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in order:
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return {c: a[i] for i, c in enumerate(pivots)}


def oracle_kernel(rows, ncols):
    """Reduced echelon kernel basis of a dense matrix, one vector per
    free column, read off its oracle_echelon in column order."""
    echelon = oracle_echelon(rows, range(ncols))
    basis = []
    for f in range(ncols):
        if f not in echelon:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for pc, row in echelon.items():
                vec[pc] = -row[f]
            basis.append(vec)
    return basis


def check_against_oracle(rows, ncols):
    m = Matrix(len(rows), ncols, {(i, j): x for i, row in enumerate(rows)
                                  for j, x in enumerate(row) if x})
    ker = kernel_basis(m)
    assert ker == oracle_kernel(rows, ncols)
    for vec in ker:
        assert all(not c for c in mat_vec(m, vec))
    return m


def modular_declines(m):
    return linalg._modular_kernel(linalg._integer_rows(m), m.cols) is None


def test_kernel_unlucky_prime_falls_back():
    # every narrow prime divides the only pivot over Q: the pivot column
    # moves mod p and the lift fails the certificate; the kernel entry
    # -1/ALL_PRIMES is then too tall for the wide primes, so no prime
    # gives a certified vector
    m = check_against_oracle([[ALL_PRIMES, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[ALL_PRIMES, 1], [2 * ALL_PRIMES, 2]], 2)
    check_against_oracle([[1, 1, 0], [1, 1 + ALL_PRIMES, 1]], 3)


def test_kernel_reconstruction_overflow_falls_back():
    # kernel entry -1/3^160 has a denominator beyond the reconstruction
    # bound isqrt(p // 2) of every prime, narrow or wide
    m = check_against_oracle([[3**160, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[3**160, 5**30, 7]], 3)


def test_kernel_entry_with_prime_denominator():
    m = check_against_oracle([[Fraction(1, ALL_PRIMES), 1]], 2)
    assert modular_declines(m)
    check_against_oracle(
        [[Fraction(1, ALL_PRIMES), 1, 0], [0, 1, Fraction(2, 3)]], 3)


def test_kernel_first_prime_unlucky_second_lucky(monkeypatch):
    # 2^61 - 1 divides the pivot, so mod the first prime the row vanishes
    # and the lift of e_0 fails the certificate; the second prime alone
    # gives the kernel vector (-3, 1)
    calls = count_primes(monkeypatch)
    check_against_oracle([[P61, 3 * P61]], 2)
    assert [call[:2] for call in calls] == [[list(linalg.PRIMES[:2]), False]]
    # the kernel entry -1/P61 is too tall for any narrow prime, but no
    # narrow reconstruction fails: mod P61 the lift of e_0 fails the
    # certificate, and every other narrow prime p lifts the entry to the
    # small -1/(P61 - p), which fails it too; the first wide prime then
    # gives the kernel
    calls.clear()
    check_against_oracle([[P61, 1]], 2)
    assert [call[:2] for call in calls] == [
        [[*linalg.PRIMES, linalg.WIDE_PRIMES[0]], False]]


def test_kernel_later_unlucky_prime_is_skipped(monkeypatch):
    # the first two primes divide the pivot: each is tried on its own and
    # fails the certificate, and the third gives the kernel; as a wide
    # matrix the same rows take the first wide prime alone
    pivot = P61 * linalg.PRIMES[1]
    calls = count_primes(monkeypatch)
    check_against_oracle([[pivot, 3 * pivot]], 2)
    assert [call[:2] for call in calls] == [[list(linalg.PRIMES[:3]), False]]
    monkeypatch.setattr(linalg, "WIDE_COLUMNS", 0)
    calls.clear()
    check_against_oracle([[pivot, 3 * pivot]], 2)
    assert [call[:2] for call in calls] == [[[linalg.WIDE_PRIMES[0]], False]]


def test_kernel_too_tall_for_a_narrow_prime_takes_a_wide_one(monkeypatch):
    # a kernel entry with a 51-bit numerator and a 45-bit denominator, like
    # the entries of block (10, 0): too tall for any 61-bit prime.  The
    # first three narrow primes lift it to a wrong small fraction, which
    # fails the certificate; the fourth fails the reconstruction, which
    # skips the other narrow primes, and the first wide prime gives the
    # kernel.  As a wide matrix it is lifted from the first wide prime
    num, den = 2**50 + 1, 3**28
    rows = [[den, num, 0], [0, 1, 1]]
    expected = [[Fraction(num, den), Fraction(-1), Fraction(1)]]
    assert oracle_kernel(rows, 3) == expected
    calls = count_primes(monkeypatch)
    m = check_against_oracle(rows, 3)
    assert [call[:2] for call in calls] == [
        [[*linalg.PRIMES[:4], linalg.WIDE_PRIMES[0]], False]]
    monkeypatch.setattr(linalg, "WIDE_COLUMNS", 0)
    calls.clear()
    check_against_oracle(rows, 3)
    assert [call[:2] for call in calls] == [[[linalg.WIDE_PRIMES[0]], False]]
    assert linalg._modular_kernel(linalg._integer_rows(m), 3) == expected


def test_kernel_too_tall_for_a_wide_prime_falls_back_to_q(monkeypatch):
    # a kernel entry with a 101-bit numerator, past the 95 bits a wide
    # prime reconstructs: every narrow prime lifts it to a wrong small
    # fraction, which fails the certificate, then the first two wide
    # primes do the same and the third fails the reconstruction, which
    # skips the other wide primes, so the kernel comes from Q
    num, den = 2**100 + 1, 3**20
    rows = [[den, num, 0], [0, 1, 1]]
    expected = [[Fraction(num, den), Fraction(-1), Fraction(1)]]
    assert oracle_kernel(rows, 3) == expected
    calls = count_primes(monkeypatch)
    check_against_oracle(rows, 3)
    assert [call[:2] for call in calls] == [
        [[*linalg.PRIMES, *linalg.WIDE_PRIMES[:3]], True]]


def is_prime(n):
    """Miller-Rabin with the first twelve primes as bases, deterministic
    for n < 3.1 * 10^23 (Sorenson and Webster), far above 2^61."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primes_are_the_largest_below_2_61():
    primes = linalg.PRIMES
    assert primes[0] == P61
    assert list(primes) == sorted(set(primes), reverse=True)
    assert all(is_prime(p) for p in primes)
    # no prime is skipped between them
    assert [n for n in range(primes[-1], P61 + 1) if is_prime(n)] == \
        sorted(primes)


def test_wide_primes_are_the_largest_proth_primes_below_2_191():
    # is_prime is deterministic only below 3.1 * 10^23.  Each wide prime
    # is p = k 2^96 + 1 with k odd and k < 2^96, so by Proth's theorem a
    # witness a with a^((p - 1)/2) = -1 mod p proves it prime
    wide = linalg.WIDE_PRIMES
    assert len(wide) == 8
    assert list(wide) == sorted(set(wide), reverse=True)
    for p, a in zip(wide, (3, 5, 13, 3, 3, 7, 3, 3)):
        k, r = divmod(p - 1, 2**96)
        assert r == 0 and k % 2 == 1 and p < 2**191
        assert pow(a, (p - 1) // 2, p) == p - 1
    # every odd k skipped between them and 2^95 gives a composite p: some
    # base a has a^(p - 1) != 1 mod p (Fermat)
    ks = {p >> 96 for p in wide}
    skipped = [k for k in range(wide[-1] >> 96, 2**95, 2) if k not in ks]
    assert len(skipped) == 644
    for k in skipped:
        p = k * 2**96 + 1
        assert any(pow(a, p - 1, p) != 1 for a in (2, 3, 5, 7))


def test_kernel_random_sparse_rank_deficient():
    rng = random.Random(20250114)

    def entry():
        if rng.random() < 0.6:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(200):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        k = rng.randint(0, min(nrows, ncols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                 for j in range(ncols)] for i in range(nrows)]
        check_against_oracle(rows, ncols)


def spy_eliminations(monkeypatch):
    """Record every call of linalg._eliminate as (column order, add,
    pivot columns in the order it took them)."""
    calls = []
    eliminate = linalg._eliminate

    def spy(rows, order, inverse, add, reduce):
        order = list(order)
        pivots = []
        calls.append((order, add, pivots))
        for col, row in eliminate(rows, order, inverse, add, reduce):
            pivots.append(col)
            yield col, row

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return calls


def random_rank_deficient(rng, max_rows, max_cols, min_size=2):
    """A sparse nrows x ncols product of an nrows x k and a k x ncols
    factor with k < min(nrows, ncols), as dense rows of int/Fraction."""
    def entry():
        if rng.random() < 0.7:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    nrows = rng.randint(min_size, max_rows)
    ncols = rng.randint(min_size, max_cols)
    k = rng.randint(1, min(nrows, ncols) - 1)
    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]
    return rows, ncols


def test_kernel_random_sparse_in_count_order(monkeypatch):
    # larger matrices than above, most of them eliminated in a column
    # order other than the natural one
    calls = spy_eliminations(monkeypatch)
    rng = random.Random(20261019)
    reordered = 0
    for _ in range(150):
        rows, ncols = random_rank_deficient(rng, 12, 14, min_size=6)
        calls.clear()
        check_against_oracle(rows, ncols)
        order = calls[0][0]  # the elimination of M mod the first prime
        reordered += order != sorted(order)
    assert reordered >= 100


def test_fill_in_that_cancels_mod_p_does_not_pivot(monkeypatch):
    # row 1 minus twice row 0 cancels over Q.  Mod p the row update is not
    # reduced, so it leaves a nonzero multiple of p at column 1, which the
    # elimination must read as zero: mod p it pivots on the columns it
    # pivots on over Q
    rows = [[1, 2], [2, 4]]
    calls = spy_eliminations(monkeypatch)
    check_against_oracle(rows, 2)
    modular = [(order, pivots) for order, _, pivots in calls]
    calls.clear()
    monkeypatch.setattr(linalg, "_modular_kernel", lambda int_rows, ncols: None)
    check_against_oracle(rows, 2)
    exact = [(order, pivots) for order, _, pivots in calls]
    # the elimination of M, then the canonical step on its kernel
    assert modular == exact == [([0, 1], [0]), ([1, 0], [1])]


def test_residues_handed_to_the_lift_are_reduced(monkeypatch):
    # the row updates mod p leave entries far above p; every residue that
    # reaches rational reconstruction lies in [0, p)
    lift = linalg._lift
    seen = []

    def spy(residues, p, bound):
        residues = list(residues)
        seen.append(p)
        assert all(0 <= x < p for _, x in residues)
        return lift(residues, p, bound)

    monkeypatch.setattr(linalg, "_lift", spy)
    rng = random.Random(20261020)
    for _ in range(40):
        check_against_oracle(*random_rank_deficient(rng, 10, 12, min_size=4))
    # the matrix of test_kernel_too_tall_for_a_narrow_prime_takes_a_wide_one,
    # lifted from the first wide prime
    monkeypatch.setattr(linalg, "WIDE_COLUMNS", 0)
    check_against_oracle([[3**28, 2**50 + 1, 0], [0, 1, 1]], 3)
    assert P61 in seen and linalg.WIDE_PRIMES[0] in seen


def residue(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


# (name, inverse, add, reduce, the map of a Fraction into the field)
FIELDS = (("Q", *linalg._RATIONALS, lambda x: x),
          ("mod p", *linalg._field_mod(P61), lambda x: residue(x, P61)))


def test_echelon_in_a_random_column_order():
    # _echelon is the reduced echelon form in the order it is given, over
    # Q and mod p; mod p the rows it is handed hold unreduced
    # representatives, as the kernel basis it canonicalizes does
    rng = random.Random(20261021)
    for _ in range(120):
        rows, ncols = random_rank_deficient(rng, 9, 11)
        order = list(range(ncols))
        rng.shuffle(order)
        expected = oracle_echelon(rows, order)
        for name, inverse, add, reduce, convert in FIELDS:
            sparse = [{c: convert(x) for c, x in enumerate(row) if x}
                      for row in rows]
            if name == "mod p":
                sparse = [{c: y + P61 * rng.randint(-3, 3)
                           for c, y in row.items()} for row in sparse]
            echelon = linalg._echelon(sparse, order, inverse, add, reduce)
            # last pivot first
            assert list(echelon) == sorted(echelon, key=order.index,
                                           reverse=True), name
            for col, row in echelon.items():
                assert row[col] == 1, name
                assert row.keys() & echelon.keys() == {col}, name
                if name == "mod p":
                    assert all(0 < x < P61 for x in row.values())
            assert echelon == {
                col: {c: convert(x) for c, x in enumerate(row) if x}
                for col, row in expected.items()}, name


def test_canonical_kernel_of_a_recombined_basis():
    # any basis of the kernel, here the reduced echelon one mixed by a
    # random invertible matrix, canonicalizes back to the reduced echelon
    # basis, over Q and mod p
    rng = random.Random(71)
    for _ in range(60):
        rows, ncols = random_rank_deficient(rng, 8, 10)
        expected = oracle_kernel(rows, ncols)
        d = len(expected)
        # unit lower times upper with a nonzero diagonal, rows permuted
        lower = [[Fraction(rng.randint(-5, 5)) if j < i else Fraction(j == i)
                  for j in range(d)] for i in range(d)]
        upper = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) if j == i
                  else Fraction(rng.randint(-5, 5)) if j > i else Fraction(0)
                  for j in range(d)] for i in range(d)]
        mix = [[sum(lower[i][t] * upper[t][j] for t in range(d))
                for j in range(d)] for i in range(d)]
        rng.shuffle(mix)
        mixed = [[sum(a * vec[c] for a, vec in zip(coeffs, expected))
                  for c in range(ncols)] for coeffs in mix]
        for name, inverse, add, reduce, convert in FIELDS:
            basis = [{c: convert(x) for c, x in enumerate(vec) if convert(x)}
                     for vec in mixed]
            canonical = list(linalg._echelon(
                basis, range(ncols - 1, -1, -1), inverse, add, reduce).items())
            want = [{c: convert(x) for c, x in enumerate(vec) if x}
                    for vec in expected]
            assert [v for _, v in canonical] == want, name
            assert [f for f, _ in canonical] == [max(v) for v in want], name


def typed_states(states):
    # int and Fraction compare equal, so the types are compared too
    return [sorted((mon, type(c).__name__, c) for mon, c in st.items())
            for st in states]


def test_exact_path_matches_modular_on_invariant_blocks(monkeypatch):
    # every invariant block through weight 7 (the blocks of perfbench's
    # character_table), once through the modular path and once with it
    # declining, so the exact elimination over Q runs
    blocks = [(k, l) for k in range(8) for l in charges(k)]
    modular = {kl: typed_states(invariants(*kl).states)
               for kl in blocks}
    declined = []

    def decline(int_rows, ncols):
        declined.append(ncols)
        return None

    monkeypatch.setattr(linalg, "_modular_kernel", decline)
    for kl in blocks:
        assert typed_states(invariants(*kl).states) == modular[kl]
    assert len(declined) == 31  # one per nonempty diagonal block


def test_exact_path_pivots_in_count_order(monkeypatch):
    # with the modular path declining, the kernel comes from the same
    # elimination over Q: column 0 holds the most entries, so it is
    # taken last, and the canonical step pivots in reverse column order
    monkeypatch.setattr(linalg, "_modular_kernel", lambda int_rows, ncols: None)
    calls = spy_eliminations(monkeypatch)
    rows = [[2, 1, 0, 0, 1],
            [4, 0, 3, 0, 0],
            [6, 1, 3, 0, 1],
            [1, 0, 0, 5, Fraction(1, 2)]]
    check_against_oracle(rows, 5)
    (order, add, pivots), (canon_order, canon_add, canon_pivots) = calls
    assert add is sadd and canon_add is sadd
    assert order == [3, 1, 2, 4, 0]
    assert pivots == [3, 1, 2]
    assert canon_order == [4, 3, 2, 1, 0]
    assert canon_pivots == [4, 3]


def count_primes(monkeypatch):
    """Record, for every kernel the modular path is asked for, [the
    primes it eliminated mod, whether it fell back to Q, the mod-p entry
    updates, each counted as the pivot-row length of a row update]."""
    calls = []
    field_mod, modular_kernel = linalg._field_mod, linalg._modular_kernel

    def spy_modular_kernel(int_rows, ncols):
        calls.append([[], False, 0])
        basis = modular_kernel(int_rows, ncols)
        calls[-1][1] = basis is None
        return basis

    def spy_field_mod(p):
        inverse, add, reduce = field_mod(p)
        call = calls[-1]
        call[0].append(p)

        def counted(row, pivot_row, f):
            call[2] += len(pivot_row)
            return add(row, pivot_row, f)

        return inverse, counted, reduce

    monkeypatch.setattr(linalg, "_modular_kernel", spy_modular_kernel)
    monkeypatch.setattr(linalg, "_field_mod", spy_field_mod)
    return calls


def test_mod_p_entry_updates_through_weight_8(monkeypatch):
    # the work of the modular kernels of every invariant block through
    # weight 8: at most the count of the two reduced-echelon passes per
    # prime
    calls = count_primes(monkeypatch)
    for kl in grades(8):
        invariants(*kl)
    assert sum(updates for _, _, updates in calls) <= 327_083


def test_invariant_blocks_take_one_prime_through_weight_10(monkeypatch):
    # every nonempty invariant block through weight 10 takes one modular
    # elimination and none falls back to Q; the two blocks of 300 columns
    # or more, (10, 0) and (10, 1), take the first wide prime, and their
    # updates are bounded
    calls = count_primes(monkeypatch)
    wide = {}  # block -> updates
    for kl in grades(10):
        before = len(calls)
        invariants(*kl)
        if calls[before:] and calls[-1][0] == [linalg.WIDE_PRIMES[0]]:
            wide[kl] = calls[-1][2]
    assert len(calls) == 52  # one per nonempty diagonal block
    assert all(len(primes) == 1 and not fell_back
               for primes, fell_back, _ in calls)
    assert list(wide) == [(10, 0), (10, 1)]
    assert sum(wide.values()) <= 4_893_927
