import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from chiral import linalg
from chiral.basis import charges
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


# The kernel of a real matrix is computed mod the primes in
# linalg.PRIMES, combined by CRT, lifted and certified, falling back to
# exact elimination; every case below is compared against this dense
# Fraction Gauss-Jordan oracle.
P61 = 2**61 - 1
ALL_PRIMES = prod(linalg.PRIMES)


def oracle_kernel(rows, ncols):
    """Reduced echelon kernel basis of a dense matrix, one vector per
    free column, by textbook Gauss-Jordan over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
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
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for i, pc in enumerate(pivots):
                vec[pc] = -a[i][f]
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
    # every prime divides the only pivot over Q: the pivot column moves
    # mod p, and no product of the primes gives a certified vector
    m = check_against_oracle([[ALL_PRIMES, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[ALL_PRIMES, 1], [2 * ALL_PRIMES, 2]], 2)
    check_against_oracle([[1, 1, 0], [1, 1 + ALL_PRIMES, 1]], 3)


def test_kernel_reconstruction_overflow_falls_back():
    # kernel entry -1/3^160 has a denominator beyond the reconstruction
    # bound isqrt(prod(PRIMES) // 2) of all the primes together
    m = check_against_oracle([[3**160, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[3**160, 5**30, 7]], 3)


def test_kernel_entry_with_prime_denominator():
    m = check_against_oracle([[Fraction(1, ALL_PRIMES), 1]], 2)
    assert modular_declines(m)
    check_against_oracle(
        [[Fraction(1, ALL_PRIMES), 1, 0], [0, 1, Fraction(2, 3)]], 3)


def test_kernel_first_prime_unlucky_second_lucky():
    # 2^61 - 1 divides the pivot, so mod the first prime the pivot moves to
    # column 1; the second prime puts it back at column 0 and replaces the
    # first prime's residues, and the kernel entry -1/P61 reconstructs once
    # enough of the later primes are combined
    m = check_against_oracle([[P61, 1]], 2)
    assert not modular_declines(m)


def test_kernel_later_unlucky_prime_is_skipped():
    # the second prime divides the pivot: its residues are skipped, and
    # the other seven primes together, but no six of them, reconstruct
    # the kernel entry -1/den
    den = linalg.PRIMES[1] * 3**90
    six = prod(linalg.PRIMES[2:])
    assert isqrt(six // 2) < den < isqrt(linalg.PRIMES[0] * six // 2)
    m = check_against_oracle([[den, 1]], 2)
    assert not modular_declines(m)


def test_kernel_needs_two_primes(monkeypatch):
    # a kernel entry with a 51-bit numerator and a 45-bit denominator, like
    # the entries of block (10, 0): too large for one 61-bit prime,
    # reconstructed from two without falling back
    num, den = 2**50 + 1, 3**28
    rows = [[den, num, 0], [0, 1, 1]]
    m = check_against_oracle(rows, 3)
    assert not modular_declines(m)
    primes = linalg.PRIMES
    monkeypatch.setattr(linalg, "PRIMES", primes[:1])
    assert modular_declines(m)
    monkeypatch.setattr(linalg, "PRIMES", primes[:2])
    expected = [[Fraction(num, den), Fraction(-1), Fraction(1)]]
    assert oracle_kernel(rows, 3) == expected
    assert linalg._modular_kernel(linalg._integer_rows(m), 3) == expected


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

    def spy(rows, order, inverse, add):
        order = list(order)
        pivots = []
        calls.append((order, add, pivots))
        for col, row in eliminate(rows, order, inverse, add):
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


def residue(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


def test_canonical_kernel_of_a_recombined_basis():
    # any basis of the kernel, here the reduced echelon one mixed by a
    # random invertible matrix, canonicalizes back to the reduced echelon
    # basis, over Q and mod p
    rng = random.Random(71)
    fields = (("Q", linalg._inverse, sadd, lambda x: x),
              ("mod p", *linalg._field_mod(P61), lambda x: residue(x, P61)))
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
        for name, inverse, add, convert in fields:
            basis = [{c: convert(x) for c, x in enumerate(vec) if convert(x)}
                     for vec in mixed]
            canonical = linalg._canonical_kernel(basis, ncols, inverse, add)
            want = [{c: convert(x) for c, x in enumerate(vec) if x}
                    for vec in expected]
            assert [v for _, v in canonical] == want, name
            assert [f for f, _ in canonical] == [max(v) for v in want], name


def typed_states(states):
    # int and Fraction compare equal, so the types are compared too
    return [sorted((mon, type(c).__name__, c) for mon, c in st.items())
            for st in states]


def test_exact_path_matches_modular_on_invariant_blocks(monkeypatch):
    # every invariant block through weight 6, once through the modular
    # path and once with it declining, so the exact elimination over Q runs
    blocks = [(k, l) for k in range(7) for l in charges(k)]
    modular = {kl: typed_states(invariants(*kl).states)
               for kl in blocks}
    declined = []

    def decline(int_rows, ncols):
        declined.append(ncols)
        return None

    monkeypatch.setattr(linalg, "_modular_kernel", decline)
    for kl in blocks:
        assert typed_states(invariants(*kl).states) == modular[kl]
    assert len(declined) == 25  # one per nonempty diagonal block


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
