import random
from fractions import Fraction

import pytest

from chiral import linalg
from chiral.linalg import Matrix, kernel_basis, mat_vec, rank
from chiral.scalar import Scalar, I


def test_entry_validation():
    m = Matrix(2, 2, {(0, 0): 1, (1, 1): Scalar(0, 1)})
    assert m.entries[(0, 0)] == Scalar(1)
    with pytest.raises(IndexError):
        Matrix(2, 2, {(2, 0): 1})
    # zero entries are dropped
    assert Matrix(2, 2, {(0, 1): 0}).entries == {}


def test_rank_simple():
    m = Matrix(2, 3, {(0, 0): 1, (0, 2): 2, (1, 0): 2, (1, 2): 4})
    assert rank(m) == 1
    assert rank(Matrix(3, 3, {(i, i): 1 for i in range(3)})) == 3
    assert rank(Matrix(2, 2, {})) == 0


def test_kernel_dimension_and_membership():
    # x + y + z = 0, y - z = 0
    m = Matrix(2, 3, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): -1})
    ker = kernel_basis(m)
    assert len(ker) == 1
    for vec in ker:
        assert all(not c for c in mat_vec(m, vec))
    assert ker[0] == [Scalar(-2), Scalar(1), Scalar(1)]


def test_kernel_gaussian_entries():
    # (1, i) row: kernel spanned by (-i, 1) after scaling
    m = Matrix(1, 2, {(0, 0): 1, (0, 1): I})
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert all(not c for c in mat_vec(m, ker[0]))


def test_kernel_reduced_echelon_deterministic():
    m = Matrix(1, 3, {(0, 0): 2, (0, 1): 4, (0, 2): 6})
    ker = kernel_basis(m)
    # free columns 1 and 2, pivot column 0 eliminated
    assert ker == [[Scalar(-2), Scalar(1), Scalar(0)],
                   [Scalar(-3), Scalar(0), Scalar(1)]]


def test_rank_nullity():
    entries = {(0, 0): Fraction(1, 2), (0, 1): 3, (1, 0): 1, (1, 1): 6,
               (2, 2): 5, (2, 3): 1}
    m = Matrix(3, 4, entries)
    assert rank(m) + len(kernel_basis(m)) == 4


# The kernel of a real matrix is computed mod 2^61 - 1, lifted and
# certified, falling back to exact elimination; every case below is
# compared against this dense Fraction Gauss-Jordan oracle.
P61 = 2**61 - 1


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
    assert ker == [[Scalar(x) for x in vec] for vec in oracle_kernel(rows, ncols)]
    for vec in ker:
        assert all(not c for c in mat_vec(m, vec))
    return m


def modular_declines(m):
    return linalg._modular_kernel(linalg._integer_rows(m), m.cols) is None


def test_kernel_unlucky_prime_falls_back():
    # the prime divides the only pivot over Q: rank 0 mod p, rank 1 over Q
    m = check_against_oracle([[P61, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[P61, 1], [2 * P61, 2]], 2)
    check_against_oracle([[1, 1, 0], [1, 1 + P61, 1]], 3)


def test_kernel_reconstruction_overflow_falls_back():
    # kernel entry -1/3^40 has a denominator beyond the reconstruction bound
    m = check_against_oracle([[3**40, 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[3**40, 5**30, 7]], 3)


def test_kernel_entry_with_prime_denominator():
    m = check_against_oracle([[Fraction(1, P61), 1]], 2)
    assert modular_declines(m)
    check_against_oracle([[Fraction(1, P61), 1, 0], [0, 1, Fraction(2, 3)]], 3)


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
