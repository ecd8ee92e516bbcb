"""Sparse exact linear algebra over Gaussian rationals.

Gaussian elimination with the first nonzero entry in column order as pivot;
no pivot-size heuristics, so results are deterministic for a given matrix.

Kernel bases of matrices whose entries are all real are computed modulo
the prime P = 2^61 - 1 and lifted back to the rationals:

1. each row is scaled by the lcm of its denominators to integers;
2. the reduced row echelon form is taken mod P;
3. each free-column kernel vector is lifted from its residues by
   rational reconstruction;
4. each lifted vector v is certified by checking M v = 0 in exact
   integer arithmetic.

A certified lift is the exact answer.  The vector v_f of free column f
has a 1 at f, zeros at the other free columns mod P and support in
columns <= f, so M v_f = 0 makes f a free column over Q too.  The rank
mod P is at most the rank over Q, so the free columns agree, and the
reduced echelon kernel basis, being unique, is the same.  When a
reconstruction or a certificate fails (the rank drops mod P, or a kernel
entry is too large to reconstruct), or an entry has an imaginary part,
the exact elimination over Gaussian rationals runs instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .scalar import Scalar, ZERO, ONE

P = (1 << 61) - 1
# rational reconstruction returns n/d with |n|, d <= _RECON_BOUND
_RECON_BOUND = isqrt(P // 2)


class Matrix:
    """Sparse rows x cols matrix; entries is a map (row, col) -> Scalar."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
                v = Scalar.coerce(v)
                if v:
                    self.entries[(r, c)] = v

    def __getitem__(self, rc):
        return self.entries.get(rc, ZERO)

    def row_lists(self):
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def _eliminate(m: Matrix):
    """Reduced row echelon form of m; returns (rows as dicts, pivot columns)."""
    rows = [r for r in m.row_lists() if r]
    pivots = []
    reduced = []
    for col in range(m.cols):
        pivot_row = None
        for i, r in enumerate(rows):
            if r.get(col):
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            continue
        inv = pivot_row[col]
        pivot_row = {c: v / inv for c, v in pivot_row.items()}
        for r in rows + reduced:
            f = r.get(col)
            if f:
                for c, v in pivot_row.items():
                    w = r.get(c, ZERO) - f * v
                    if w:
                        r[c] = w
                    elif c in r:
                        del r[c]
        rows = [r for r in rows if r]
        pivots.append(col)
        reduced.append(pivot_row)
    return reduced, pivots


def rank(m: Matrix) -> int:
    return len(_eliminate(m)[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel, one vector per free column, in column order.

    Vector for free column f has a 1 in position f and the negated reduced
    column above the pivots, so the list is itself in reduced echelon form.
    Computed mod P and certified when every entry is real (see above).
    """
    rows = _integer_rows(m)
    basis = None if rows is None else _modular_kernel(rows, m.cols)
    if basis is None:
        basis = []
        for f, column in _free_columns(*_eliminate(m), m.cols):
            vec = [ZERO] * m.cols
            vec[f] = ONE
            for pcol, coeff in column:
                vec[pcol] = -coeff
            basis.append(vec)
    return basis


def _free_columns(reduced, pivots, ncols):
    """(f, [(pivot column, its row's entry in column f), ...]) for every
    free column f of a reduced row echelon form, in column order."""
    pivot_set = set(pivots)
    for f in range(ncols):
        if f not in pivot_set:
            yield f, [(pcol, prow[f])
                      for prow, pcol in zip(reduced, pivots) if f in prow]


def _integer_rows(m: Matrix):
    """The nonzero rows of m, each scaled by the lcm of its denominators,
    as {col: int}; None if an entry has an imaginary part."""
    out = []
    for row in m.row_lists():
        if not row:
            continue
        if any(v.im for v in row.values()):
            return None
        den = lcm(*(v.re.denominator for v in row.values()))
        out.append({c: v.re.numerator * (den // v.re.denominator)
                    for c, v in row.items()})
    return out


def _modular_kernel(int_rows, ncols):
    """kernel_basis of the integer rows via their RREF mod P, or None
    when a lifted vector fails reconstruction or the exact certificate."""
    columns = {}
    for i, row in enumerate(int_rows):
        for c, a in row.items():
            columns.setdefault(c, []).append((i, a))
    basis = []
    for f, column in _free_columns(*_rref_mod_p(int_rows, ncols), ncols):
        lifted = _lift([(f, 1)] + [(pcol, P - x) for pcol, x in column])
        if lifted is None:
            return None
        nums, den = lifted
        if not _certified(nums, columns, len(int_rows)):
            return None
        vec = [ZERO] * ncols
        for c, n in nums.items():
            vec[c] = Scalar(Fraction(n, den))
        basis.append(vec)
    return basis


def _rref_mod_p(rows, ncols):
    """Reduced row echelon form of the integer rows over the field of P
    elements, with _eliminate's pivot rule; returns (rows, pivot columns).
    Forward elimination first, then back substitution, so only fully
    reduced rows are subtracted from the rows above them."""
    rows = [r for r in ({c: x % P for c, x in row.items() if x % P}
                        for row in rows) if r]
    pivots = []
    reduced = []
    for col in range(ncols):
        pivot_row = None
        for i, r in enumerate(rows):
            if col in r:
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            continue
        inv = pow(pivot_row[col], -1, P)
        pivot_row = {c: v * inv % P for c, v in pivot_row.items()}
        for r in rows:
            f = r.get(col)
            if f:
                _sub_mod_p(r, f, pivot_row)
        rows = [r for r in rows if r]
        pivots.append(col)
        reduced.append(pivot_row)
    for j in range(len(reduced) - 1, 0, -1):
        pivot_row, col = reduced[j], pivots[j]
        for r in reduced[:j]:
            f = r.get(col)
            if f:
                _sub_mod_p(r, f, pivot_row)
    return reduced, pivots


def _sub_mod_p(row, f, pivot_row):
    """row -= f * pivot_row mod P, dropping entries that vanish."""
    for c, v in pivot_row.items():
        w = (row.get(c, 0) - f * v) % P
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def _lift(residues):
    """Rational reconstruction of a vector given as (col, residue mod P)
    pairs: (integer numerators by column, common denominator), or None."""
    den = 1
    parts = []
    for c, x in residues:
        y = x * den % P
        if y <= _RECON_BOUND:
            n, d = y, 1
        elif P - y <= _RECON_BOUND:
            n, d = y - P, 1
        else:
            nd = _reconstruct(y)
            if nd is None:
                return None
            n, d = nd
            den *= d
        parts.append((c, n, den))  # the entry is n / den
    return {c: n * (den // part_den) for c, n, part_den in parts}, den


def _reconstruct(y):
    """n/d with n = d y mod P, |n| <= _RECON_BOUND and 0 < d <=
    _RECON_BOUND (Wang's extended Euclid), or None."""
    r0, r1 = P, y
    t0, t1 = 0, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _RECON_BOUND:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified(nums, columns, nrows):
    """Whether the integer rows, given by column, annihilate nums exactly."""
    acc = [0] * nrows
    for c, n in nums.items():
        for i, a in columns.get(c, ()):
            acc[i] += a * n
    return not any(acc)


def mat_vec(m: Matrix, vec):
    out = [ZERO] * m.rows
    for (r, c), v in m.entries.items():
        x = vec[c]
        if x:
            out[r] = out[r] + v * x
    return out
