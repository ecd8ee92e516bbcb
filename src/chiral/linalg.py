"""Sparse exact linear algebra over the rationals.

Entries are int or Fraction.  One routine, `_rref`, row reduces over Q
and mod P, pivoting on the first nonzero entry in column order; no
pivot-size heuristics, so results are deterministic for a given matrix.

Kernel bases are computed modulo the prime P = 2^61 - 1 and lifted back
to the rationals:

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
entry is too large to reconstruct), `_rref` runs over Q on the same
integer rows instead; scaling rows leaves the RREF unchanged.  Kernel
vector entries are int when integral and Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .freefield import sadd

P = (1 << 61) - 1
# rational reconstruction returns n/d with |n|, d <= _RECON_BOUND
_RECON_BOUND = isqrt(P // 2)


class Matrix:
    """Sparse rows x cols matrix; entries maps (row, col) -> int or Fraction."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
                if not isinstance(v, (int, Fraction)):
                    raise TypeError("matrix entries are int or Fraction, not %s"
                                    % type(v).__name__)
                if v:
                    self.entries[(r, c)] = v

    def __getitem__(self, rc):
        return self.entries.get(rc, 0)

    def row_lists(self):
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def rank(m: Matrix) -> int:
    return len(_rref(_integer_rows(m), m.cols, _inverse, sadd)[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel, one vector per free column, in column order.

    Vector for free column f has a 1 in position f and the negated reduced
    column above the pivots, so the list is itself in reduced echelon form.
    Computed mod P and certified, else over Q (see above).
    """
    rows = _integer_rows(m)
    basis = _modular_kernel(rows, m.cols)
    if basis is None:
        reduced, pivots = _rref(rows, m.cols, _inverse, sadd)
        basis = [_vector(m.cols, [(f, 1)] + [(pcol, -x) for pcol, x in column])
                 for f, column in _free_columns(reduced, pivots, m.cols)]
    return basis


def _vector(ncols, entries):
    """Dense vector of (col, rational) entries, each an int if integral."""
    vec = [0] * ncols
    for c, x in entries:
        vec[c] = x.numerator if x.denominator == 1 else x
    return vec


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
    as {col: int}."""
    out = []
    for row in m.row_lists():
        if row:
            den = lcm(*(v.denominator for v in row.values()))
            out.append({c: v.numerator * (den // v.denominator)
                        for c, v in row.items()})
    return out


def _modular_kernel(int_rows, ncols):
    """kernel_basis of the integer rows via their RREF mod P, or None
    when a lifted vector fails reconstruction or the exact certificate.
    Leaves int_rows unchanged."""
    columns = {}
    for i, row in enumerate(int_rows):
        for c, a in row.items():
            columns.setdefault(c, []).append((i, a))
    residues = [{c: x % P for c, x in row.items() if x % P} for row in int_rows]
    basis = []
    for f, column in _free_columns(*_rref(residues, ncols, _inverse_mod_p,
                                          _sadd_mod_p), ncols):
        lifted = _lift([(f, 1)] + [(pcol, P - x) for pcol, x in column])
        if lifted is None:
            return None
        nums, den = lifted
        if not _certified(nums, columns, len(int_rows)):
            return None
        basis.append(_vector(ncols, ((c, Fraction(n, den))
                                     for c, n in nums.items())))
    return basis


def _rref(rows, ncols, inverse, add):
    """Reduced row echelon form of rows ({col: entry}, reduced in place)
    over the field given by inverse(x) and add(row, pivot_row, f), which
    sets row += f * pivot_row, drops entries that vanish and returns row
    (freefield.sadd over Q); returns (rows, pivot columns).  Forward
    elimination first, then back substitution, so only fully reduced rows
    are subtracted from the rows above them."""
    rows = [r for r in rows if r]
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
        pivot_row = add({}, pivot_row, inverse(pivot_row[col]))
        for r in rows:
            f = r.get(col)
            if f:
                add(r, pivot_row, -f)
        rows = [r for r in rows if r]
        pivots.append(col)
        reduced.append(pivot_row)
    for j in range(len(reduced) - 1, 0, -1):
        pivot_row, col = reduced[j], pivots[j]
        for r in reduced[:j]:
            f = r.get(col)
            if f:
                add(r, pivot_row, -f)
    return reduced, pivots


def _inverse(x):
    return 1 / Fraction(x)


def _inverse_mod_p(x):
    return pow(x, -1, P)


def _sadd_mod_p(row, pivot_row, f):
    """row += f * pivot_row mod P, dropping entries that vanish."""
    for c, v in pivot_row.items():
        w = (row.get(c, 0) + f * v) % P
        if w:
            row[c] = w
        else:
            row.pop(c, None)
    return row


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
    out = [0] * m.rows
    for (r, c), v in m.entries.items():
        x = vec[c]
        if x:
            out[r] += v * x
    return out
