"""Sparse exact linear algebra over the rationals.

Entries are int or Fraction.  One routine, `_echelon`, computes a
reduced echelon form, and a kernel basis calls it twice; the same
routines serve Q and the integers mod p:

* `_echelon(rows, order, ...)` runs `_eliminate`'s forward pass with
  the columns in the given order, each column pivoting on its sparsest
  holder row, the first such row on a tie, so a sparse pivot row keeps
  the eliminated rows sparse.  It then back-substitutes, last pivot
  first: each triangular row is popped off the list, cleared of the
  later pivot columns by the finished rows, and reduced once.  It
  returns {pivot col: row}, each row 1 at its pivot and 0 at every
  other pivot column: the unique reduced echelon form in that order.
* `_field_kernel` calls it on M with the columns in a static
  fill-reducing order, fewest nonzeros first, ties by index (Markowitz
  1957; Duff, Erisman and Reid, *Direct Methods for Sparse Matrices*,
  ch. 7), and reads one kernel vector per non-pivot column g off the
  rows R_p: v_g = e_g - sum_p R_p[g] e_p.  That basis depends on the
  pivot order, so it calls `_echelon` again on the basis with the
  columns in reverse order, a d x n reduction for nullity d.  The
  result depends on the kernel alone: it is {v_f}, where f runs over
  the free columns of the reduced row echelon form of M and v_f has a
  1 at f, zeros at the other free columns and its last nonzero at f.
  In column order, {v_f} is the reduced-echelon kernel basis.

A field is given to these routines as three functions, (inverse, add,
reduce).  Over Q (`_RATIONALS`), add is freefield.sadd, which drops the
entries that vanish, and reduce is the identity.  Mod p (`_field_mod`),
the reduction is delayed (Dumas, Giorgi and Pernet, FFLAS-FFPACK, *ACM
TOMS* 35(3), 2008): add(row, pivot_row, f) reduces f alone and sets
row[c] = row.get(c, 0) + f * v, with no % p and no zero test per entry,
and reduce(x) = x % p runs only where a value is read.  In the forward
pass a row holds a column only if its entry there reduces to nonzero,
and an entry that reduces to 0 is dropped at that test; each pivot row
is scaled and fully reduced; the eliminated entry is deleted.  So the
kernel basis read off the first form may hold its entries -R_p[g]
unreduced.  In the back-substitution a row is updated only by finished,
reduced rows, by the reduced entry it holds at their pivot, and is
reduced once when it is finished.  f and every pivot-row entry lie in
[0, p), so each update adds less than p^2 (< 2^122 for a 61-bit prime,
< 2^382 for a 191-bit one), and an entry that u updates touched stays
below u * p^2 + p: an exact int, never a wrong residue.  The residues handed to the lift lie in [0, p) and are the
ones that reducing at every update gives, since the reduced echelon
form mod p is unique; and whatever the residues, a lift is only
returned once M v = 0 holds in exact integer arithmetic.

Kernel bases are computed modulo one prime at a time and lifted back
to the rationals (multimodular echelon forms, Stein, *Modular Forms*,
ch. 7, with no combination of residues across primes):

1. each row is scaled by the lcm of its denominators to integers
   (integer_multiple);
2. the primes run narrow to wide: under `WIDE_COLUMNS` = 300 columns
   the eight largest primes <= 2^61 - 1 (`PRIMES`) come first, and
   every matrix then has the eight largest Proth primes k 2^96 + 1
   below 2^191 (`WIDE_PRIMES`);
3. for each prime p in turn, the canonical kernel is taken mod p and
   every entry is lifted by rational reconstruction with |numerator|,
   denominator <= isqrt(p // 2) (Wang's extended Euclid);
4. each lifted vector v is certified by checking M v = 0 in exact
   integer arithmetic, and the first prime at which every vector
   passes gives the answer.  A failed certificate (an unlucky prime)
   moves on to the next prime of the same width; a failed
   reconstruction means the entries are too tall for that width, so
   the rest of its primes are skipped, and after the wide primes the
   kernel is taken over Q.

The cutoff rests on measured heights, the largest bit length of a
numerator or denominator in a block's canonical kernel basis.  Every
invariant block under 300 columns is at most 26 bits tall, within the
30 bits a 61-bit prime reconstructs.  Seven blocks are taller than 30
bits, each with 395 columns or more, up to 85 bits at block (12, 0),
within the 95 bits a 191-bit prime reconstructs.  So through
`basis.MAX_WEIGHT` every nonempty invariant block certifies on its
first prime.  The small blocks keep the narrow primes because an update
with 191-bit ints costs more.

A certified lift is the exact answer, whichever prime gave it.  The
vector v_f of free column f mod p has a 1 at f, zeros at the other free
columns and support in columns <= f, and so has its lift.  So d
certified vectors are independent kernel vectors over Q, and nullity_Q
>= d = nullity_p >= nullity_Q, since the rank mod p is at most the rank
over Q.  They span the kernel over Q in reduced echelon form, and that
basis is unique.  A prime that divides a pivot, or is too narrow for an
entry, fails the lift or the certificate, and another prime is tried
(step 4).  When the wide primes fail too, the same routines run over Q
on the same integer rows instead; scaling rows leaves the kernel unchanged.  Kernel vector
entries are int when integral and Fraction otherwise; a lift with
common denominator 1 builds its entries as ints, without a Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

from .freefield import check_int, sadd

# the eight largest primes <= 2^61 - 1, in descending order, written out
# so that importing the module searches for none
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229,
          2**61 - 259, 2**61 - 283, 2**61 - 339, 2**61 - 391)

# the eight largest primes k 2^96 + 1 (k odd) below 2^191, in descending
# order; 3, 5, 13, 3, 3, 7, 3 and 3 are Proth witnesses of their primality
# (a^((p - 1)/2) = -1 mod p, Proth 1878)
WIDE_PRIMES = tuple(k * 2**96 + 1 for k in (
    39614081257132168796771974975, 39614081257132168796771974947,
    39614081257132168796771974905, 39614081257132168796771974501,
    39614081257132168796771974117, 39614081257132168796771974083,
    39614081257132168796771974063, 39614081257132168796771973865))

# a matrix with this many columns or more is eliminated mod WIDE_PRIMES
WIDE_COLUMNS = 300

_SHAPE = "matrix dimensions/indices"


class Matrix:
    """Sparse rows x cols matrix; entries maps (row, col) -> int or Fraction.
    A dimension or index that is not an int, or is a bool, raises
    TypeError (through check_int), as does a bool entry; a negative
    dimension raises ValueError."""

    def __init__(self, rows: int, cols: int, entries=None):
        check_int(rows, _SHAPE)
        check_int(cols, _SHAPE)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions are >= 0, not %dx%d" % (rows, cols))
        self.rows, self.cols = rows, cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                check_int(r, _SHAPE)
                check_int(c, _SHAPE)
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
                if type(v) is bool or not isinstance(v, (int, Fraction)):
                    raise TypeError("matrix entries are int or Fraction, not %s"
                                    % type(v).__name__)
                if v:
                    self.entries[(r, c)] = v

    def row_lists(self):
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def kernel_basis(m: Matrix):
    """Basis of the right kernel in reduced echelon form: one vector per
    free column f of the reduced row echelon form of m, in column order,
    with a 1 at f, zeros at the other free columns and support in
    columns <= f.

    Computed mod one prime, narrow (PRIMES, for a matrix under
    WIDE_COLUMNS columns) before wide (WIDE_PRIMES), and certified, else
    over Q; either way by two reduced echelon forms
    (_echelon), of m in a fill-reducing column order and of the kernel
    basis read off it in reverse column order (see above).
    """
    rows = _integer_rows(m)
    basis = _modular_kernel(rows, m.cols)
    if basis is None:
        basis = [_vector(m.cols, v.items())
                 for _, v in _field_kernel(rows, m.cols, *_RATIONALS)]
    return basis


def _vector(ncols, entries):
    """Dense vector of (col, rational) entries, each an int if integral."""
    vec = [0] * ncols
    for c, x in entries:
        vec[c] = x.numerator if x.denominator == 1 else x
    return vec


def integer_multiple(vec):
    """vec ({key: int or Fraction}) times the lcm of its entries'
    denominators, as {key: int}.  The one integer rescaling of the
    package: kernel_basis scales each row with it, chiral.sl2 each
    invariant state."""
    den = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items()}


def _integer_rows(m: Matrix):
    """The nonzero rows of m, each scaled by the lcm of its denominators,
    as {col: int}."""
    return [integer_multiple(row) for row in m.row_lists() if row]


def _modular_kernel(int_rows, ncols):
    """kernel_basis of the integer rows via their canonical kernel mod
    the first prime whose lift passes the exact certificate, or None
    when no prime gives one.  The primes run narrow to wide: PRIMES
    under WIDE_COLUMNS columns, then WIDE_PRIMES.  A lift that fails the
    certificate (an unlucky prime) goes on to the next prime of the same
    width; one that fails rational reconstruction (entries too tall for
    the width) skips the rest of that width.  Leaves int_rows
    unchanged."""
    columns = {}
    for i, row in enumerate(int_rows):
        for c, a in row.items():
            columns.setdefault(c, []).append((i, a))
    widths = (PRIMES, WIDE_PRIMES) if ncols < WIDE_COLUMNS else (WIDE_PRIMES,)
    for primes in widths:
        for p in primes:
            residues = [{c: y for c, x in row.items() if (y := x % p)}
                        for row in int_rows]
            bound = isqrt(p // 2)
            basis = []
            for _, vec in _field_kernel(residues, ncols, *_field_mod(p)):
                lifted = _lift(vec.items(), p, bound)
                if lifted is None or not _certified(lifted[0], columns,
                                                    len(int_rows)):
                    break
                nums, den = lifted
                basis.append(_vector(ncols, nums.items() if den == 1 else
                                     ((c, Fraction(n, den))
                                      for c, n in nums.items())))
            else:
                return basis
            if lifted is None:
                break  # too tall for this width
    return None


def _field_kernel(rows, ncols, inverse, add, reduce):
    """The canonical kernel [(f, v_f), ...] of rows ({col: entry},
    changed in place) over a field given by three functions: inverse(x);
    add(row, pivot_row, f), which sets row += f * pivot_row and returns
    row; and reduce(x), which takes an entry that add left behind to its
    canonical value (_RATIONALS over Q, _field_mod(p) mod p).

    Two calls of _echelon: on rows, with the columns in count order,
    then on the kernel basis read off its rows R_p, v_g = e_g - sum_p
    R_p[g] e_p for every non-pivot g, with the columns in reverse order.
    The entries -R_p[g] are left unreduced, since _eliminate reduces
    where it reads.  Mod p each back-substitution update of either call
    adds f * v < p^2 to an entry, f and v reduced."""
    count = Counter(c for row in rows for c in row)
    order = sorted(count, key=lambda c: (count[c], c))
    echelon = _echelon(rows, order, inverse, add, reduce)
    basis = {g: {g: 1} for g in range(ncols) if g not in echelon}
    for col, row in echelon.items():
        for g, a in row.items():
            if g != col:
                basis[g][col] = -a
    canonical = _echelon(list(basis.values()), range(ncols - 1, -1, -1),
                         inverse, add, reduce)
    return list(canonical.items())


def _echelon(rows, order, inverse, add, reduce):
    """The reduced echelon form of rows ({col: entry}, changed in place)
    with the columns in the given order, as {pivot col: row}, last pivot
    first: each row has a 1 at its pivot, no entry at another pivot and
    every entry reduced.  _eliminate's forward pass, then back-
    substitution: each row is popped off the triangular list, cleared of
    the later pivots by the finished rows, which hold no other pivot,
    and reduced once, which drops the cleared entries."""
    triangular = list(_eliminate(rows, order, inverse, add, reduce))
    echelon = {}
    while triangular:
        col, row = triangular.pop()
        for c in [c for c in row if c in echelon]:
            add(row, echelon[c], -row[c])
        echelon[col] = {c: y for c, x in row.items() if (y := reduce(x))}
    return echelon


def _eliminate(rows, order, inverse, add, reduce):
    """Forward elimination of rows ({col: entry}, changed in place),
    taking the columns in the given order.  Each column pivots on its
    sparsest holder among the rows not yet pivoted (the first on a tie)
    and is eliminated from the other holders.  A row holds col when its
    entry there reduces to nonzero; one that reduces to zero is dropped
    at that test.  Yields (col, pivot row scaled to 1 at col and
    reduced) in pivot order; a pivot row holds no earlier pivot
    column."""
    rows = [r for r in rows if r]
    for col in order:
        if not rows:
            return
        holders = []
        for r in rows:
            if col in r:
                if reduce(r[col]):
                    holders.append(r)
                else:
                    del r[col]
        if not holders:
            continue
        chosen = min(holders, key=len)
        inv = inverse(chosen[col])
        pivot_row = {c: y for c, x in chosen.items() if (y := reduce(inv * x))}
        for r in holders:
            if r is not chosen:
                add(r, pivot_row, -r[col])
                r.pop(col, None)
        rows = [r for r in rows if r and r is not chosen]
        yield col, pivot_row


def _inverse(x):
    return 1 / Fraction(x)


def _same(x):
    return x


# (inverse, add, reduce) of _field_kernel over Q: sadd drops the entries
# that vanish, so there is nothing left to reduce
_RATIONALS = (_inverse, sadd, _same)


def _field_mod(p):
    """(inverse, add, reduce) of _field_kernel for the integers mod the
    prime p.  add reduces only f: an entry it updates grows by f * v <
    p^2 for a reduced pivot entry v, and reduce takes it back to [0, p)
    where it is read."""

    def inverse(x):
        return pow(x, -1, p)

    def add(row, pivot_row, f):
        """row += (f mod p) * pivot_row, unreduced."""
        f %= p
        get = row.get
        for c, v in pivot_row.items():
            row[c] = get(c, 0) + f * v
        return row

    def reduce(x):
        return x % p

    return inverse, add, reduce


def _lift(residues, p, bound):
    """Rational reconstruction of a vector given as (col, residue mod p)
    pairs, every entry n/d with |n|, d <= bound: (integer numerators by
    column, common denominator), or None."""
    den = 1
    parts = []
    for c, x in residues:
        y = x * den % p
        if y <= bound:
            n, d = y, 1
        elif p - y <= bound:
            n, d = y - p, 1
        else:
            nd = _reconstruct(y, p, bound)
            if nd is None:
                return None
            n, d = nd
            den *= d
        parts.append((c, n, den))  # the entry is n / den
    return {c: n * (den // part_den) for c, n, part_den in parts}, den


def _reconstruct(y, p, bound):
    """n/d with n = d y mod p, |n| <= bound and 0 < d <= bound (Wang's
    extended Euclid), or None."""
    r0, r1 = p, y
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified(nums, columns, nrows):
    """Whether the integer rows, given by column, annihilate nums exactly."""
    acc = [0] * nrows
    for c, n in nums.items():
        for i, a in columns.get(c, ()):
            acc[i] += a * n
    return not any(acc)
