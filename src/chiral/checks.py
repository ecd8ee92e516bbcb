"""Verification sweeps shared by the test suite and the command line.

Each function exhaustively checks one family of identities over graded
basis states and returns a list of human-readable failure strings; an
empty list means every instance held exactly.  Each size has one home
here.  The engine families take their ranges as parameters: `chiral
verify` runs them at ENGINE_CLI, and ENGINE_FULL is the widest sweep
that fits the one-minute budget.  The sl2 sweep runs at SL2_SIZES and
EMPTINESS_KMAX.  geometry_failures defaults to its `chiral verify` size.
"""

from . import freefield, geometry as geo, sl2
from .basis import (charges, enumerate_basis, enumerate_full, grades,
                    mon_scount, split_by_s)
from .chart import ChartFn, I, metric_data
from .freefield import (VACUUM, _intern, _prod_mono, _state, binomial,
                        mon_charge, mon_parity, mon_str, mon_weight,
                        normalize, nth_product, sadd, sscale, state_str,
                        translate, weight_charge, B, C, GAMMA)


def _family(kmax, dmax):
    return [mon for k, l in grades(kmax) for mon in enumerate_full(k, l, dmax)]


def _failure(what, lhs, rhs):
    return "%s: lhs = %s, rhs = %s" % (what, state_str(lhs), state_str(rhs))


def _fail(fails, what, lhs, rhs):
    fails.append(_failure(what, lhs, rhs))


def vacuum_failures(amax, dmax, nbound):
    """a_(n)|0> = 0 for n >= 0 and a_(-1)|0> = a, and the vacuum
    operator: |0>_(n) a = a at n = -1 and 0 otherwise, for n from
    -nbound up.  For n >= weight(a), a_(n)|0> and |0>_(n) a lie below
    weight 0, where every product is zero by the grading, so only
    n < weight(a) is read."""
    fails = []
    for am in _family(amax, dmax):
        a = {am: 1}
        w = mon_weight(am)
        for n in range(min(nbound + 1, w)):
            got = nth_product(a, n, VACUUM)
            if got:
                _fail(fails, "vacuum: %s_(%d)|0>" % (mon_str(am), n), got, {})
        got = nth_product(a, -1, VACUUM)
        if got != a:
            _fail(fails, "vacuum: %s_(-1)|0>" % mon_str(am), got, a)
        for n in range(-nbound, w):
            got, want = nth_product(VACUUM, n, a), a if n == -1 else {}
            if got != want:
                _fail(fails, "vacuum: |0>_(%d)%s" % (n, mon_str(am)),
                      got, want)
    return fails


def translation_failures(amax, xmax, adeg, xdeg, nbound):
    """(translate a)_(n) = -n a_(n-1) as operators."""
    fails = []
    X = [(xm, _intern(xm), mon_weight(xm)) for xm in _family(xmax, xdeg)]
    span = range(-nbound, nbound + 1)
    for am in _family(amax, adeg):
        ia, wa = _intern(am), mon_weight(am)
        ta = translate({am: 1})
        tids = [(_intern(tm), ct) for tm, ct in ta.items()]
        # the memo rows of a_(n-1) and of each monomial of (T a)_(n)
        rows = [(n, freefield._prod_rows[ia, n - 1],
                 [(ct, freefield._prod_rows[it, n]) for it, ct in tids])
                for n in span]
        for xm, ix, wx in X:
            for n, arow, trows in rows:
                # both sides lie at weight wa + wx - n; below 0 they are
                # zero, and no row is read
                if wa + wx < n:
                    break
                # lhs - rhs, accumulated on ids
                diff = {k: n * c for k, c in arow[ix]}
                get = diff.get
                for ct, trow in trows:
                    for k, c in trow[ix]:
                        diff[k] = get(k, 0) + ct * c
                if any(diff.values()):
                    x = {xm: 1}
                    _fail(fails, "translation: (T %s)_(%d) %s"
                          % (mon_str(am), n, mon_str(xm)),
                          nth_product(ta, n, x),
                          sscale(nth_product({am: 1}, n - 1, x), -n))
    return fails


def normalization_failures():
    """normalize is idempotent and odd transpositions flip the sign."""
    fails = []
    swapped = normalize([(C, -1), (B, -1)])
    expected = {((B, -1), (C, -1)): -1}
    if swapped != expected:
        _fail(fails, "normalization: odd swap", swapped, expected)
    if normalize([(B, -1), (B, -1)]):
        _fail(fails, "normalization: odd square", normalize([(B, -1), (B, -1)]), {})
    even = normalize([(GAMMA, -2), (GAMMA, -2), (B, -3)])
    key = next(iter(even))
    if normalize(list(key)) != even:
        _fail(fails, "normalization: idempotence", normalize(list(key)), even)
    return fails


def _commutator_failure(am, m, bm, n, xm, sign):
    """The failure string of one commutator instance, both sides as
    states."""
    a, b, x = {am: 1}, {bm: 1}, {xm: 1}
    lhs = nth_product(a, m, nth_product(b, n, x))
    sadd(lhs, nth_product(b, n, nth_product(a, m, x)), -sign)
    rhs = {}
    for j in range(mon_weight(am) + mon_weight(bm)):
        sadd(rhs, nth_product(nth_product(a, j, b), m + n - j, x),
             binomial(m, j))
    return _failure("commutator: [%s_(%d), %s_(%d)] %s"
                    % (mon_str(am), m, mon_str(bm), n, mon_str(xm)), lhs, rhs)


def commutator_failures(blocks, nbound):
    """The commutator formula

        a_(m)(b_(n)x) - (-1)^{|a||b|} b_(n)(a_(m)x)
            = sum_j C(m, j) (a_(j)b)_(m+n-j) x

    for all m, n with |m|, |n| <= nbound.  Each block (amax, bmax, xmax,
    dmax) sweeps basis triples with weight(a) <= amax, weight(b) <= bmax,
    weight(x) <= xmax, all at gamma_(-1)-degree <= dmax.  Grading
    additivity of every nonzero product a_(j)b is checked alongside.

    The left side at (b, a, n, m) is -(-1)^{|a||b|} times the one at
    (a, b, m, n), so a pair a != b whose swap the block also sweeps is
    checked together with its swap, from one left side.  Failures are
    listed in sweep order all the same.  The binomials C(m, j) of the
    right sides come from one table, built here for the whole span.
    """
    span = range(-nbound, nbound + 1)
    jmax = max((amax + bmax for amax, bmax, xmax, dmax in blocks), default=0)
    binom = [[binomial(m, j) for j in range(jmax)] for m in span]
    cmax = max((abs(c) for row in binom for c in row), default=0)
    fails = []
    for amax, bmax, xmax, dmax in blocks:
        A, B_ = _family(amax, dmax), _family(bmax, dmax)
        X = [(xm, _intern(xm), mon_weight(xm)) for xm in _family(xmax, dmax)]
        apos = {am: i for i, am in enumerate(A)}
        bpos = {bm: k for k, bm in enumerate(B_)}
        found = []
        for i, am in enumerate(A):
            for k, bm in enumerate(B_):
                swap = (apos.get(bm), bpos.get(am))
                if am == bm or None in swap:
                    pairs = [(i, k, am, bm)]
                elif swap > (i, k):
                    pairs = [(i, k, am, bm), swap + (bm, am)]
                else:
                    continue  # checked with its swap
                _commutator_pairs(found, pairs, X, nbound, binom, cmax)
        found.sort()
        fails.extend(what for key, what in found)
    return fails


# bits per signed digit of the packed (m, n) instances of _commutator_pairs
DIGIT_BITS = 64


def _commutator_pairs(found, pairs, X, nbound, binom, cmax):
    """Check the commutator formula on one pair (a, b), or on a pair and
    its swap (b, a), adding (sweep position, failure) to found.  binom
    holds C(m, j) at [m + nbound][j] for |m| <= nbound and every
    j < weight(a) + weight(b), and cmax is its largest absolute value.

    All (m, n) instances of one x are checked in one table, keyed by
    monomial id.  A monomial of lhs - rhs at (m, n) has weight top - m -
    n, top = weight(a) + weight(b) + weight(x) - 2, so its id fixes m +
    n and m alone names the instance.  The entry of id mid packs the
    coefficients of mid at all those instances into one int, as signed
    digits of W = DIGIT_BITS bits: the digit at position m + nbound is
    the coefficient at (m, top - weight(mid) - m).  So
    a term added to every instance of one anti-diagonal costs one update,
    c times its packed coefficients.  Each pair then costs one pass over
    the table per x; a nonzero entry is decoded digit by digit, and each
    nonzero digit names a failing (m, n), whose failure is built anew
    from states.

    A monomial p of a_(j)b fixes j, so the product p_(t)x serves every
    (m, n) with m + n = t + j: it is read once per x and added, with
    those instances' binomials packed into one coefficient, in one
    update per monomial.  Every product below weight 0 is zero and is
    never read.  Products are looked up in their memo rows by the id of
    their argument; a row computes and keeps only its misses.

    The packing is exact while no digit reaches 2^(W-1) in size: then
    the int is zero exactly when every digit is, and the balanced digits
    decode uniquely.  Let K and L bound the coefficients and the lengths
    of the stored products (freefield._largest).  One digit of the left
    side sums at most L terms c_y c of a_(m)(b_(n)x), one per monomial
    y of b_(n)x, and as many of b_(n)(a_(m)x): at most 2 K^2 L.  The
    right side sums, over the j < weight(a) + weight(b) and the at most
    L monomials p of a_(j)b, C(m, j) c_p times the coefficient of mid in
    p_(t)x: at most (weight(a) + weight(b)) cmax K^2 L.  Every decision
    checks K^2 L (2 + (weight(a) + weight(b)) cmax) < 2^(W-1) first and
    raises OverflowError otherwise, so an entry too large to pack can
    never pass as zero.  The count takes every product to be homogeneous
    in weight, as the engine's are: a product that broke its grading
    could put another instance's terms on the same digit.  The grading
    check on a_(j)b and the translation sweep, which keys each n apart,
    are there to catch such a product.
    """
    span = range(-nbound, nbound + 1)
    size = len(span)
    am, bm = pairs[0][2:]
    ia, ib = _intern(am), _intern(bm)
    wa, la, pa = mon_weight(am), mon_charge(am), mon_parity(am)
    wb, lb, pb = mon_weight(bm), mon_charge(bm), mon_parity(bm)
    sign = -1 if pa & pb else 1
    limit = (1 << (DIGIT_BITS - 1)) // (2 + (wa + wb) * cmax)
    memo = freefield._prod_rows
    arows = [memo[ia, m] for m in span]
    brows = [memo[ib, n] for n in span]
    # For each pair, the right side sum_j C(m,j) (a_(j)b)_(m+n-j) x as
    # (least weight of x, row of p_(t), packed coefficient) over the
    # monomials p of the nonzero a_(j)b, scaled so that the table below
    # is lhs - rhs for the first pair and, for its swap, lhs + sign rhs'
    # = -sign (lhs' - rhs') as lhs' = -sign lhs.  The swap's right side
    # at instance (m, n) is the one at (n, m).  Instances at m + n = t + j
    # lie below weight 0 unless weight(x) >= t + j + 2 - wa - wb.
    right = []
    for v, (i, k, a, b) in enumerate(pairs):
        terms = []
        for j in range(wa + wb):
            pj = _prod_mono(_intern(a), j, _intern(b))
            if not pj:
                continue
            if weight_charge(_state(pj)) != (wa + wb - j - 1, la + lb):
                found.append(((i, k, 0, j), _failure(
                    "grading: %s_(%d)%s" % (mon_str(a), j, mon_str(b)),
                    _state(pj), {})))
            packed = {}
            for mi, m in enumerate(span):
                for ni, n in enumerate(span):
                    cj = binom[ni if v else mi][j]
                    if cj:
                        cj = sign * cj if v else -cj
                        t = m + n - j
                        packed[t] = (packed.get(t, 0)
                                     + (cj << DIGIT_BITS * mi))
            for t, pk in packed.items():
                terms.extend((t + j + 2 - wa - wb, memo[ip, t], cp * pk)
                             for ip, cp in pj)
        terms.sort(key=lambda term: term[0])
        right.append(terms)
    for xpos, (xm, ix, wx) in enumerate(X):
        # lhs: a_(m)(b_(n)x) - sign b_(n)(a_(m)x) at every (m, n) whose
        # weight wa + wb + wx - m - n - 2 is at least 0
        top = wa + wb + wx - 2
        table = {}
        get = table.get
        for ni, n in enumerate(span):
            if n > wb + wx - 1:
                break
            y = brows[ni][ix]
            if y:
                for mi in range(min(size, top - n + nbound + 1)):
                    arow = arows[mi]
                    shift = DIGIT_BITS * mi
                    for iy, cy in y:
                        cy <<= shift
                        for mid, c in arow[iy]:
                            table[mid] = get(mid, 0) + cy * c
        for mi, m in enumerate(span):
            if m > wa + wx - 1:
                break
            shift = DIGIT_BITS * mi
            z = [(iz, -sign * cz << shift) for iz, cz in arows[mi][ix]]
            if z:
                for ni in range(min(size, top - m + nbound + 1)):
                    brow = brows[ni]
                    for iz, cz in z:
                        for mid, c in brow[iz]:
                            table[mid] = get(mid, 0) + cz * c
        for v, (i, k, a, b) in enumerate(pairs):
            diff = table if v or len(pairs) == 1 else table.copy()
            get = diff.get
            for need, row, pk in right[v]:
                if wx < need:
                    break
                for mid, c in row[ix]:
                    diff[mid] = get(mid, 0) + c * pk
            K, L = freefield._largest
            if K * K * L >= limit:
                raise OverflowError(
                    "commutator entries may not fit %d-bit digits: largest "
                    "coefficient %d, longest product %d"
                    % (DIGIT_BITS, K, L))
            if any(diff.values()):
                for m, n in _failing(diff, top, span):
                    mm, nn = (n, m) if v else (m, n)
                    found.append(((i, k, 1, xpos, mm, nn),
                                  _commutator_failure(a, mm, b, nn, xm,
                                                      sign)))


def _failing(diff, top, span):
    """The (m, n) of every nonzero digit of the packed entries of diff,
    as a set; see _commutator_pairs."""
    mask, half = (1 << DIGIT_BITS) - 1, 1 << (DIGIT_BITS - 1)
    weights = freefield._weights
    out = set()
    for mid, packed in diff.items():
        diagonal = top - weights[mid]
        for m in span:
            digit = packed & mask
            if digit >= half:
                digit -= mask + 1
            if digit:
                out.add((m, diagonal - m))
            packed = (packed - digit) >> DIGIT_BITS
    return out


ENGINE_CLI = {
    "amax": 2, "xmax": 1, "adeg": 1, "xdeg": 1, "nbound": 2,
    "blocks": ((2, 2, 1, 0), (1, 1, 1, 1)),
}
# widest sweep fitting the one-minute budget on a single core; the
# plain product of the per-role weight caps does not.  It took 10-16 s
# over nine cold runs on a shared 2-core VM under Python 3.11.7, whose
# speed varied within the hour, at about 182 MB peak RSS, and leaves 900,770 products in the memo, whose
# largest coefficient is 576 and longest product 324 terms.  So the
# bound on its packed commutator digits, 576^2 * 324 * (2 + 4 * 10),
# is below 2^33, far inside the 64-bit digits.
ENGINE_FULL = {
    "amax": 3, "xmax": 2, "adeg": 2, "xdeg": 1, "nbound": 3,
    "blocks": ((2, 2, 2, 0), (3, 1, 1, 0), (1, 1, 1, 2)),
}


def engine_failures(amax, xmax, adeg, xdeg, nbound, blocks):
    fails = []
    fails += vacuum_failures(amax, adeg, nbound)
    fails += normalization_failures()
    fails += translation_failures(amax, xmax, adeg, xdeg, nbound)
    fails += commutator_failures(blocks, nbound)
    return fails


# the sl2 sweep's sizes (kmax, dmax, kernel_kmax): relations and brackets
# through weight kmax at gamma_(-1)-degree <= dmax, invariant kernels
# through weight kernel_kmax
SL2_SIZES = (2, 2, 3)
EMPTINESS_KMAX = 5


def emptiness_failures():
    """split_by_s blocks [k, l, s] with k < |s| are empty, and every s
    with |s| <= k is hit by some charge, through weight EMPTINESS_KMAX."""
    fails = []
    for k in range(EMPTINESS_KMAX + 1):
        seen = set()
        for l in charges(k):
            blocks = split_by_s(enumerate_basis(k, l))
            for s, mons in blocks.items():
                if k < abs(s) and mons:
                    fails.append("emptiness: [%d,%d,%d] nonempty: %s"
                                 % (k, l, s, mon_str(mons[0])))
                if mons:
                    seen.add(s)
        for s in range(-k, k + 1):
            if s not in seen:
                fails.append("emptiness: no block with s=%d at weight %d" % (s, k))
    return fails


def sl2_failures():
    kmax, dmax, kernel_kmax = SL2_SIZES
    fails = []
    relation, bracket = sl2.verify_sl2(kmax, dmax)
    for (i, k, l, mon) in relation:
        fails.append("relationL i=%d fails on %s at (%d,%d)"
                     % (i, mon_str(mon), k, l))
    for (i, j, k, l, mon) in bracket:
        fails.append("bracket [L(%d),L(%d)] fails on %s at (%d,%d)"
                     % (i, j, mon_str(mon), k, l))
    for k, l in grades(kernel_kmax):
        try:
            sl2.invariants(k, l)
        except ArithmeticError as exc:
            fails.append("kernel routes disagree at (%d,%d): %s" % (k, l, exc))
    if len(sl2.invariants(0, 0).states) != 1:
        fails.append("dim W^T[0,0] != 1")
    if sl2.invariants(0, 1).states:
        fails.append("dim W^T[0,1] != 0")
    fails += emptiness_failures()
    return fails


def geometry_failures(kmax=2, case3_kmax=3):
    # imported per call, as perfbench/layertrace.py rebinds basis.basis_block
    from .basis import basis_block
    fails = []
    md = metric_data()
    if md.h != ChartFn.v_pow(-2, -2) * I:
        fails.append("metric: H != -2i v^-2: %r" % md.h)
    if md.h * md.h_inv != ChartFn.const(1):
        fails.append("metric: H Hinv != 1")
    if md.theta_coeff != ChartFn.v_pow(-1, -2):
        fails.append("metric: theta coefficient != -2 v^-1: %r" % md.theta_coeff)
    if md.b0_theta != I:
        fails.append("metric: B_(0) theta != i: %r" % md.b0_theta)
    one, v = ChartFn.const(1), ChartFn.v_pow(1)
    i_hinv = I * md.h_inv
    for k, l in grades(kmax):
        for mon in enumerate_basis(k, l):
            s = mon_scount(mon)
            sec = geo.FormSection(deg0={mon: v})
            for op, ds in ((geo.f1, -1), (geo.f2, -2)):
                for m2 in op(sec).monomials(1):
                    got = (mon_weight(m2), mon_charge(m2), mon_scount(m2))
                    if got != (k, l, s + ds):
                        fails.append("grading: F drops s wrongly on %s" % mon_str(mon))
            # the curvature apart from curvature_op: on A (x) 1, which
            # nabla_gamma kills, -i H^-1 (dbar_prime nabla_gamma -
            # nabla_gamma dbar_prime) is i H^-1 nabla_gamma dbar_prime,
            # read as a degree-0 section; it must be multiplication by l - s
            plain = geo.FormSection(deg0={mon: one})
            r = geo.nabla_gamma(geo.dbar_prime(plain))
            curv = geo.FormSection(deg0={m: i_hinv * g
                                         for m, g in r.deg1.items()})
            if geo.curvature_op(plain) != curv:
                fails.append("curvature != (l-s) id on %s" % mon_str(mon))
            if l - s in (1, 2):
                try:
                    chain = geo.solve_recursion(geo.seed_section(mon))
                except (ValueError, ArithmeticError) as exc:
                    fails.append("recursion failed on %s: %s" % (mon_str(mon), exc))
                    continue
                if len(chain) - 1 > k + s + 1:
                    fails.append("recursion too long on %s" % mon_str(mon))
                for t, res in enumerate(geo.chain_residuals(chain)):
                    if res:
                        fails.append("recursion identity t=%d fails on %s: %r"
                                     % (t, mon_str(mon), res))
                total = geo.FormSection()
                for a in chain:
                    total = total + a
                if geo.dbar_total(total):
                    fails.append("Dbar(sum) != 0 on %s" % mon_str(mon))
    for k, s in grades(case3_kmax):
        for mon in basis_block(k, s, s):
            sec = geo.FormSection(deg0={mon: one})
            if geo.f2(sec):
                fails.append("F2(A (x) 1) != 0 on %s" % mon_str(mon))
            if geo.dbar_prime(sec):
                fails.append("dbar_prime(A (x) 1) != 0 on %s" % mon_str(mon))
        try:
            geo.case3_kernel(k, s)
        except ArithmeticError as exc:
            fails.append("case-3 kernel check failed at (%d,%d): %s" % (k, s, exc))
    return fails
