import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest

from chiral import freefield
from chiral.checks import ENGINE_CLI, _family
from chiral.freefield import (BETA, GAMMA, B, C, VACUUM, VACUUM_MON, Q_STATE,
                              L_STATE, J_STATE, G_STATE, apply_mode,
                              apply_word, binomial, mon_charge, mon_parity,
                              mon_weight, mon_str, normalize, nth_product,
                              sadd, sscale, state_str, translate,
                              weight_charge, wick, _intern, _reach)


def test_normalize_ordering_and_sign():
    assert normalize([(C, -1), (B, -1)]) == {((B, -1), (C, -1)): -1}
    assert normalize([(B, -1), (C, -1)]) == {((B, -1), (C, -1)): 1}
    # even modes commute freely
    assert normalize([(GAMMA, -2), (BETA, -1)]) == {((BETA, -1), (GAMMA, -2)): 1}


def test_normalize_kills_repeated_odd_modes():
    # adjacent and separated repeats both vanish
    assert normalize([(B, -1), (B, -1)]) == {}
    assert normalize([(C, -2), (B, -1), (C, -2)]) == {}
    assert normalize([(C, -1), (C, -2), (C, -1)]) == {}
    # bosonic repeats survive
    assert normalize([(GAMMA, -2), (GAMMA, -2)]) == {((GAMMA, -2), (GAMMA, -2)): 1}


def test_normalize_rejects_annihilation_modes():
    with pytest.raises(ValueError):
        normalize([(BETA, 0)])


def test_normalize_rejects_annihilation_modes_in_any_position():
    # a repeated odd mode must not hide an annihilation mode behind it
    with pytest.raises(ValueError):
        normalize([(B, -1), (B, -1), (BETA, 0)])
    with pytest.raises(ValueError):
        normalize([(BETA, 0), (B, -1), (B, -1)])


def _normalize_oracle(modes, coeff):
    """Sort the modes; the sign is (-1)^(odd-odd inversions), and the
    state is zero if an odd mode repeats."""
    odd = [m for m in modes if m[0] in (B, C)]
    if len(set(odd)) < len(odd):
        return {}
    inversions = sum(1 for i, x in enumerate(odd) for y in odd[i + 1:] if x > y)
    return {tuple(sorted(modes)): coeff * (-1) ** inversions}


def test_normalize_matches_sort_and_sign_oracle():
    rng = random.Random(20261018)
    pool = [(g, n) for g in (BETA, GAMMA, B, C) for n in (-1, -2, -3)]
    zero = 0
    for _ in range(400):
        modes = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        coeff = rng.choice((1, -2, 3))
        expected = _normalize_oracle(modes, coeff)
        zero += not expected
        assert normalize(modes, coeff) == expected, modes
    # both outcomes are exercised
    assert 0 < zero < 400


def test_normalize_idempotent():
    st = normalize([(C, -3), (GAMMA, -2), (B, -1), (BETA, -4)])
    (mon, coeff), = st.items()
    assert normalize(list(mon), coeff) == st


def test_contractions():
    assert apply_mode(BETA, 0, {((GAMMA, -1),): 1}) == {VACUUM_MON: 1}
    assert apply_mode(GAMMA, 0, {((BETA, -1),): 1}) == {VACUUM_MON: -1}
    assert apply_mode(B, 0, {((C, -1),): 1}) == {VACUUM_MON: 1}
    assert apply_mode(C, 0, {((B, -1),): 1}) == {VACUUM_MON: 1}
    # nothing to contract
    assert apply_mode(GAMMA, 5, {((C, -1),): 1}) == {}
    assert apply_mode(B, 2, VACUUM) == {}


def test_apply_mode_koszul_sign():
    # c_(0) must pass b_(-1) (odd) before contracting the second b
    st = {((B, -1), (B, -2)): 1}
    assert apply_mode(C, 1, st) == {((B, -1),): -1}
    assert apply_mode(C, 0, st) == {((B, -2),): 1}


def test_apply_word_right_to_left():
    st = apply_word(((BETA, -1), (C, -1)), VACUUM)
    assert st == {((BETA, -1), (C, -1)): 1}


def test_vacuum_axioms_spot():
    q = dict(Q_STATE)
    for n in range(0, 4):
        assert nth_product(q, n, VACUUM) == {}
    assert nth_product(q, -1, VACUUM) == q
    assert nth_product(VACUUM, -1, q) == q


def test_nth_product_oracles():
    # Q_(0) b_(-1)|0> = beta_(-1)|0>
    assert nth_product(Q_STATE, 0, {((B, -1),): 1}) == {((BETA, -1),): 1}
    # beta_(-1)|0> _(0) gamma_(-1)|0> = |0>
    assert nth_product({((BETA, -1),): 1}, 0, {((GAMMA, -1),): 1}) == {VACUUM_MON: 1}
    # wick of noncontracting states is plain normal ordering
    assert wick({((BETA, -1),): 1}, {((C, -1),): 1}) == Q_STATE


def _assert_rejected(mon):
    # a monomial that is not normally ordered raises on either side of a
    # product, and is given no id
    for a, b in (({mon: 1}, VACUUM), (VACUUM, {mon: 1})):
        with pytest.raises(ValueError):
            nth_product(a, 0, b)
    assert mon not in freefield._ids


def test_nth_product_rejects_an_annihilation_mode():
    # beta_(0)|0> is zero, not a monomial; it used to multiply as zero
    _assert_rejected(((BETA, 0),))
    _assert_rejected(((BETA, -1), (C, 2)))


def test_nth_product_rejects_an_unknown_generator():
    _assert_rejected(((4, -1),))
    _assert_rejected(((BETA, -1), (-1, -2)))


def test_nth_product_rejects_modes_out_of_order():
    _assert_rejected(((GAMMA, -2), (BETA, -1)))
    _assert_rejected(((BETA, -1), (C, -1), (B, -1)))


def test_nth_product_rejects_a_repeated_odd_mode():
    _assert_rejected(((B, -1), (B, -1)))
    _assert_rejected(((BETA, -1), (C, -2), (C, -2)))
    # a repeated even mode is a monomial
    assert wick({((GAMMA, -2), (GAMMA, -2)): 1}, VACUUM) == {
        ((GAMMA, -2), (GAMMA, -2)): 1}


def test_nth_product_rejects_a_non_int_index_with_a_cold_or_warm_memo(
        monkeypatch):
    # the memo row of (a, 1) is found under (a, 1.0) too, so the answer
    # to n = 1.0 must not depend on whether that row is filled: both raise
    a, b = {((BETA, -1),): 1}, {((GAMMA, -1),): 1}
    monkeypatch.setattr(freefield, "_prod_rows", {})
    for warm in (False, True):
        if warm:
            assert nth_product(a, 1, b) == {}
            assert nth_product(a, 0, b) == VACUUM
        for n in (1.0, 0.0, Fraction(1)):
            with pytest.raises(TypeError, match="product indices are int"):
                nth_product(a, n, b)


def test_wick_quasi_commutativity_correction():
    b1 = {((B, -1),): 1}
    c1 = {((C, -1),): 1}
    direct = wick(b1, c1)
    swapped = wick(c1, b1)
    # :bc: + :cb: differs from zero by contraction terms only; here the
    # state-level identity is :bc: = -:cb: with no derivative correction
    assert direct == sscale(swapped, -1)


def test_translate():
    assert translate(VACUUM) == {}
    assert translate({((GAMMA, -1),): 1}) == {((GAMMA, -2),): 1}
    assert translate({((BETA, -1),): 1}) == {((BETA, -2),): 1}
    # derivation on a product
    got = translate({((GAMMA, -2), (B, -1)): 1})
    assert got == {((GAMMA, -3), (B, -1)): 2, ((GAMMA, -2), (B, -2)): 1}


def _translate_by_normalize(state):
    """The translation operator by its definition: each mode x_(n) in
    turn replaced by x_(n-1) and the sequence normal ordered again."""
    out = {}
    for mon, coeff in state.items():
        for p, (g, n) in enumerate(mon):
            seq = list(mon)
            seq[p] = (g, n - 1)
            sadd(out, normalize(seq, coeff * (-n)))
    return out


def test_translate_matches_normalize_definition():
    # all 750 monomials of weight <= 4 and gamma_(-1)-degree <= 2, with
    # odd modes to pass and shifts that hit a repeated odd mode
    fam = _family(4, 2)
    assert len(fam) == 750
    for mon in fam:
        assert translate({mon: 3}) == _translate_by_normalize({mon: 3}), mon
    st = {mon: c for c, mon in enumerate(fam[::50], 1)}
    assert translate(st) == _translate_by_normalize(st)


def test_translate_compatibility_spot():
    a = {((B, -1), (C, -1)): 1}
    x = {((GAMMA, -2),): 1}
    for n in range(-2, 3):
        lhs = nth_product(translate(a), n, x)
        rhs = sscale(nth_product(a, n - 1, x), -n)
        assert lhs == rhs


def test_weight_charge():
    assert weight_charge(Q_STATE) == (1, 1)
    assert weight_charge(VACUUM) == (0, 0)
    assert weight_charge(L_STATE) == (2, 0)
    assert weight_charge(G_STATE) == (2, -1)
    assert weight_charge(J_STATE) == (1, 0)
    mixed = {((BETA, -1),): 1, ((C, -1),): 1}
    assert weight_charge(mixed) is None


def test_named_states_read_gradings():
    # L_(1) reads the weight, J_(0) the charge, L_(0) translates
    targets = [({((BETA, -3), (C, -2)): 1}, 4, 1),
               (dict(G_STATE), 2, -1),
               ({((GAMMA, -2), (GAMMA, -2), (B, -1)): 1}, 3, -1)]
    for st, k, l in targets:
        assert nth_product(L_STATE, 1, st) == sscale(st, k)
        assert nth_product(J_STATE, 0, st) == sscale(st, l)
        assert nth_product(L_STATE, 0, st) == translate(st)


def test_binomial_negative_upper():
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(3, 5) == 0
    assert binomial(-3, 0) == 1


def test_grading_additivity_spot():
    a = {((BETA, -2), (C, -1)): 1}
    b = {((GAMMA, -3),): 1}
    for n in range(-3, 4):
        out = nth_product(a, n, b)
        for mon in out:
            assert mon_weight(mon) == 2 + 2 - n - 1
            assert mon_charge(mon) == 1


def test_state_helpers():
    st = {}
    sadd(st, Q_STATE, 2)
    sadd(st, Q_STATE, -2)
    assert st == {}
    assert sadd(dict(Q_STATE), Q_STATE, -1) == {}
    assert state_str({}) == "0"
    assert mon_str(VACUUM_MON) == "1"
    assert "beta(-1)" in mon_str(((BETA, -1), (C, -1)))


def test_product_table_fixture():
    # every a_(n) b over the 68 monomials of weight <= 2 and gamma_(-1)
    # degree <= 1, n in [-2, 2]; the digest predates interned monomials
    fam = _family(2, 1)
    lines = ["%s | %d | %s | %s" % (mon_str(a), n, mon_str(b),
                                   state_str(nth_product({a: 1}, n, {b: 1})))
             for a in fam for b in fam for n in range(-2, 3)]
    assert len(fam) == 68 and len(lines) == 23120
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "76480c1a95dc5377c6548278a49342d534e778885881c8341a80221e927706bc"


def _skew_failures(mons, ns):
    """The (a, b, n) among monomials a, b and n in ns that break skew-
    symmetry, b_(n)a = -(-1)^{|a||b|} sum_j (-1)^{n+j} T^j(a_(n+j)b)/j!.
    The sum stops once a_(n+j)b falls below weight 0.  T^j is applied
    monomial by monomial and kept per (monomial, j), since the products
    share most of their monomials."""
    powers = {}

    def tpow(mon, j):
        hit = powers.get((mon, j))
        if hit is None:
            hit = {mon: 1} if j == 0 else translate(tpow(mon, j - 1))
            powers[(mon, j)] = hit
        return hit

    fails = []
    for am in mons:
        for bm in mons:
            sign = -1 if mon_parity(am) and mon_parity(bm) else 1
            for n in ns:
                lhs = nth_product({bm: 1}, n, {am: 1})
                rhs = {}
                for j in range(max(mon_weight(am) + mon_weight(bm) - n, 0)):
                    f = Fraction(-sign if (n + j) % 2 == 0 else sign, factorial(j))
                    for mon, c in nth_product({am: 1}, n + j, {bm: 1}).items():
                        sadd(rhs, tpow(mon, j), f * c)
                if lhs != rhs:
                    fails.append((mon_str(am), mon_str(bm), n))
    return fails


def test_skew_symmetry():
    # the 68 monomials of the product-table fixture, every ordered pair
    # and n in [-2, 2]: 23,120 identities
    assert _skew_failures(_family(2, 1), range(-2, 3)) == []


def test_skew_symmetry_catches_a_wrong_product(monkeypatch):
    # plant beta(-1)_(0) gamma(-1) = 2 (it is 1) in a fresh product memo
    monkeypatch.setattr(freefield, "_prod_rows", {})
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = _skew_failures(_family(1, 1), range(-2, 3))
    assert sorted(fails) == [("beta(-1)", "gamma(-1)", 0),
                             ("gamma(-1)", "beta(-1)", 0)]


def _in_engine_cli_block(triple):
    """Whether the engine sweep at the `chiral verify` sizes covers the
    triple (a, b, x): block (amax, bmax, xmax, dmax) holds the triples
    with those weight caps and every gamma_(-1)-degree <= dmax."""
    wa, wb, wx = (mon_weight(m) for m in triple)
    d = max(m.count((GAMMA, -1)) for m in triple)
    return any(wa <= amax and wb <= bmax and wx <= xmax and d <= dmax
               for amax, bmax, xmax, dmax in ENGINE_CLI["blocks"])


def test_commutator_formula_on_seeded_triples_above_the_sweep():
    # a_(m)(b_(n)x) - (-1)^{|a||b|} b_(n)(a_(m)x)
    #     = sum_j C(m, j) (a_(j)b)_(m+n-j) x
    # on random triples with weight(a) + weight(b) in 3..4, none of them
    # inside a block the engine sweep checks, through nth_product alone:
    # 60 triples, 1,500 identities
    rng = random.Random(20261019)
    fam = _family(4, 1)
    xs = _family(2, 1)
    triples = []
    while len(triples) < 60:
        triple = rng.choice(fam), rng.choice(fam), rng.choice(xs)
        if (3 <= mon_weight(triple[0]) + mon_weight(triple[1]) <= 4
                and not _in_engine_cli_block(triple)):
            triples.append(triple)
    nonzero = 0
    for am, bm, xm in triples:
        a, b, x = {am: 1}, {bm: 1}, {xm: 1}
        sign = -1 if mon_parity(am) and mon_parity(bm) else 1
        for m in range(-2, 3):
            for n in range(-2, 3):
                lhs = nth_product(a, m, nth_product(b, n, x))
                sadd(lhs, nth_product(b, n, nth_product(a, m, x)), -sign)
                rhs = {}
                for j in range(mon_weight(am) + mon_weight(bm)):
                    sadd(rhs, nth_product(nth_product(a, j, b), m + n - j, x),
                         binomial(m, j))
                assert lhs == rhs, (am, m, bm, n, xm)
                nonzero += bool(rhs)
    assert nonzero >= 500


# the defining brackets as OPE contractions x(z) y(w) ~ delta / (z - w),
# keyed by (x, y) with x the field on the left
_OPE = {(BETA, GAMMA): 1, (GAMMA, BETA): -1, (B, C): 1, (C, B): 1}


def _contraction_sets(am, bm, i=0, used=()):
    """Every set of disjoint contractions (i, j) between the modes am[i]
    and bm[j] of two monomials."""
    if i == len(am):
        yield ()
        return
    yield from _contraction_sets(am, bm, i + 1, used)
    for j, (h, _) in enumerate(bm):
        if j not in used and (am[i][0], h) in _OPE:
            for rest in _contraction_sets(am, bm, i + 1, used + (j,)):
                yield ((i, j),) + rest


def _translates(modes, state, top):
    """{P: :(T^P/P! m) state:} for P in 0..top, where m is the product
    of the creation modes, by divided-power Leibniz:
    T^p/p! x_(-1-k) = C(k+p, p) x_(-1-k-p)."""
    out = {0: state}
    for g, idx in reversed(modes):
        spread = {}
        for power, st in out.items():
            for p in range(top - power + 1):
                sadd(spread.setdefault(power + p, {}),
                     apply_mode(g, idx - p, st), binomial(-1 - idx + p, p))
        out = spread
    return out


def _wick_oracle(am, bm, nmin=-2):
    """{n: a_(n) b} for monomials a, b and every n >= nmin at which some
    set of contractions reaches, by Wick's theorem, with no product memo.

    The mode x_(-1-k) is the field d^k x / k!.  A set S of contractions
    between modes x_(-1-k) of a and y_(-1-l) of b contributes, for each
    contracted pair, delta (-1)^k C(k+l, k) / (z-w)^(k+l+1), times the
    Koszul sign of moving each contracted pair together, times the normal
    ordered product of what is left, :A'(z) B'(w): = sum_P (z-w)^P
    :(T^P/P! a') b':.  a_(n) b is the coefficient of (z-w)^(-n-1), so
    P = D_S - n - 1 where D_S is the total pole order of S."""
    out = {}
    odd = [g in (B, C) for g, _ in am + bm]
    for pairs in _contraction_sets(am, bm):
        D = 0
        coeff = 1
        for i, j in pairs:
            k, l = -1 - am[i][1], -1 - bm[j][1]
            coeff *= _OPE[(am[i][0], bm[j][0])] * (-1) ** k * binomial(k + l, k)
            D += k + l + 1
        left = [i for i in range(len(am)) if all(i != i2 for i2, _ in pairs)]
        right = [j for j in range(len(bm)) if all(j != j2 for _, j2 in pairs)]
        order = [x for i, j in pairs for x in (i, len(am) + j)]
        order += left + [len(am) + j for j in right]
        inversions = sum(1 for x, p in enumerate(order) for q in order[x + 1:]
                         if p > q and odd[p] and odd[q])
        coeff *= (-1) ** inversions
        base = normalize([bm[j] for j in right], coeff)
        for power, st in _translates([am[i] for i in left], base,
                                     D - nmin - 1).items():
            sadd(out.setdefault(D - power - 1, {}), st)
    return out


def _check_against_oracle(am, bm):
    """Compare a_(n) b with the oracle for n from -2 up to the last n
    above weight 0, and return the oracle's products."""
    want = _wick_oracle(am, bm)
    top = mon_weight(am) + mon_weight(bm)
    assert not any(st for n, st in want.items() if n >= top)
    for n in range(-2, top):
        assert nth_product({am: 1}, n, {bm: 1}) == want.get(n, {}), (am, n, bm)
    return want


def test_wick_oracle_on_the_product_table():
    # every ordered pair of the 68 product-table monomials
    fam = _family(2, 1)
    nonzero = sum(bool(st) for am in fam for bm in fam
                  for st in _check_against_oracle(am, bm).values())
    assert nonzero > 14000


def test_wick_oracle_and_the_reach_bound_on_seeded_pairs():
    # 300 pairs with weight(a) <= 3 and weight(b) <= 5; r_(t) b = 0 for
    # every t >= _reach(r, b), and the bound is attained on many pairs
    rng = random.Random(20261020)
    fa, fb = _family(3, 2), _family(5, 2)
    attained = 0
    for _ in range(300):
        am, bm = rng.choice(fa), rng.choice(fb)
        want = _check_against_oracle(am, bm)
        reach = _reach(am, bm)
        assert not any(st for n, st in want.items() if n >= reach), (am, bm)
        attained += bool(want.get(reach - 1)) and reach > 0
    assert attained >= 100


def test_one_mode_operators_in_closed_form():
    # u_(m)|0> is d^k u / k! with k = -1 - m, so its n-th product is
    # (-1)^k C(n, k) u_(n-k): checked against the mode action
    fam = _family(2, 1)
    for u in (BETA, GAMMA, B, C):
        for m in range(-4, 0):
            k = -1 - m
            for n in range(-5, 6):
                c = (-1) ** k * binomial(n, k)
                for bm in fam:
                    want = sscale(apply_mode(u, n - k, {bm: 1}), c)
                    got = nth_product({((u, m),): 1}, n, {bm: 1})
                    assert got == want, (u, m, n, bm)
