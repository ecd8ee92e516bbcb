import hashlib
import sys
from fractions import Fraction

from chiral import freefield, geometry, sl2
from chiral.basis import enumerate_basis, grades, mon_scount
from chiral.chart import ChartFn
from chiral.checks import (ENGINE_CLI, commutator_failures, emptiness_failures,
                           engine_failures, geometry_failures, sl2_failures,
                           translation_failures)
from chiral.freefield import BETA, C, GAMMA, VACUUM_MON, _intern, mon_str
from chiral.modeops import ModeOperator, pair


def test_engine_sweep_clean():
    assert engine_failures(**ENGINE_CLI) == []


def test_emptiness_sweep_clean():
    assert emptiness_failures() == []


def test_sl2_sweep_clean():
    assert sl2_failures() == []


def test_geometry_sweep_clean():
    assert geometry_failures(kmax=2, case3_kmax=3) == []


def test_engine_sweep_catches_a_wrong_product(empty_memo):
    # plant beta(-1)_(0) gamma(-1) = 2 (it is 1) in a fresh product memo
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = translation_failures(ENGINE_CLI["amax"], ENGINE_CLI["xmax"],
                                 ENGINE_CLI["adeg"], ENGINE_CLI["xdeg"],
                                 ENGINE_CLI["nbound"])
    assert len(fails) == 5
    assert fails[0] == ("translation: (T beta(-1))_(1) gamma(-1): "
                        "lhs = (-1) 1, rhs = (-2) 1")
    fails = commutator_failures(((1, 1, 1, 1),), 2)
    assert len(fails) == 207
    assert _digest(fails) == (
        "c0f5a107339e504a7d9b1da89916c7b88933a31ec8b5091c78cac4be6bfe9b62")


def test_commutator_sweep_reports_a_mixed_grading(empty_memo):
    # plant beta(-1)_(0) gamma(-1) = 1 + c(-1), which mixes weights and
    # charges: the sweep reports it as a grading failure and goes on
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 1),
                                             (_intern(((C, -1),)), 1))
    fails = commutator_failures(((1, 1, 1, 1),), 2)
    assert ("grading: beta(-1)_(0)gamma(-1): lhs = (1) 1 + (1) c(-1), "
            "rhs = 0") in fails
    assert len(fails) == 283
    assert _digest(fails) == (
        "e3504b883b8ec6bcbb288bf1630f8cb64fb1a0b99059691763545f78e7c56ff0")


def test_commutator_sweep_catches_a_wrong_product_in_the_gamma1_free_block(
        empty_memo):
    # plant beta(-1)_(1) gamma(-2) = 2 (it is 1) inside the block the
    # sweep takes at gamma_(-1)-degree 0, where the other plants never
    # show; the failures of both pairs of each swap are listed, in order
    key = (_intern(((BETA, -1),)), 1, _intern(((GAMMA, -2),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = commutator_failures(((2, 2, 1, 0),), 2)
    assert len(fails) == 1415
    assert fails[0] == ("commutator: [c(-1)_(-2), beta(-1)_(1)] gamma(-2): "
                        "lhs = (1) c(-2), rhs = 0")
    assert _digest(fails) == (
        "4b1a5d12168f01ac8f184e4b248ff1fcee27c50dfd5d9506b7049d4e9f83d2a7")


def test_engine_sweep_reads_no_product_below_weight_0(monkeypatch,
                                                      empty_memo):
    # a product below weight 0 is zero and never stored, so reading one
    # is a wasted memo miss: the sweep makes none, neither in the loops
    # of checks nor in the recursion of freefield
    real = freefield._ProdRow.__missing__
    weights = freefield._weights
    callers = []

    def counting(row, ib):
        if weights[row.ia] + weights[ib] - row.n - 1 < 0:
            code = sys._getframe(1).f_code
            callers.append((code.co_filename, code.co_name))
        return real(row, ib)

    monkeypatch.setattr(freefield._ProdRow, "__missing__", counting)
    assert engine_failures(**ENGINE_CLI) == []
    assert callers == []


def test_memo_rows_hold_what_a_cold_memo_computes(empty_memo):
    # every product the sweep leaves in a row of the memo is the one a
    # fresh memo computes for its (a, n, b): one filed under the wrong
    # operator or argument would differ
    assert commutator_failures(((1, 1, 1, 1),), 2) == []
    stored = [(ia, n, ib, prod)
              for (ia, n), row in freefield._prod_rows.items()
              for ib, prod in row.items()]
    assert len(stored) > 1000
    empty_memo()
    freefield._contractions.cache_clear()
    for ia, n, ib, prod in stored:
        assert freefield._prod_mono(ia, n, ib) == prod, (ia, n, ib)


def test_engine_sweep_memo_holds_shared_pairs(monkeypatch, empty_memo):
    # after the `chiral verify` engine sweep from a fresh memo, every
    # stored product is a tuple of (id, nonzero int) pairs with distinct
    # ids, and every pair is the one object the pair table holds for it
    monkeypatch.setattr(freefield, "_pairs", {})
    assert engine_failures(**ENGINE_CLI) == []
    pairs = freefield._pairs
    products = [prod for row in freefield._prod_rows.values()
                for prod in row.values()]
    assert len(products) > 1000
    for prod in products:
        assert type(prod) is tuple
        assert len({k for k, c in prod}) == len(prod)
        for pair in prod:
            k, c = pair
            assert type(k) is int and type(c) is int and c
            assert pairs[pair] is pair
    # no stored product lies below weight 0 (w_a + w_b - n - 1 < 0); a
    # lookup there answers the zero product () and stores nothing, here
    # b = |0> in every nonempty row whose a_(n)|0> is below weight 0
    weights = freefield._weights
    vacuum = _intern(VACUUM_MON)
    looked_up = 0
    for (ia, n), row in freefield._prod_rows.items():
        for ib in row:
            assert weights[ia] + weights[ib] - n - 1 >= 0, (ia, n, ib)
        if row and weights[ia] - n - 1 < 0:
            size = len(row)
            assert row[vacuum] == () and vacuum not in row
            assert freefield._prod_mono(ia, n, vacuum) == ()
            assert len(row) == size
            looked_up += 1
    assert looked_up > 100


def test_geometry_sweep_catches_a_wrong_adjoint(monkeypatch):
    # plant v^2/3 for the v^2/2 of dbar_star: the recursion steps are off
    # by a factor 2/3, so their residuals are nonzero and must be reported
    monkeypatch.setattr(geometry, "_HALF_V2", ChartFn.v_pow(2, Fraction(1, 3)))
    fails = geometry_failures(kmax=2, case3_kmax=0)
    assert len(fails) == 23
    assert fails[0] == ("recursion identity t=1 fails on c(-2): "
                        "[gamma(-2) c(-1)](x)(1i/3)*v^2 dcg")
    digest = hashlib.sha256("\n".join(fails).encode()).hexdigest()
    assert digest == "823fafc21b9ff2c80f4d7bf27e2c3a8eab1dff08d0454b756a82d5d4a8ad2355"


def test_geometry_sweep_catches_a_wrong_connection(monkeypatch):
    # plant -v^-1 for the -2 v^-1 of the connection form: every seed
    # A (x) v^(2(l-s)) is then no longer dbar_prime-closed, and the sweep
    # must report each one it tries; this holds only while dbar_prime
    # reads geometry._THETA, the metric data the sweep checks.  The
    # curvature, taken from the covariant derivatives, is then half of
    # l - s, wrong on every monomial with l != s
    monkeypatch.setattr(geometry, "_THETA", ChartFn.v_pow(-1, -1))
    fails = geometry_failures(kmax=2, case3_kmax=0)
    assert len(fails) == 40
    curvature = [f for f in fails if f.startswith("curvature")]
    assert curvature == _curvature_failures(lambda l, s, mon: l != s)
    rest = [f for f in fails if not f.startswith("curvature")]
    assert len(rest) == 15
    assert rest[0] == ("recursion failed on c(-1): "
                       "seed must be dbar_prime-closed")
    assert _digest(rest) == (
        "439f927fa433c0fd02fbc0337b85afaba2657cffaa245969bc7eecdcaf61aec3")
    assert _digest(fails) == (
        "3b881df48dddca1886f06c141a35779fb33b979c0beec29c02da3143bcb5e98e")


def test_geometry_sweep_catches_a_wrong_s_minus_l_count(monkeypatch):
    # plant +1 for the -1 that c contributes to dbar_prime's s - l count:
    # the curvature, taken from the covariant derivatives, is then wrong
    # on exactly the monomials holding a c mode, while curvature_op
    # still reads l - s off the grading
    monkeypatch.setitem(geometry._S_MINUS_L, C, 1)
    fails = geometry_failures()
    assert len(fails) == 52
    curvature = [f for f in fails if f.startswith("curvature")]
    assert curvature == _curvature_failures(
        lambda l, s, mon: any(g == C for g, _ in mon))
    assert len(fails) - len(curvature) == 30
    assert _digest(fails) == (
        "19a8f13eac321fe3a7f6159656c3930b6c035711a07468ca92802edd459e1676")


def _curvature_failures(wrong):
    """The curvature failures of the weight <= 2 sweep, in sweep order,
    on the monomials where wrong(l, s, mon) holds."""
    return ["curvature != (l-s) id on %s" % mon_str(mon)
            for k, l in grades(2) for mon in enumerate_basis(k, l)
            if wrong(l, mon_scount(mon), mon)]


def _digest(fails):
    return hashlib.sha256("\n".join(fails).encode()).hexdigest()


def test_sl2_sweep_catches_a_wrong_lplus(monkeypatch):
    # plant -1 for the -2 of Lplus(2)'s b c term: the relation fails for
    # i = 2, and the kernel route then disagrees with the state products.
    # Frozen from the sweep that walked relation and brackets separately
    monkeypatch.setitem(sl2._LPLUS_OPS, 2, ModeOperator([
        (1, pair(pair("gtilde", "gtilde"), "beta"), 0),
        (-1, pair(pair("gtilde", "b"), "c"), 0)]))
    fails = sl2_failures()
    assert len(fails) == 69
    assert fails[0] == "relationL i=2 fails on beta(-1) at (1,0)"
    assert [f.split()[0] for f in fails] == ["relationL"] * 66 + ["kernel"] * 3
    assert fails[66] == ("kernel routes disagree at (2,0): "
                         "state-product route disagrees at (2, 0)")
    assert _digest(fails) == (
        "7d738e1ea7c38399809bf2545a746340c8f5bfacdad7ac2e3e1402907bda62db")


def test_sl2_sweep_catches_a_wrong_l_actor(monkeypatch):
    # plant twice the actor of L(0): the relation fails for i = 0, and
    # [L(0), L(2)] = 2 L(1) fails, listed after every relation failure
    real = sl2._l_actor

    def doubled(i):
        st = real(i)
        return {m: 2 * c for m, c in st.items()} if i == 0 else st

    monkeypatch.setattr(sl2, "_l_actor", doubled)
    fails = sl2_failures()
    assert len(fails) == 153
    assert fails[0] == "relationL i=0 fails on gamma(-1) at (0,0)"
    assert [f.split()[0] for f in fails] == ["relationL"] * 68 + ["bracket"] * 85
    assert fails[68] == "bracket [L(0),L(2)] fails on gamma(-1) at (0,0)"
    assert _digest(fails) == (
        "ab0a8003d56c0fb895718abc5c73d8be5bb221a4798bcff4a040b27281c57a07")
