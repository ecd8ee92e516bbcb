import hashlib
from fractions import Fraction

from chiral import freefield, geometry, sl2
from chiral.chart import ChartFn
from chiral.checks import (ENGINE_CLI, commutator_failures, emptiness_failures,
                           engine_failures, geometry_failures, sl2_failures,
                           translation_failures)
from chiral.freefield import BETA, C, GAMMA, VACUUM_MON, _intern
from chiral.modeops import ModeOperator, pair


def test_engine_sweep_clean():
    assert engine_failures(**ENGINE_CLI) == []


def test_emptiness_sweep_clean():
    assert emptiness_failures(5) == []


def test_sl2_sweep_clean():
    assert sl2_failures(kmax=2, dmax=2, kernel_kmax=3) == []


def test_geometry_sweep_clean():
    assert geometry_failures(kmax=2, case3_kmax=3) == []


def test_engine_sweep_catches_a_wrong_product(monkeypatch):
    # plant beta(-1)_(0) gamma(-1) = 2 (it is 1) in a fresh product memo
    monkeypatch.setattr(freefield, "_prod_rows", {})
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = translation_failures(ENGINE_CLI["amax"], ENGINE_CLI["xmax"],
                                 ENGINE_CLI["adeg"], ENGINE_CLI["xdeg"],
                                 ENGINE_CLI["nbound"])
    assert len(fails) == 5
    assert fails[0] == ("translation: (T beta(-1))_(1) gamma(-1): "
                        "lhs = (-1) 1, rhs = (-2) 1")
    assert len(commutator_failures(((1, 1, 1, 1),), 2)) == 207


def test_commutator_sweep_reports_a_mixed_grading(monkeypatch):
    # plant beta(-1)_(0) gamma(-1) = 1 + c(-1), which mixes weights and
    # charges: the sweep reports it as a grading failure and goes on
    monkeypatch.setattr(freefield, "_prod_rows", {})
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_row(*key[:2])[key[2]] = ((_intern(VACUUM_MON), 1),
                                             (_intern(((C, -1),)), 1))
    fails = commutator_failures(((1, 1, 1, 1),), 2)
    assert ("grading: beta(-1)_(0)gamma(-1): lhs = (1) 1 + (1) c(-1), "
            "rhs = 0") in fails
    assert len(fails) == 283


def test_memo_rows_hold_what_a_cold_memo_computes(monkeypatch):
    # every product the sweep leaves in a row of the memo is the one a
    # fresh memo computes for its (a, n, b): one filed under the wrong
    # operator or argument would differ
    monkeypatch.setattr(freefield, "_prod_rows", {})
    assert commutator_failures(((1, 1, 1, 1),), 2) == []
    stored = [(ia, n, ib, prod)
              for (ia, n), row in freefield._prod_rows.items()
              for ib, prod in row.items()]
    assert len(stored) > 1000
    monkeypatch.setattr(freefield, "_prod_rows", {})
    monkeypatch.setattr(freefield, "_insert_rows", {})
    freefield._contractions.cache_clear()
    for ia, n, ib, prod in stored:
        assert freefield._prod_mono(ia, n, ib) == prod, (ia, n, ib)


def test_engine_sweep_memo_holds_shared_pairs(monkeypatch):
    # after the `chiral verify` engine sweep from a fresh memo, every
    # stored product is a tuple of (id, nonzero int) pairs with distinct
    # ids, and every pair is the one object the pair table holds for it
    monkeypatch.setattr(freefield, "_prod_rows", {})
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


def _digest(fails):
    return hashlib.sha256("\n".join(fails).encode()).hexdigest()


def test_sl2_sweep_catches_a_wrong_lplus(monkeypatch):
    # plant -1 for the -2 of Lplus(2)'s b c term: the relation fails for
    # i = 2, and the kernel route then disagrees with the state products.
    # Frozen from the sweep that walked relation and brackets separately
    monkeypatch.setitem(sl2._LPLUS_OPS, 2, ModeOperator([
        (1, pair(pair("gtilde", "gtilde"), "beta"), 0),
        (-1, pair(pair("gtilde", "b"), "c"), 0)]))
    fails = sl2_failures(kmax=2, dmax=2, kernel_kmax=3)
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
    fails = sl2_failures(kmax=2, dmax=2, kernel_kmax=3)
    assert len(fails) == 153
    assert fails[0] == "relationL i=0 fails on gamma(-1) at (0,0)"
    assert [f.split()[0] for f in fails] == ["relationL"] * 68 + ["bracket"] * 85
    assert fails[68] == "bracket [L(0),L(2)] fails on gamma(-1) at (0,0)"
    assert _digest(fails) == (
        "ab0a8003d56c0fb895718abc5c73d8be5bb221a4798bcff4a040b27281c57a07")
