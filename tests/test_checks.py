import hashlib
from fractions import Fraction

from chiral import freefield, geometry
from chiral.chart import ChartFn
from chiral.checks import (ENGINE_CLI, commutator_failures, emptiness_failures,
                           engine_failures, geometry_failures, sl2_failures,
                           translation_failures)
from chiral.freefield import BETA, C, GAMMA, VACUUM_MON, _intern


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
    monkeypatch.setattr(freefield, "_contract_cache", {})
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
