import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chiral
from chiral import freefield, geometry, sl2
from chiral.basis import enumerate_basis, grades, mon_scount
from chiral.chart import ChartFn
from chiral.checks import (ENGINE_CLI, commutator_failures, emptiness_failures,
                           engine_failures, geometry_failures, sl2_failures,
                           translation_failures, vacuum_failures)
from chiral.freefield import (BETA, C, GAMMA, VACUUM_MON, _intern, _state,
                              mon_str)
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
    freefield._prod_rows[key[:2]][key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = translation_failures(ENGINE_CLI["amax"], ENGINE_CLI["xmax"],
                                 ENGINE_CLI["adeg"], ENGINE_CLI["xdeg"],
                                 ENGINE_CLI["nbound"])
    assert len(fails) == 4
    assert fails[0] == ("translation: (T beta(-1))_(1) gamma(-1): "
                        "lhs = (-1) 1, rhs = (-2) 1")
    fails = commutator_failures(((1, 1, 1, 1),), 2)
    assert len(fails) == 1096
    assert _digest(fails) == (
        "53b07c45bc2b793c693684e91c1aa3ab882d703af48f1381e59ad4cabbf4c698")


def test_commutator_sweep_reports_a_mixed_grading(empty_memo):
    # plant beta(-1)_(0) gamma(-1) = 1 + c(-1), which mixes weights and
    # charges: the sweep reports it as a grading failure and goes on
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    freefield._prod_rows[key[:2]][key[2]] = ((_intern(VACUUM_MON), 1),
                                             (_intern(((C, -1),)), 1))
    fails = commutator_failures(((1, 1, 1, 1),), 2)
    assert ("grading: beta(-1)_(0)gamma(-1): lhs = (1) 1 + (1) c(-1), "
            "rhs = 0") in fails
    assert len(fails) == 1248
    assert _digest(fails) == (
        "87f42dcf86e28ef831f10f337552d840ee6cff638e236b5f621d0b2885e7ae4c")


def test_commutator_sweep_catches_a_wrong_product_in_the_gamma1_free_block(
        empty_memo):
    # plant beta(-1)_(1) gamma(-2) = 2 (it is 1) inside the block the
    # sweep takes at gamma_(-1)-degree 0, where the other plants never
    # show; the failures of both pairs of each swap are listed, in order
    key = (_intern(((BETA, -1),)), 1, _intern(((GAMMA, -2),)))
    freefield._prod_rows[key[:2]][key[2]] = ((_intern(VACUUM_MON), 2),)
    fails = commutator_failures(((2, 2, 1, 0),), 2)
    assert len(fails) == 489
    assert fails[0] == ("commutator: [c(-1)_(-2), beta(-1)_(1)] gamma(-2): "
                        "lhs = (1) c(-2), rhs = 0")
    assert _digest(fails) == (
        "19c9132f6627eb57cd8a7152d8bf83ebfc143ae9304b8d69133d5aa7de830da6")


def test_commutator_sweep_reports_the_one_instance_a_plant_breaks(
        empty_memo):
    # plant a = beta(-1) c(-1), a_(-2) beta(-1)^2 c(-2) = +beta(-2)
    # beta(-1)^2 c(-2) c(-1) (it is -1 times that): of every instance of
    # the block at nbound 3, only (m, n) = (-2, -2) on x = beta(-1) reads
    # it.  The packed table holds that instance in digit 1 of its entry,
    # and the sweep reports exactly it
    a = ((BETA, -1), (C, -1))
    b = ((BETA, -1), (BETA, -1), (C, -2))
    row, ib = freefield._prod_rows[_intern(a), -2], _intern(b)
    (k, c), = row[ib]
    assert _state(row[ib]) == {((BETA, -2), (BETA, -1), (BETA, -1), (C, -2),
                                (C, -1)): -1}
    empty_memo()
    freefield._prod_rows[_intern(a), -2][ib] = ((k, -c),)
    assert commutator_failures(((1, 1, 1, 0),), 3) == [
        "commutator: [beta(-1) c(-1)_(-2), beta(-1) c(-1)_(-2)] beta(-1): "
        "lhs = (4) beta(-2) beta(-1) beta(-1) c(-2) c(-1), rhs = 0"]


def test_commutator_sweep_raises_past_the_packed_digit_bound(empty_memo):
    # plant beta(-1)_(0) gamma(-1) = v (it is 1).  At v = 2^24 a digit of
    # the packed table may reach about 2^50, which the 64-bit digits
    # hold: the sweep reports the 1096 instances that v = 2 breaks.  At
    # v = 2^40 the bound K^2 L (2 + (w_a + w_b) C_max) passes 2^63, and
    # the sweep raises rather than decide anything.  The planted
    # coefficient widens freefield._largest, which empty_memo restores
    key = (_intern(((BETA, -1),)), 0, _intern(((GAMMA, -1),)))
    instances = {}
    for v in (2, 2 ** 24):
        empty_memo()
        freefield._prod_rows[key[:2]][key[2]] = ((_intern(VACUUM_MON), v),)
        fails = commutator_failures(((1, 1, 1, 1),), 2)
        instances[v] = [what.split(": lhs")[0] for what in fails]
    assert len(instances[2]) == 1096
    assert instances[2 ** 24] == instances[2]
    empty_memo()
    freefield._prod_rows[key[:2]][key[2]] = ((_intern(VACUUM_MON), 2 ** 40),)
    assert freefield._largest[0] == 2 ** 40
    with pytest.raises(OverflowError, match="64-bit digits"):
        commutator_failures(((1, 1, 1, 1),), 2)


def test_cli_engine_sweep_leaves_the_memo_it_always_has():
    # from a fresh interpreter, the `chiral verify` engine sweep leaves
    # 83,062 products, 22,308 shared pairs and 4,022 interned monomials:
    # how the sweep and the fill compute must not change what they keep
    src = Path(chiral.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from chiral import checks, freefield as f\n"
         "assert checks.engine_failures(**checks.ENGINE_CLI) == []\n"
         "print(sum(map(len, f._prod_rows.values())), len(f._pairs),"
         " len(f._mons))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["83062", "22308", "4022"]


def test_vacuum_sweep_catches_a_wrong_vacuum_operator(empty_memo):
    # plant |0>_(-1) beta(-1) = 2 beta(-1) (it is beta(-1)) in a fresh
    # product memo: a_(n)|0> never reads it, but the vacuum operator
    # axiom does, and so does the recursion for |0>_(-1) beta(-1)^2
    beta = _intern(((BETA, -1),))
    freefield._prod_rows[_intern(VACUUM_MON), -1][beta] = ((beta, 2),)
    fails = vacuum_failures(ENGINE_CLI["amax"], ENGINE_CLI["adeg"],
                            ENGINE_CLI["nbound"])
    assert len(fails) == 2
    assert fails[0] == ("vacuum: |0>_(-1)beta(-1): "
                        "lhs = (2) beta(-1), rhs = (1) beta(-1)")
    assert _digest(fails) == (
        "5e98875345ebd28a26384405c2251df5cf3f7a5d955cdf87daf25ac764ab7ede")


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


def test_geometry_sweep_catches_a_wrong_n1(monkeypatch):
    # plant 1/3 for the 1/2 of n1's ::gtilde gtilde: beta: term: n1 is
    # then not (1/2) Lplus(2), and case3_kernel reports the first block
    # monomial where the two differ, on 6 blocks through weight 3.  A
    # comparison of the two kernels sees only 3 of them: at (2, 1),
    # (3, 1) and (3, 2) the wrong map keeps the right kernel.  The
    # weight-0 sweep runs no recursion, so only the case-3 check sees
    # n1.  _n1_image memoises its images: clear it around the plant
    monkeypatch.setattr(geometry, "_N1_RAT", ModeOperator([
        (1, pair(pair("gtilde", "c"), "b"), 0),
        (Fraction(1, 3), pair(pair("gtilde", "gtilde"), "beta"), 0)]))
    geometry._n1_image.cache_clear()
    try:
        fails = geometry_failures(kmax=0, case3_kmax=3)
    finally:
        monkeypatch.undo()
        geometry._n1_image.cache_clear()
    assert len(fails) == 6
    assert fails[1] == ("case-3 kernel check failed at (2,1): "
                        "n1 != Lplus(2)/2 on beta(-2) c(-1) at (2, 1)")
    assert _digest(fails) == (
        "b426c78570ceb9603474a897bb93c8cc354bc35d59ac3f07d139583877e5b357")


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
