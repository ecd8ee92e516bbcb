"""End-to-end acceptance checks.

One test per contract item; run with -v for one pass/fail line each.
Every comparison is exact (integer, Fraction, or Gaussian-rational
equality), never approximate, and the two timed sweeps assert their
wall-clock budgets.
"""

import time

from chiral import cli
from chiral.basis import basis_block, enumerate_basis, mon_scount
from chiral.chart import ChartFn, I, metric_data
from chiral.checks import ENGINE_FULL, emptiness_failures, engine_failures
from chiral.freefield import GAMMA
from chiral.geometry import (FormSection, case3_kernel, chain_residuals,
                             curvature_op, dbar_prime, dbar_total, f2,
                             seed_section, solve_recursion)
from chiral.sl2 import charge_range, invariants, verify_sl2

CHARACTER_4_JSON = """\
{
  "max_weight": 4,
  "entries": [
    {
      "k": 0,
      "l": 0,
      "dim": 1
    },
    {
      "k": 2,
      "l": -1,
      "dim": 1
    },
    {
      "k": 2,
      "l": 0,
      "dim": 1
    },
    {
      "k": 3,
      "l": -1,
      "dim": 1
    },
    {
      "k": 3,
      "l": 0,
      "dim": 1
    },
    {
      "k": 4,
      "l": -1,
      "dim": 3
    },
    {
      "k": 4,
      "l": 0,
      "dim": 3
    }
  ]
}
"""

HZERO_G2_K1_CSV = "k,l,dim\n0,0,1\n0,1,2\n1,0,2\n1,1,5\n1,2,3\n"


def test_engine_axioms_exact_within_one_minute():
    start = time.monotonic()
    fails = engine_failures(**ENGINE_FULL)
    elapsed = time.monotonic() - start
    assert fails == []
    assert elapsed <= 60.0


def test_conformal_vector_relations_weight3():
    relation, _ = verify_sl2(3, 2)
    assert relation == []


def test_sl2_bracket_relations_weight3():
    _, bracket = verify_sl2(3, 2)
    assert bracket == []


def test_invariant_kernel_routes_agree_weight4():
    # invariants raises if the state-product and mode-word kernels
    # differ; every kernel vector must avoid the gamma(-1) mode
    for k in range(5):
        for l in charge_range(k):
            inv = invariants(k, l)
            for st in inv.states:
                for mon in st:
                    assert (GAMMA, -1) not in mon
    assert invariants(0, 0).dim == 1
    assert invariants(0, 1).dim == 0


def test_blocks_empty_exactly_when_weight_below_s():
    assert emptiness_failures(5) == []


def test_metric_constants_bit_exact():
    md = metric_data()
    assert md.h == ChartFn.v_pow(-2, -2) * I
    assert md.theta_coeff == ChartFn.v_pow(-1, -2)
    assert md.b0_theta == I
    assert md.h * md.h_inv == ChartFn.const(1)


def test_curvature_eigenvalue_weight4():
    for k in range(5):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                sec = FormSection(deg0={mon: ChartFn.v_pow(1)})
                assert curvature_op(sec) == sec.scale(l - mon_scount(mon))


def test_positive_twist_recursion_weight3_within_five_minutes():
    start = time.monotonic()
    for k in range(4):
        for l in range(-(k + 2), k + 3):
            for mon in enumerate_basis(k, l):
                s = mon_scount(mon)
                if l - s not in (1, 2):
                    continue
                chain = solve_recursion(seed_section(mon))
                assert len(chain) - 1 <= k + s + 1
                for res in chain_residuals(chain):
                    assert not res
                total = FormSection()
                for part in chain:
                    total = total + part
                assert not dbar_total(total)
    assert time.monotonic() - start <= 300.0


def test_diagonal_blocks_flat_and_kernels_agree_weight3():
    for k in range(4):
        for s in range(-k, k + 1):
            for mon in basis_block(k, s, s):
                sec = FormSection(deg0={mon: ChartFn.const(1)})
                assert not f2(sec)
                assert not dbar_prime(sec)
            # case3_kernel raises if its two kernel routes disagree
            for st in case3_kernel(k, s):
                sec = FormSection(deg0={m: ChartFn.const(c)
                                        for m, c in st.items()})
                assert not dbar_total(sec)


def test_cli_tables_deterministic_and_match_fixtures(capsys):
    assert cli.main(["character", "--max-weight", "4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["character", "--max-weight", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second == CHARACTER_4_JSON

    assert cli.dim_global(0, 1, 2) == 2
    assert cli.main(["hzero", "--genus", "2", "--max-weight", "1",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == HZERO_G2_K1_CSV
