import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import chiral
from chiral import cli
from chiral.geometry import h0_canonical

CHARACTER_2_JSON = """\
{
  "max_weight": 2,
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
    }
  ]
}
"""

# sha256 of the `character --max-weight 8`, `--max-weight 10` and
# `--max-weight 12` stdout
CHARACTER_8_SHA256 = (
    "0489de95447e08bf8bcbe21c9050deb04491d8f9417887290f18ee1db08b81e8")
CHARACTER_10_SHA256 = (
    "5c200feb9195d7d415fb28563ae8ddd7950e1558734c3c82da7a15708e17eae4")
CHARACTER_12_SHA256 = (
    "ac9361175ec8b1cdcb8c5bfce0b7323aa448bfd0aad0ed4abe38805667629c8b")

# sha256 of the `hzero --max-weight 8` stdout for genus 2 and genus 3
HZERO_G2_K8_SHA256 = (
    "5a5cd221c8c492230019318fa0e286274b6a5df6fc5a34b951632f2d68e3208e")
HZERO_G3_K8_SHA256 = (
    "4ff50b4e40bafb9d08a4e543ac81d0662fc0fc4c422b1161eafbd919c8807da7")

# sha256 of the `invariants --weight 8 --charge 0 --basis` stdout: dim 25,
# with Fraction coefficients
INVARIANTS_8_0_BASIS_SHA256 = (
    "ee66d155dbe78da3d3727ca096da475f85cf32bd98c1b69b9f30e6b5b99ceb8b")

# sha256 of the `invariants --weight 10 --charge 1 --basis` stdout: dim 21,
# with 7,296 Fraction coefficients, lifted from one wide prime
INVARIANTS_10_1_BASIS_SHA256 = (
    "494583c427e1fae4919b62ba50b6a89678efad6894e585b03032ae0ad79c539d")

HZERO_G2_K1_CSV = """\
k,l,dim
0,0,1
0,1,2
1,0,2
1,1,5
1,2,3
"""


def run(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_h0_canonical_values():
    assert [h0_canonical(m, 2) for m in range(-1, 4)] == [0, 1, 2, 3, 5]
    assert h0_canonical(1, 7) == 7
    assert h0_canonical(3, 3) == 10
    with pytest.raises(ValueError):
        h0_canonical(2, 1)


def test_dimensions_reject_a_non_int_genus_or_power():
    # a float genus or power would give a float "dimension"
    for m, genus in ((2.0, 3), (2, 3.0), (Fraction(2), 3), (2, 2.5)):
        with pytest.raises(TypeError):
            h0_canonical(m, genus)
    for genus in (2.5, 2.0, Fraction(3), "2"):
        with pytest.raises(TypeError):
            cli.dim_global(2, 0, genus)


def test_dim_global_fixtures():
    assert cli.dim_global(0, 0, 2) == 1
    assert cli.dim_global(0, 1, 2) == 2
    assert cli.dim_global(1, 1, 2) == 5
    assert cli.dim_global(1, 1, 3) == 9
    # charge below every s-count in the block: no bundle contributions
    assert cli.dim_global(2, -1, 2) == invariant_dim(2, -1)


def test_dim_global_checks_the_genus_on_entry():
    # block (0, 0) has no s < l, so it never reaches h0_canonical's check
    for k, l in ((0, 0), (0, 1), (2, 0)):
        for genus in (1, 0, -3):
            with pytest.raises(ValueError, match="genus must be at least 2"):
                cli.dim_global(k, l, genus)


def invariant_dim(k, l):
    from chiral.sl2 import invariants
    return invariants(k, l).dim


def test_character_csv(capsys):
    rc, out = run(["character", "--max-weight", "1", "--format", "csv"], capsys)
    assert rc == 0
    assert out == "k,l,dim\n0,0,1\n"


def test_character_json_bytes(capsys):
    rc, out = run(["character", "--max-weight", "2"], capsys)
    assert rc == 0
    assert out == CHARACTER_2_JSON


def test_character_deterministic(capsys):
    rc1, out1 = run(["character", "--max-weight", "3"], capsys)
    rc2, out2 = run(["character", "--max-weight", "3"], capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    doc = json.loads(out1)
    table = {(e["k"], e["l"]): e["dim"] for e in doc["entries"]}
    assert table == {(0, 0): 1, (2, -1): 1, (2, 0): 1, (3, -1): 1, (3, 0): 1}


def test_invariants_basis_output(capsys):
    rc, out = run(["invariants", "--weight", "2", "--charge", "0",
                   "--basis"], capsys)
    assert rc == 0
    assert out == ("dim 1\n"
                   "state 1: (-1) beta(-1) gamma(-2) + (1) b(-1) c(-2)\n")
    rc, out = run(["invariants", "--weight", "2", "--charge", "-1",
                   "--basis"], capsys)
    assert rc == 0
    assert out == "dim 1\nstate 1: (1) gamma(-2) b(-1)\n"
    rc, out = run(["invariants", "--weight", "1", "--charge", "0"], capsys)
    assert rc == 0
    assert out == "dim 0\n"


def test_hzero_csv_bytes(capsys):
    rc, out = run(["hzero", "--genus", "2", "--max-weight", "1",
                   "--format", "csv"], capsys)
    assert rc == 0
    assert out == HZERO_G2_K1_CSV


def test_hzero_json_header(capsys):
    rc, out = run(["hzero", "--genus", "3", "--max-weight", "0"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["max_weight"] == 0 and doc["genus"] == 3
    table = {(e["k"], e["l"]): e["dim"] for e in doc["entries"]}
    assert table == {(0, 0): 1, (0, 1): 3}


def test_verify_ok(capsys):
    rc, out = run(["verify", "--suite", "sl2"], capsys)
    assert rc == 0
    assert out == "sl2: ok\n"


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli.checks, "sl2_failures",
                        lambda **kw: ["boom", "second"])
    rc, out = run(["verify", "--suite", "sl2"], capsys)
    assert rc == 1
    assert out == ("sl2: FAIL (2 identities)\n"
                   "first counterexample: boom\n")


def test_usage_errors_exit_2(capsys):
    for argv in (["hzero", "--genus", "1", "--max-weight", "0"],
                 ["character", "--max-weight", "-1"],
                 ["verify", "--suite", "nope"],
                 [],
                 ["character", "--max-weight", "13"],
                 ["hzero", "--genus", "2", "--max-weight", "13"],
                 ["invariants", "--weight", "13", "--charge", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if "13" in argv:
            assert "must be at most 12" in err


def test_character_weight_8_stdout_fixture(capsys):
    rc, out = run(["character", "--max-weight", "8"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARACTER_8_SHA256


def test_character_weight_10_stdout_fixture(capsys):
    # frozen from the single-prime kernel with its exact fallback over Q,
    # which took minutes on blocks (10, 0) and (10, 1)
    rc, out = run(["character", "--max-weight", "10"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARACTER_10_SHA256


def test_hzero_weight_8_stdout_fixtures(capsys):
    for genus, digest in ((2, HZERO_G2_K8_SHA256), (3, HZERO_G3_K8_SHA256)):
        rc, out = run(["hzero", "--genus", str(genus), "--max-weight", "8"],
                      capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_invariants_weight_8_basis_stdout_fixture(capsys):
    rc, out = run(["invariants", "--weight", "8", "--charge", "0", "--basis"],
                  capsys)
    assert rc == 0
    assert out.startswith("dim 25\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        INVARIANTS_8_0_BASIS_SHA256)


def test_invariants_weight_10_basis_stdout_fixture(capsys):
    # a byte check whose kernel is lifted from a wide prime: block (10, 1)
    # has 395 columns and entries up to 32 bits tall
    rc, out = run(["invariants", "--weight", "10", "--charge", "1",
                   "--basis"], capsys)
    assert rc == 0
    assert out.startswith("dim 21\n")
    assert out.count("/") == 7296
    assert hashlib.sha256(out.encode()).hexdigest() == (
        INVARIANTS_10_1_BASIS_SHA256)


def _diagonal_counts(kmax):
    """{(k, l): c(k, l)}, the number of diagonal monomials (#beta + #b =
    #gamma + #c) of weight k and charge l, read off the generating
    function

        prod_{n>=1} 1/((1 - x^-1 q^n)(1 - x q^n))
          * prod_{n>=1} (1 + z^-1 x^-1 q^n) * prod_{n>=0} (1 + z x q^n)

    as the coefficient of q^k z^l x^0: one factor per beta_(-n),
    gamma_(-n-1), b_(-n) and c_(-n-1)."""
    def mul(series, factor):
        out = {}
        for (q1, z1, x1), a in series.items():
            for (q2, z2, x2), b in factor.items():
                if q1 + q2 <= kmax:
                    key = (q1 + q2, z1 + z2, x1 + x2)
                    out[key] = out.get(key, 0) + a * b
        return out

    series = mul({(0, 0, 0): 1}, {(0, 0, 0): 1, (0, 1, 1): 1})
    for n in range(1, kmax + 1):
        series = mul(series, {(0, 0, 0): 1, (n, -1, -1): 1})
        series = mul(series, {(0, 0, 0): 1, (n, 1, 1): 1})
        for x in (1, -1):
            series = mul(series, {(n * j, 0, x * j): 1
                                  for j in range(kmax // n + 1)})
    return {(q, z): c for (q, z, x), c in series.items() if x == 0 and c}


def test_character_from_diagonal_counts():
    # the s = l blocks counted against the generating function, then an
    # elimination-free oracle: for k >= 1 the invariant dims d_l of
    # weight k satisfy d_l - d_(l-2) = c(k, l) - c(k, 1-l), with d_l = 0
    # below the lowest charge; weight 0 holds the vacuum alone
    from chiral.basis import basis_block, charges, grades
    counts = _diagonal_counts(12)
    enumerated = {(k, l): len(basis_block(k, l, l)) for k, l in grades(12)}
    assert {key: c for key, c in enumerated.items() if c} == counts
    for kmax, digest in ((8, CHARACTER_8_SHA256), (10, CHARACTER_10_SHA256),
                         (12, CHARACTER_12_SHA256)):
        entries = [{"k": 0, "l": 0, "dim": 1}]
        for k in range(1, kmax + 1):
            d = {}
            for l in charges(k):
                d[l] = (counts.get((k, l), 0) - counts.get((k, 1 - l), 0)
                        + d.get(l - 2, 0))
                if d[l]:
                    entries.append({"k": k, "l": l, "dim": d[l]})
        out = json.dumps({"max_weight": kmax, "entries": entries},
                         indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def python_warnings_as_errors(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chiral.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_cli_unloaded():
    assert chiral.dim_global is cli.dim_global
    assert chiral.h0_canonical is h0_canonical
    proc = python_warnings_as_errors(
        "-c", "import sys, chiral; print(sorted(m for m in "
              "('argparse', 'chiral.cli', 'dataclasses', 'inspect') "
              "if m in sys.modules))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_module_entry_point_runs_without_warning():
    proc = python_warnings_as_errors(
        "-m", "chiral.cli", "character", "--max-weight", "2", "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "k,l,dim\n0,0,1\n2,-1,1\n2,0,1\n"


def test_closed_stdout_pipe_ends_quietly():
    # the reader's end is closed before the child starts, so the child's
    # first write to stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chiral.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "chiral.cli", "hzero",
             "--genus", "2", "--max-weight", "3"],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
