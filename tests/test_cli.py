import hashlib
import json
import os
import subprocess
import sys

import pytest

import chiral
from chiral import cli

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
    assert [cli.h0_canonical(m, 2) for m in range(-1, 4)] == [0, 1, 2, 3, 5]
    assert cli.h0_canonical(1, 7) == 7
    assert cli.h0_canonical(3, 3) == 10
    with pytest.raises(ValueError):
        cli.h0_canonical(2, 1)


def test_dim_global_fixtures():
    assert cli.dim_global(0, 0, 2) == 1
    assert cli.dim_global(0, 1, 2) == 2
    assert cli.dim_global(1, 1, 2) == 5
    assert cli.dim_global(1, 1, 3) == 9
    # charge below every s-count in the block: no bundle contributions
    assert cli.dim_global(2, -1, 2) == invariant_dim(2, -1)


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
                 []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_character_weight_8_stdout_fixture(capsys):
    rc, out = run(["character", "--max-weight", "8"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0489de95447e08bf8bcbe21c9050deb04491d8f9417887290f18ee1db08b81e8")


def python_warnings_as_errors(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chiral.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_cli_unloaded():
    assert chiral.dim_global is cli.dim_global
    assert chiral.h0_canonical is cli.h0_canonical
    proc = python_warnings_as_errors(
        "-c", "import sys, chiral; print(sorted(m for m in "
              "('argparse', 'chiral.cli') if m in sys.modules))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_module_entry_point_runs_without_warning():
    proc = python_warnings_as_errors(
        "-m", "chiral.cli", "character", "--max-weight", "2", "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "k,l,dim\n0,0,1\n2,-1,1\n2,0,1\n"
