"""Command line front end.

Subcommands:

* character: table of invariant-space dimensions per (weight, charge).
* invariants: dimension (and optionally a basis) of one invariant block.
* verify: run the exact verification sweeps and report the first
  counterexample, if any.
* hzero: assemble global-section dimensions over a closed curve of
  genus >= 2 from the invariant table, the block counts, and a
  classical section-count formula for powers of the canonical bundle.

All output is deterministic: repeated runs produce identical bytes.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import sys

from . import checks
from .freefield import state_str
from .geometry import dim_global, h0_canonical  # noqa: F401 (re-exported)
from .sl2 import character, invariants


def _emit_table(entries, fmt, header):
    if fmt == "csv":
        lines = ["k,l,dim"]
        lines += ["%d,%d,%d" % e for e in entries]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        doc = dict(header)
        doc["entries"] = [{"k": k, "l": l, "dim": d} for k, l, d in entries]
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def cmd_character(args):
    table = character(args.max_weight)
    entries = [(k, l, d) for (k, l), d in sorted(table.items())]
    _emit_table(entries, args.format, {"max_weight": args.max_weight})
    return 0


def cmd_invariants(args):
    inv = invariants(args.weight, args.charge)
    sys.stdout.write("dim %d\n" % inv.dim)
    if args.basis:
        for i, st in enumerate(inv.states):
            sys.stdout.write("state %d: %s\n" % (i + 1, state_str(st)))
    return 0


_SUITES = ("engine", "sl2", "geometry")


def _run_suite(name):
    if name == "engine":
        return checks.engine_failures(**checks.ENGINE_CLI)
    if name == "sl2":
        return checks.sl2_failures(kmax=2, dmax=2, kernel_kmax=3)
    return checks.geometry_failures(kmax=2, case3_kmax=3)


def cmd_verify(args):
    names = _SUITES if args.suite == "all" else (args.suite,)
    bad = 0
    for name in names:
        fails = _run_suite(name)
        if fails:
            bad += 1
            sys.stdout.write("%s: FAIL (%d identities)\n" % (name, len(fails)))
            sys.stdout.write("first counterexample: %s\n" % fails[0])
        else:
            sys.stdout.write("%s: ok\n" % name)
    return 1 if bad else 0


def cmd_hzero(args):
    entries = []
    for k in range(args.max_weight + 1):
        for l in range(-(k + 2), k + 3):
            d = dim_global(k, l, args.genus)
            if d:
                entries.append((k, l, d))
    _emit_table(entries, args.format,
                {"max_weight": args.max_weight, "genus": args.genus})
    return 0


def _nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _genus(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("genus must be at least 2")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chiral",
        description="Exact computations in the bc-beta-gamma system: "
                    "graded characters, invariant bases, and global-section "
                    "dimensions over closed curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("character",
                       help="invariant-space dimensions up to a weight")
    p.add_argument("--max-weight", type=_nonneg, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("invariants",
                       help="dimension and basis of one invariant block")
    p.add_argument("--weight", type=_nonneg, required=True)
    p.add_argument("--charge", type=int, required=True)
    p.add_argument("--basis", action="store_true",
                   help="also print a kernel basis, one state per line")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="run the exact verification sweeps")
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "hzero",
        help="global-section dimensions over a genus-g curve",
        description="Assembles per-(weight, charge) global-section "
                    "dimensions.  Fiber data is exact; the h0 counts for "
                    "powers of the canonical bundle come from the classical "
                    "genus formula (an extension on top of the exact "
                    "calculus; see h0_canonical).")
    p.add_argument("--genus", type=_genus, required=True)
    p.add_argument("--max-weight", type=_nonneg, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_hzero)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
