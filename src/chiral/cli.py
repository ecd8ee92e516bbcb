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
Exit codes: 0 success, 1 verification failure or a reader that closed
stdout before the output was written, 2 usage error (a weight above
chiral.basis.MAX_WEIGHT included).
"""

import argparse
import json
import os
import sys

from . import checks
from .basis import MAX_WEIGHT, grades
from .freefield import state_str
from .geometry import dim_global
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
        return checks.sl2_failures()
    return checks.geometry_failures()


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
    entries = [(k, l, d) for k, l in grades(args.max_weight)
               if (d := dim_global(k, l, args.genus))]
    _emit_table(entries, args.format,
                {"max_weight": args.max_weight, "genus": args.genus})
    return 0


def _nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _weight(text):
    value = _nonneg(text)
    if value > MAX_WEIGHT:
        raise argparse.ArgumentTypeError("must be at most %d" % MAX_WEIGHT)
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
    p.add_argument("--max-weight", type=_weight, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("invariants",
                       help="dimension and basis of one invariant block")
    p.add_argument("--weight", type=_weight, required=True)
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
    p.add_argument("--max-weight", type=_weight, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_hzero)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # a closed pipe shows on the flush, so raise it here
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, so that
        # the flush at interpreter shutdown is silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
