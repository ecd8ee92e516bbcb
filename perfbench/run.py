"""The chiral benchmark: cold, single-threaded runs of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; chiral is imported from its src
directory.  Users start chiral cold (`chiral verify`, `chiral character`),
so every sample is a fresh child interpreter whose module caches start
empty.  Children run one at a time, until S seconds have passed.

Workloads (see README.md in this directory for why each exists):

* engine_sweep: checks.engine_failures at the `chiral verify` sizes;
  freefield's product recursion and the checks loops.
* character_table: sl2.invariants(k, l) for every charge of every
  weight <= 7, blocks visited in an order shuffled by --seed; linalg.
* geometry_sweep: checks.geometry_failures(kmax=5, case3_kmax=5);
  modeops, the mode action and chart arithmetic.

The seed only reorders character_table; the two sweeps have a fixed
visiting order and record the seed.  Every sample is checked: the sweeps
must return no failures and character_table must reproduce a digest of
its rows and basis vectors frozen when the benchmark was defined.  A
sample fails on a wrong digest, an exception or a timeout.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s (median workload time per child), setup_s (median time from
spawn until `import chiral` returns), peak_rss_mb (median ru_maxrss) and
success_rate (1 - error_rate, a form that is never 0 on a passing
run).  With --trace 1 untraced and traced children alternate; the traced
ones time every layer boundary (layertrace.py), their outputs must equal
the untraced ones, and the last line reports the per-layer metrics.

On a host whose cores are shared with other tenants the same child can
run up to twice as slow from one minute to the next.  So every child times a
small fixed probe (child.probe) while it works, and every reported time
is scaled to nominal machine speed by adjusted().  The raw seconds stay
in the record that every run writes to .bench_out/ in the checkout,
together with the machine, the tree and every sample.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "chiral")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# a child is killed after this long (the slowest sample takes about 8 s),
# or when the run is RUN_SLACK_S past its --seconds, so a run always ends
CHILD_TIMEOUT_S = 60
RUN_SLACK_S = 60
# set-up-only children per run, after one discarded warm-up; setup_s
# comes from these alone, since a child started right after a large
# workload child sets up measurably slower
SETUP_SAMPLES = 12

# child.probe()'s duration at the speed the reported times refer to;
# see adjusted()
PROBE_NOMINAL_S = 1e-4

EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()

# Inputs are pinned here, not read from chiral, so a later change to
# checks.ENGINE_CLI cannot change the workload.  The character_table
# digest was frozen from the commit that defined this benchmark.
WORKLOADS = {
    "engine_sweep": {
        "params": {"amax": 2, "xmax": 1, "adeg": 1, "xdeg": 1, "nbound": 2,
                   "blocks": [[2, 2, 1, 0], [1, 1, 1, 1]]},
        "digest": EMPTY_DIGEST,
    },
    "character_table": {
        "params": {"kmax": 7},
        "digest": "01278b8622f23c98dafa1c13915b78040d0a3e2d0f1595ea32da23c437cbb3b1",
    },
    "geometry_sweep": {
        "params": {"kmax": 5, "case3_kmax": 5},
        "digest": EMPTY_DIGEST,
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}

PER_LAYER = {
    "checks.commutator_s": "s", "checks.translation_s": "s",
    "checks.vacuum_s": "s", "checks.other_s": "s",
    "freefield.product_s": "s", "freefield.product_calls": "count",
    "freefield.mode_s": "s", "freefield.mode_calls": "count",
    "freefield.cache_entries": "count",
    "modeops.apply_s": "s", "modeops.apply_calls": "count",
    "modeops.words_cache_entries": "count",
    "linalg.kernel_s": "s", "linalg.kernel_calls": "count",
    "linalg.matrix_nnz": "count", "linalg.matrix_cells": "count",
    "linalg.nullity": "count",
    "sl2.self_s": "s",
    "geometry.self_s": "s", "geometry.chains": "count",
    "geometry.chain_steps": "count",
    "basis.enumerate_s": "s", "basis.monomials": "count",
    "trace_overhead": "ratio",
}


def spawn(spec, timeout=CHILD_TIMEOUT_S):
    """Run one child on spec and return its report, with setup_s added
    and "error" set if it failed to produce one."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, "-I", CHILD, json.dumps(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timeout after %.1f s" % timeout}
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "exit %d, no report: %s" % (proc.returncode, err[-2000:])}
    if proc.returncode and "error" not in report:
        report["error"] = "exit %d: %s" % (proc.returncode, err[-2000:])
    report["setup_s"] = report["import_done"] - start
    return report


def adjusted(seconds, probe_s):
    """seconds at nominal machine speed: the measured time times
    PROBE_NOMINAL_S over the probe time the same child measured over the
    same interval (probe_s) or, for set-up, right after it
    (setup_probe_s)."""
    return seconds * PROBE_NOMINAL_S / probe_s


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setups, plain, attempted, failed):
    ran = [s for s in plain if "error" not in s]
    setup = [s for s in setups if "error" not in s]
    return {
        "wall_s": _median(adjusted(s["wall_s"], s["probe_s"]) for s in ran),
        "setup_s": _median(adjusted(s["setup_s"], s["setup_probe_s"])
                           for s in setup),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in ran),
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(plain, traced):
    ran = [s for s in plain if "error" not in s]
    ran_traced = [s for s in traced if "error" not in s]
    metrics = {}
    for key, unit in PER_LAYER.items():
        if unit == "s":
            metrics[key] = _median(adjusted(s["layers"].get(key, 0), s["probe_s"])
                                   for s in ran_traced)
        elif key != "trace_overhead":
            metrics[key] = _median(s["layers"].get(key, 0) for s in ran_traced)
    wall = _median(adjusted(s["wall_s"], s["probe_s"]) for s in ran)
    wall_traced = _median(adjusted(s["wall_s"], s["probe_s"]) for s in ran_traced)
    metrics["trace_overhead"] = wall_traced / wall - 1 if wall and wall_traced else 0.0
    return metrics


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def tree():
    """The git commit, when the checkout is a repository, and a digest of
    the chiral sources, which identifies the tree either way."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def measure(name, seed, seconds, trace, workload=None, setup_samples=SETUP_SAMPLES):
    """Run the workload for `seconds` and return the result line and the
    full record.  `workload` overrides the entry in WORKLOADS (the smoke
    test runs tiny sizes and wrong digests through it)."""
    workload = workload or WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "params": workload["params"],
              "machine_before": machine(), "tree": tree()}
    rng = random.Random(seed)

    def spec(traced, order_seed):
        params = dict(workload["params"])
        if name == "character_table":
            params["order_seed"] = order_seed
        return {"workload": name, "params": params, "trace": traced}

    limit = time.monotonic() + seconds + RUN_SLACK_S

    def child(spec):
        return spawn(spec, min(CHILD_TIMEOUT_S, limit - time.monotonic()))

    child({"workload": "setup"})  # warm-up: compiles bytecode caches
    setups = [child({"workload": "setup"}) for _ in range(setup_samples)]
    deadline = time.monotonic() + seconds
    plain, traced, mismatches = [], [], 0
    while True:
        order_seed = rng.getrandbits(32)
        plain.append(child(spec(False, order_seed)))
        if trace:
            traced.append(child(spec(True, order_seed)))
            if traced[-1].get("digest") != plain[-1].get("digest"):
                mismatches += 1
        if time.monotonic() >= deadline:
            break
    record["machine_after"] = machine()

    expected = workload["digest"]
    samples = plain + traced
    attempted = len(samples)
    failed = sum("error" in s or s["digest"] != expected for s in samples)
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(setups, plain, attempted, failed), END_TO_END
    result = {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    record["raw_medians"] = {
        key: _median(s[key] for s in group if "error" not in s)
        for key, group in (("wall_s", plain), ("probe_s", plain),
                           ("setup_s", setups), ("setup_probe_s", setups))}
    record.update(result=result, trace_mismatches=mismatches,
                  setup_samples=setups, samples=samples)
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.stderr.write("run.py: no chiral sources at %s; run from the root "
                         "of a chiral checkout\n" % SRC)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    env = record["machine_before"]
    print("machine: nproc %d, Python %s, %s, load %.2f -> %.2f"
          % (env["nproc"], env["python"], env["platform"], env["loadavg"][0],
             record["machine_after"]["loadavg"][0]))
    print("samples: %d workload, %d set-up; failed %d"
          % (result["attempted"], len(record["setup_samples"]), result["failed"]))
    for key, m in result["metrics"].items():
        print("%-28s %-14.6g %s" % (key, m["value"], m["unit"]))
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
