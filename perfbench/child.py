"""One cold benchmark run in a fresh interpreter.

    python3 -I perfbench/child.py '<spec json>'

The spec names a workload, its parameters and whether to trace.  The
child imports chiral from the checkout's src directory, stamps the
monotonic clock (the parent turns that into setup time), runs the
workload once with empty module caches while a speed probe ticks, and
prints one JSON line: wall time, mean probe times, peak RSS, a digest of
the output and, when traced, the layer timings and spans.  The workload
"setup" only imports chiral and probes the machine's speed.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path.insert(0, _SRC)
sys.path.insert(1, _HERE)

import chiral  # noqa: E402,F401  (the import setup_s times)

IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

from chiral import checks, freefield, modeops, sl2  # noqa: E402


_PROBE_DICT = dict.fromkeys(range(64), 0)


def probe():
    """Time a small fixed piece of interpreter work that shares no code
    with chiral and allocates nothing the garbage collector tracks.  On a
    shared host the machine runs this process up to twice as slow from
    one minute to the next; the probe time tracks that speed."""
    d = _PROBE_DICT
    t = time.perf_counter()
    for i in range(600):
        d[i & 63] = (d.get((i + 1) & 63, 0) * 31 + i) & 0xFFFF
    return time.perf_counter() - t


def fast_mean(times):
    """Mean of the fastest three quarters.  A probe that catches an
    interrupt or a lost time slice would otherwise count as if the
    machine had been that slow for a whole SpeedProbe.PERIOD."""
    fast = sorted(times)[:max(1, len(times) * 3 // 4)]
    return sum(fast) / len(fast)


def probe_burst(n=1000):
    """The machine's speed now, from n probes in a row (about 0.1 s)."""
    return fast_mean([probe() for _ in range(n)])


class SpeedProbe:
    """Runs probe() every PERIOD seconds while the workload runs, from a
    SIGALRM handler, so on the same CPU at the same moments."""

    PERIOD = 0.02

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        self.times.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)



def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def engine_sweep(params, wrap):
    kw = dict(params, blocks=tuple(tuple(b) for b in params["blocks"]))
    return wrap(checks.engine_failures, "checks.other_s",
                span="checks.engine")(**kw)


def geometry_sweep(params, wrap):
    return wrap(checks.geometry_failures, "checks.other_s",
                span="checks.geometry")(**params)


def character_table(params, wrap):
    """invariants(k, l) over every charge of every weight <= kmax, the
    blocks visited in an order shuffled by the spec's order seed."""
    charge_range = wrap(sl2.charge_range, "sl2.self_s")
    blocks = [(k, l) for k in range(params["kmax"] + 1)
              for l in charge_range(k)]
    random.Random(params["order_seed"]).shuffle(blocks)
    return [wrap(sl2.invariants, "sl2.self_s",
                 span="sl2.invariants(%d,%d)" % kl)(*kl)
            for kl in blocks]


WORKLOADS = {
    "engine_sweep": engine_sweep,
    "geometry_sweep": geometry_sweep,
    "character_table": character_table,
}


def output_lines(name, result):
    """The lines the output digest covers: the failure strings of a
    sweep, or the sorted (k, l, dim) rows of the character table, each
    followed by the state_str of its basis vectors."""
    if name != "character_table":
        return list(result)
    lines = []
    for inv in sorted(result, key=lambda inv: (inv.k, inv.l)):
        lines.append("%d,%d,%d" % (inv.k, inv.l, inv.dim))
        lines.extend(freefield.state_str(st) for st in inv.states)
    return lines


def layer_metrics(report):
    """The per-layer metrics of one traced run.  A layer the run never
    entered has no entry; the parent reads it as 0."""
    out = dict(report["self_s"], **report["counts"])
    # the caches may be renamed or removed by a later design; count 0 then
    out["freefield.cache_entries"] = (
        len(getattr(freefield, "_prod_cache", ()))
        + len(getattr(freefield, "_apply_cache", ())))
    out["modeops.words_cache_entries"] = len(getattr(modeops, "_words_cache", ()))
    return out


def run(spec):
    name = spec["workload"]
    out = {"import_done": IMPORT_DONE}
    if name == "setup":
        out["setup_probe_s"] = probe_burst()
        return out
    tracer = None
    if spec.get("trace"):
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        wrap = tracer.wrap
    else:
        def wrap(fn, key, **kw):
            return fn
    workload = WORKLOADS[name]
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin(t0)
        result = workload(spec["params"], wrap)
        wall = time.perf_counter() - t0
    # a workload too short for a tick (the smoke test's) probes afterwards
    out["probe_s"] = fast_mean(speed.times) if speed.times else probe_burst()
    lines = output_lines(name, result)
    out.update(wall_s=wall,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               digest=digest(lines),
               failures=lines[:3] if name != "character_table" else [])
    if tracer is not None:
        report = tracer.report()
        out["layers"] = layer_metrics(report)
        out["spans"] = report["spans"]
    return out


def main():
    spec = json.loads(sys.argv[1])
    try:
        out = run(spec)
    except Exception:
        out = {"import_done": IMPORT_DONE, "error": traceback.format_exc()}
    sys.stdout.write(json.dumps(out) + "\n")
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
