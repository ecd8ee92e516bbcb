"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once at its smallest size, untraced and traced, and
checks that each metric BENCHMARK.json names is emitted with its unit,
that the traced outputs equal the untraced ones, and that a wrong
expected digest fails every sample (error_rate 1), so the gate gates;
an exception or a timeout in a child fails its sample too.
Exits 1 on the first failed check.  The functions are also plain pytest
tests: `python3 -m pytest perfbench/smoke.py`.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = {
    "engine_sweep": {
        "params": {"amax": 1, "xmax": 0, "adeg": 0, "xdeg": 0, "nbound": 1,
                   "blocks": [[1, 1, 0, 0]]},
        "digest": run.EMPTY_DIGEST,
    },
    # character_table at weight 3, digest frozen with the kmax = 7 one
    "character_table": {
        "params": {"kmax": 3},
        "digest": "4e0303e3c76573996c25cb2e692bc8daa5b69613c27fe0e85dc3457810b0a5cd",
    },
    "geometry_sweep": {
        "params": {"kmax": 1, "case3_kmax": 1},
        "digest": run.EMPTY_DIGEST,
    },
}


# a layer each tiny workload must enter, so a misspelt boundary shows
ENTERED = {
    "engine_sweep": ("freefield.product_calls", "checks.commutator_s"),
    "character_table": ("linalg.kernel_calls", "modeops.apply_calls"),
    "geometry_sweep": ("geometry.chains", "freefield.mode_calls"),
}


def _measure(name, trace, workload):
    result, _ = run.measure(name, seed=7, seconds=0, trace=trace,
                            workload=workload, setup_samples=1)
    return result


def _declared(group):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def test_declared_metrics_match_harness():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


def test_every_metric_emitted_with_unit():
    for name, workload in TINY.items():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = _measure(name, trace, workload)
            assert result["correct"], (name, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            assert got == units, (name, trace, got)
            for key, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, key)
            if trace:
                for key in ENTERED[name]:
                    assert result["metrics"][key]["value"] > 0, (name, key)


def test_wrong_digest_gives_error_rate_one():
    for name, workload in TINY.items():
        wrong = dict(workload, digest="0" * 64)
        result = _measure(name, False, wrong)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1
        assert result["metrics"]["success_rate"]["value"] == 0


def test_exception_and_timeout_count_as_failures():
    broken = dict(TINY["geometry_sweep"], params={"kmax": "one"})
    result = _measure("geometry_sweep", False, broken)
    assert result["failed"] == result["attempted"] >= 1
    saved = run.CHILD_TIMEOUT_S
    run.CHILD_TIMEOUT_S = 0.001
    try:
        result = _measure("engine_sweep", False, TINY["engine_sweep"])
    finally:
        run.CHILD_TIMEOUT_S = saved
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


if __name__ == "__main__":
    for test in (test_declared_metrics_match_harness,
                 test_every_metric_emitted_with_unit,
                 test_wrong_digest_gives_error_rate_one,
                 test_exception_and_timeout_count_as_failures):
        test()
        print("ok", test.__name__)
