#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/tests/selftest.py

For each workload it makes a small run twice with one seed and requires
identical input digests, verdict digests, failure sets and op counts; it
then makes the traced run and requires the same outputs again, plus every
per-layer metric of the catalog. Finally it checks that an untraced run
refuses to start under a SLAT_* override. Exits non-zero on the first
failure. Takes about 15 s after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (e2ebench/run.py)

SEED = 7
# Short enough that every workload runs at its floor of 1000 ops, where
# spec-verdict already sees failures.
SECONDS = 0.05


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_workload(workload):
    first = run.run_binary(workload, SEED, SECONDS, False)
    second = run.run_binary(workload, SEED, SECONDS, False)
    if not run.same_outputs(first, second):
        fail(f"{workload}: two runs with seed {SEED} differ: {first['info']} vs {second['info']}")
    traced = run.run_binary(workload, SEED, SECONDS, True)
    if not run.same_outputs(first, traced):
        fail(f"{workload}: traced outputs differ: {first['info']} vs {traced['info']}")
    expected = {name for name, _ in run_catalog()} - {"bench.trace_overhead_share"}
    missing = expected - set(traced["layers"])
    if missing:
        fail(f"{workload}: traced run lacks per-layer metrics {sorted(missing)}")
    if set(first["metrics"]) != set(run.END_TO_END):
        fail(f"{workload}: end-to-end metrics are {sorted(first['metrics'])}")
    if workload != "spec-verdict" and first["failed"] != 0:
        fail(f"{workload}: {first['failed']} failed ops")
    print(f"selftest: {workload}: ok (attempted {first['attempted']}, failed {first['failed']}, "
          f"failed set {first['info']['failed_set_digest']})")


def run_catalog():
    """The per-layer catalog, as BENCHMARK.json lists it."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def check_override_refusal():
    env = dict(os.environ, SLAT_CACHE="0")
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                           "quant-query", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          env=env, capture_output=True, text=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("an untraced run started under SLAT_CACHE=0")
    print("selftest: SLAT_* override refused: ok")


def main():
    run.build()
    for workload in run.WORKLOADS:
        check_workload(workload)
    check_override_refusal()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
