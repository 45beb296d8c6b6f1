#!/usr/bin/env python3
"""End-to-end benchmark of the safety/liveness library.

Builds the harness in e2ebench/ (with the library sources in src/) and runs
one workload through the library's public API:

    python3 e2ebench/run.py --workload <spec-verdict|fleet-stream|quant-query>
                            --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice
with the same seed, untraced and then traced; it checks that both give the
same outputs and prints the per-layer metrics of the traced run plus
bench.trace_overhead_share. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Any output
check that fails makes the run exit non-zero without printing a result.
See e2ebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
BUILD_TYPE = "Release"

WORKLOADS = ("spec-verdict", "fleet-stream", "quant-query")
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb", "setup_s")
# Outputs that must not depend on timing, tracing or the run.
DETERMINISTIC = ("input_digest", "verdict_digest", "failed_set_digest")
# Whole-run budget, under the 180 s a run may take; a traced run shares it
# between its untraced and traced passes.
RUN_BUDGET_S = 175


class BenchError(Exception):
    pass


def slat_overrides():
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("SLAT_")}


def content_hash():
    """sha256 over the library sources, the benchmark package and
    BENCHMARK.json: the code a result was measured on."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench", "BENCHMARK.json"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the harness; an up-to-date build is a
    no-op. Output goes to a log file so stdout stays clean."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if subprocess.run(cmd + generator, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("cmake configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            raise BenchError("build failed, see " + log_path)


def run_binary(workload, seed, seconds, trace, extra=(), deadline=None):
    """Runs the harness in its own process group and returns its JSON
    record. Exit code 2 means an output check failed."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    timeout = RUN_BUDGET_S if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, cwd=BUILD_DIR)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} did not finish within its {RUN_BUDGET_S} s budget")
    finally:
        # Reap anything left in the group (workers of a crashed client).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode == 2:
        raise BenchError(f"{workload}: output check failed (see stderr)")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: harness exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: harness printed no result")
    return json.loads(lines[-1])


def same_outputs(a, b):
    return all(a["info"][k] == b["info"][k] for k in DETERMINISTIC) and \
        (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    overrides = slat_overrides()
    if not args.trace and overrides:
        print("e2ebench: refusing to run: SLAT_* overrides select a non-default "
              "library configuration: " + " ".join(overrides), file=sys.stderr)
        return 3

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        tree = content_hash()
        untraced = run_binary(args.workload, args.seed, args.seconds, False, deadline=deadline)
        record = untraced
        metrics = {k: untraced["metrics"][k] for k in END_TO_END}
        if args.trace:
            spans = os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.tsv")
            record = run_binary(args.workload, args.seed, args.seconds, True, ("--spans", spans),
                                deadline)
            if not same_outputs(untraced, record):
                raise BenchError(f"{args.workload}: traced outputs differ from the untraced run")
            metrics = dict(record["layers"])
            slowdown = untraced["metrics"]["ops_per_s"]["value"] / record["metrics"]["ops_per_s"]["value"]
            metrics["bench.trace_overhead_share"] = {"value": slowdown - 1.0, "unit": "share"}
    except BenchError as e:
        print("e2ebench: " + str(e), file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tree": tree, "build_type": record["info"]["build_type"],
        "compiler": record["info"]["compiler"], "nproc": int(record["info"]["nproc"]),
        "pool_threads": int(record["info"]["pool_threads"]), "slat_env": overrides,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    info = {k: v for k, v in record["info"].items()
            if k not in ("build_type", "compiler", "nproc", "pool_threads")}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("outputs: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
