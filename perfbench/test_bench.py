#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale run of every workload.

Run from the root of the repository:

    python3 perfbench/test_bench.py

For each workload in BENCHMARK.json it runs perfbench/run.py at 2% of
the normal trace scale, untraced and traced, and checks that:
  - the run exits 0 and its last line has exactly the keys correct,
    attempted, failed and metrics;
  - every end-to-end metric (untraced) or per-layer metric (traced)
    named in BENCHMARK.json is printed with its unit;
  - the correctness checks passed: correct, failed == 0,
    attempted >= 1, and sim_cache.hits == 0.
It also checks that the benchmark fails, without printing a result,
in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE_MULT = "0.02"


def run(cwd, workload, trace):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--scale-mult", SCALE_MULT]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(spec, workload, trace):
    errors = []
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        errors.append("correctness: %s" % {k: result.get(k) for k in
                                           ("correct", "attempted",
                                            "failed")})
    metrics = result.get("metrics", {})
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(metric["name"])
        if got is None:
            errors.append("missing metric %s" % metric["name"])
        elif got.get("unit") != metric["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            errors.append("metric %s printed as %s" % (metric["name"], got))
    if trace and metrics.get("sim_cache.hits", {}).get("value") != 0:
        errors.append("sim_cache.hits is not 0")
    return errors


def check_isolated(spec):
    """Only BENCHMARK.json and the benchmark's paths: must fail."""
    scratch = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return ["a bare copy exited %d and printed %r" %
                    (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, workload["name"], trace)
            status = "FAIL" if errors else "ok"
            print("%-4s %s --trace %d" % (status, workload["name"], trace))
            for error in errors:
                print("     " + error)
            failures += bool(errors)
    errors = check_isolated(spec)
    print("%-4s bare copy fails" % ("FAIL" if errors else "ok"))
    for error in errors:
        print("     " + error)
    failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
