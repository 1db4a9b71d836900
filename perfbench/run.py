#!/usr/bin/env python3
"""Build and run cachetime's performance benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload missratio_grid --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the cachetime library from src/ plus the benchmark
program) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload.
The CTTRACE2 files and the trace-event session file live in a
temporary directory under the build directory, removed at exit.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 this
script adds the per-layer self times it reads from the session file
(see README.md).  The exit status is nonzero when the build fails,
the sources are missing, or any output differs from its reference.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; output to stderr."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir


def source_id():
    """The commit when run from a git work tree, else a source digest."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def layer_self_times(trace_path):
    """Per-layer self seconds from the benchmark's own spans.

    The benchmark names its spans "<layer>:<leg>" (and "pass" for a
    workload pass).  A span's self time is its duration minus the part
    covered by the benchmark spans nested inside it on the same thread.
    A layer's figure is the sum over its legs of each leg's median self
    time, i.e. one repetition of every leg of that layer.  pool.busy_s
    is the pool's chunk time (the program's own spans) summed over its
    executors, per traced pass.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    ours = [e for e in spans if e["pid"] == 1
            and (":" in e["name"] or e["name"] == "pass")]

    by_track = {}
    for e in ours:
        by_track.setdefault(e["tid"], []).append(e)
    self_us = {}
    for track in by_track.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        for i, e in enumerate(track):
            end = e["ts"] + e["dur"]
            covered, reach = 0, e["ts"]
            for child in track[i + 1:]:
                if child["ts"] >= end:
                    break
                child_end = min(child["ts"] + child["dur"], end)
                if child_end > reach:
                    covered += child_end - max(child["ts"], reach)
                    reach = child_end
            self_us.setdefault(e["name"], []).append(e["dur"] - covered)

    layers = {}
    for name, values in self_us.items():
        layer = name.split(":")[0]
        layers[layer] = layers.get(layer, 0.0) + \
            statistics.median(values) / 1e6

    passes = [e for e in ours if e["name"] == "pass"]
    busy = []
    for p in passes:
        lo, hi = p["ts"], p["ts"] + p["dur"]
        busy.append(sum(e["dur"] for e in spans if e["pid"] == 2
                        and lo <= e["ts"] < hi) / 1e6)
    metrics = {"self_s." + layer: {"value": value, "unit": "s"}
               for layer, value in sorted(layers.items())}
    metrics["pool.busy_s"] = {
        "value": statistics.median(busy) if busy else 0.0, "unit": "s"}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-mult", type=float, default=1.0,
                        help="shrink the traces (the self-test uses this)")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "configs/two_level.vary",
                   "configs/physical.vary"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a cachetime source tree" % needed)

    build_dir = build()
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        trace_out = os.path.join(tmp_dir, "session.json")
        command = [os.path.join(build_dir, "cachetime_perfbench"),
                   "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace),
                   "--scale-mult", repr(args.scale_mult),
                   "--tmp-dir", tmp_dir,
                   "--trace-out", trace_out,
                   "--config-dir", os.path.join(ROOT, "configs"),
                   "--commit", source_id()]
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("the benchmark printed nothing (exit %d)" % proc.returncode,
                 proc.returncode or 2)
        result = json.loads(lines[-1])
        if args.trace and proc.returncode == 0:
            result["metrics"].update(layer_self_times(trace_out))
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
        sys.exit(proc.returncode)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
