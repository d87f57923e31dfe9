#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table1_compile --seed 1 \
        --seconds 25 --trace 0

Builds the nassc library, nasscd and the perfbench harness from the
source tree this directory sits in (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and passes the
harness's output through.  The last line of standard output is the JSON
result; it is printed only when its metric names match BENCHMARK.json
for the chosen mode.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_compile", "heavyhex_route", "wire_mix")
DEFAULT_SEED = 1    # the seed the recorded figures were measured at
HELD_OUT_SEED = 11  # never used while tuning; confirm claims on it too
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "nassc")):
        fail("no nassc source tree next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench", "example_nasscd"]
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        fail("build failed")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nasscd", os.path.join(build_dir, "nassc", "nasscd"),
           "--run-dir", ".bench_run"]
    # Own session, so every process the harness starts can be stopped
    # as a group if it overruns.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness overran %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("harness exited %d without a result" % proc.returncode)
    names = list(result.get("metrics", {}))
    want = expected_metrics(args.trace)
    if sorted(names) != sorted(want):
        fail("metric names %s do not match BENCHMARK.json %s"
             % (sorted(names), sorted(want)))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
