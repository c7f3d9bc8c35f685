#!/usr/bin/env python3
"""Build foscil's benchmark from source and run one workload.

    python3 perfbench/run.py --workload plan_4x4 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --calibrate [--seed 7] [--seconds 10]
    python3 perfbench/run.py --self-test

The benchmark is the CMake package in this directory; it compiles the
libraries under src/ of the same checkout into <build root>/perfbench, where
the build root is $CARGO_TARGET_DIR or .bench_build.  Each run writes a record
(metrics, seed, machine fingerprint) and, when traced, its spans under
<build root>/perfbench/results.  The last line of standard output is one JSON
object; the exit code is nonzero when the build fails or an output check
fails.  README.md describes the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_6x6", "plan_4x4", "serve_zipf")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root, "perfbench")


def build(targets):
    """Configure once, then (re)build `targets`; output goes to build.log."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return out


def source_digest():
    """Content hash of src/, standing in for a commit id where the checkout
    is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def check_result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true",
                        help="step serve_zipf's offered rate (not a check run)")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no foscil sources under {os.path.join(ROOT, 'src')}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if args.self_test:
        out = build(["perfbench_tests"])
        return subprocess.call([os.path.join(out, "perfbench_tests")])
    out = build(["foscil_perfbench"])
    binary = os.path.join(out, "foscil_perfbench")
    if args.calibrate:
        return subprocess.call([binary, "--calibrate", "--seed",
                                str(args.seed), "--seconds", str(args.seconds)])
    if args.workload is None:
        fail("--workload is required")

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", results, "--source", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode not in (0, 1) or not check_result_line(run.stdout):
        fail(f"{args.workload} exited {run.returncode} without a result line")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
