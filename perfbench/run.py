#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload adhoc-exact --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (the library from src/ plus seedb_perfbench)
as a Release build under .bench_build/, runs seedb_perfbench, and relays its
output.
The last stdout line is the JSON result. With --trace 1 both Chrome traces --
the benchmark's own spans and the program's obs trace of the traced sessions
-- are checked with tools/validate_trace.py; a trace that fails turns the
result incorrect. Exit status: 0 when every correctness check
passed, non-zero otherwise (no result line is printed when the build or the
benchmark program itself fails).
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout=None):
    """Runs cmd to completion (killing it on timeout); returns (code, out)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        return 124, ""
    return proc.returncode, out


def build(root):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("src/CMakeLists.txt not found: run from the repository root")
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "seedb_perfbench"],
    ]
    for cmd in steps:
        code, out = run(cmd)
        sys.stderr.write(out)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(cmd)}")
            return False
    # The probe is optional: it exists only where google-benchmark does.
    code, out = run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                     "perfbench_gbench_probe"])
    sys.stderr.write(out)
    return True


def gbench_build_type():
    probe = os.path.join(BUILD_DIR, "perfbench_gbench_probe")
    if not os.path.isfile(probe):
        return "absent"
    code, out = run([probe, "--benchmark_format=json"], timeout=60)
    try:
        return json.loads(out)["context"]["library_build_type"]
    except (ValueError, KeyError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny tables, a handful of sessions (self-test)")
    args = ap.parse_args()

    root = os.getcwd()
    if not build(root):
        return 2

    cmd = [os.path.join(BUILD_DIR, "seedb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    trace_paths = []
    if args.trace == "1":
        stem = os.path.join(BUILD_DIR, f"{args.workload}-{args.seed}")
        trace_paths = [stem + "-trace.json", stem + "-program-trace.json"]
        cmd += ["--trace-out", trace_paths[0],
                "--program-trace-out", trace_paths[1]]
    if args.smoke:
        cmd.append("--smoke")
    print(f"gbench: library_build_type={gbench_build_type()}", flush=True)
    code, out = run(cmd, timeout=BENCH_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        log(f"seedb_perfbench exited {code} without a result")
        return code or 2
    for line in lines[:-1]:
        print(line)

    validator = os.path.join(root, "tools", "validate_trace.py")
    for path in trace_paths:
        vcode, vout = run([sys.executable, validator, path], timeout=120)
        print(f"{path}: {vout.strip()}")
        if vcode != 0:
            result["correct"] = False
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
