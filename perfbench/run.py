#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark program is configured and built with
CMake under $CARGO_TARGET_DIR (default .bench_build), then run once; its
stdout is passed through, so the last line is the JSON result. For seed 1
the deterministic metrics must equal those recorded in
perfbench/expected.json, else the run exits non-zero with "correct":
false.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["sim_flood", "sim_sweep", "net_chaos", "churn_storm"]
RECORDED_SEED = 1


def build(build_dir):
    """Configures (once) and builds the benchmark program; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def deterministic(lines):
    tag = "deterministic "
    for line in lines:
        if line.startswith(tag + "{"):
            return json.loads(line[len(tag):])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    proc = subprocess.run(
        [os.path.join(build_dir, "celect_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    det = deterministic(lines)

    if args.seed == RECORDED_SEED and det is not None:
        with open(EXPECTED) as f:
            expected = json.load(f)
        if expected.get(args.workload) != det:
            lines.insert(-1, "FAILED: deterministic metrics differ from "
                         "perfbench/expected.json: expected %s"
                         % json.dumps(expected.get(args.workload)))
            result["correct"] = False
            lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
