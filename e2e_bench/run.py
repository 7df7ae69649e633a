#!/usr/bin/env python3
"""Run one workload of the repository's end-to-end benchmark.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload clk_drill --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from this checkout's sources with CMake (the first run in
a checkout compiles the library; later runs are no-op rebuilds) and runs it.
Build output goes to stderr. Stdout carries a provenance line, the metric
lines and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. The build lands in $CARGO_TARGET_DIR/e2e_bench
when that variable is set (a relative path is taken from the repository
root), else in .bench_build/e2e_bench; traced runs write their spans to its
out/ directory.

Calibration (prints the figures pins.json holds; no result line):

    python3 e2e_bench/run.py --workload clk_drill --calibrate --reference-seconds 60
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clk_drill", "dist_drill", "serve_mix", "prep_mega")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(out):
    """Configures once, then rebuilds the benchmark binary; exits on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2e_bench: build failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def commit():
    """HEAD of the checkout, marked when tracked files differ from it."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git failed)"
    changed = sum(1 for line in status.splitlines() if line.strip())
    return head + ("-DIRTY-%d-files-changed" % changed if changed else "")


def main():
    ap = argparse.ArgumentParser(description="Run one end-to-end workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--calibrate", action="store_true",
                    help="print the observed pinned figures instead of checking them")
    ap.add_argument("--reference-seconds", type=float, default=0.0,
                    help="with --calibrate: budget of the reference search")
    args = ap.parse_args()

    # Without the library sources there is nothing to measure.
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2e_bench: no library sources next to " + HERE)
    out = build_dir()
    binary = build(out)
    spans = os.path.join(out, "out")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.json"), "--out", spans,
           "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    if args.calibrate:
        cmd += ["--calibrate", "--reference-seconds", repr(args.reference_seconds)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT,
                              timeout=None if args.calibrate else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        sys.exit("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
