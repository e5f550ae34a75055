#!/usr/bin/env python3
"""The repository benchmark: build qps from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mc_det --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the qps library from ./src plus the benchmark program
qps_perfbench) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload.  Everything the run writes
(build tree, sweep journals, Chrome traces) stays under that directory.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Earlier lines record the machine and run facts (run_info), the workload's
own metric names and the set-up samples.  Exit code 0 only when that line
was printed.

setup_s is timed from process start to the first timed call.  With
--trace 0 the program is also started SETUP_PROBES times in set-up-only
mode before the measured run and SETUP_PROBES times after it; setup_s is
the median over those and the measured run's own set-up.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("mc_det", "mc_randomized", "exact_dp", "sweep_fabric")
# The benchmark program gets this long before it is killed; every run must
# finish within 180 s.
RUN_TIMEOUT_S = 170
# Set-up-only starts of the program before, and again after, the measured
# run, each after an idle gap.  Set-up is almost all process start (about
# 2 ms).  On a shared VM that cost drifts by a quarter within seconds, and
# back-to-back starts reuse each other's warm caches, so the starts are
# spaced like single starts and spread over the run.
SETUP_PROBES = 20
SETUP_PROBE_GAP_S = 0.05


def setup_probes(command):
    """Set-up times of SETUP_PROBES set-up-only starts; None on failure."""
    samples = []
    for _ in range(SETUP_PROBES):
        time.sleep(SETUP_PROBE_GAP_S)
        probe = subprocess.run(
            command + ["--setup-only", "1",
                       "--start-ns", str(time.monotonic_ns())],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
        if probe.returncode != 0:
            log(f"a set-up-only start exited with code {probe.returncode}")
            return None
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the library sources: identifies the code built, also in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_of(root):
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    return "none (not a git checkout)"


def build(root, build_dir):
    """Configures once and builds the benchmark program; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "qps_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "qps_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no qps sources under ./src; run from the repository root")
        return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        exe = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    commit = f"{commit_of(root)} src-sha256:{source_digest(root)}"
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", run_dir, "--commit", commit]
    setup_samples = []
    try:
        if args.trace == 0:
            setup_samples = setup_probes(command)
            if setup_samples is None:
                return 1
            time.sleep(SETUP_PROBE_GAP_S)
        result = subprocess.run(
            command + ["--start-ns", str(time.monotonic_ns())],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
        after = setup_probes(command) if args.trace == 0 else []
        if after is None:
            return 1
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log(f"{args.workload} exited with code {result.returncode}")
        return 1
    try:
        final = json.loads(lines[-1])
    except json.JSONDecodeError:
        final = None
    if not isinstance(final, dict) or set(final) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(result.stdout)
        log("the benchmark program printed no result line")
        return 1
    if setup_samples:
        setup = final["metrics"]["setup_s"]
        setup_samples += [setup["value"]] + after
        setup["value"] = statistics.median(setup_samples)
        lines[-1:] = [json.dumps({"setup_samples_s": setup_samples}),
                      json.dumps(final)]
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
