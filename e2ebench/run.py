#!/usr/bin/env python3
"""Builds and runs the end-to-end importance benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload banzhaf_nb_3k --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload named in BENCHMARK.json in turn and
exits non-zero if any of them does.

The first call configures and builds the nde libraries plus the benchmark
binary (CMake, Release) into the directory named by CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed. Build
output goes to stderr so that the binary's last stdout line, one JSON object,
stays the last line of this script's stdout. Result records and traced-run
span files are written under <build dir>/e2ebench_out.
"""

import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The binary itself stops well inside this; the margin covers a stuck host.
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def git_revision():
    """Short HEAD revision, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return rev.stdout.strip() or "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no nde sources under {ROOT}/src; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    # Serialise concurrent runs in one checkout around the build.
    with open(os.path.join(build_dir, ".e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
            if step.returncode != 0:
                fail("cmake configure failed")
        step = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "nde_e2e_bench",
             "--parallel", BUILD_JOBS],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("build failed")
    binary = os.path.join(build_dir, "nde_e2e_bench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run(binary, args, out_dir):
    """Runs the binary once; returns its exit code. The binary is killed and
    reaped if it overruns or if this script is interrupted or terminated."""
    command = [binary] + args + ["--out-dir", out_dir, "--git-rev", git_revision()]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    os.chdir(ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "e2ebench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        at = args.index("--workload") + 1
        if args[at] == "all":
            # Every workload of BENCHMARK.json in turn; fails if any fails.
            with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
                names = [w["name"] for w in json.load(spec)["workloads"]]
            codes = []
            for name in names:
                print(f"=== {name} ===", flush=True)
                codes.append(run(binary, args[:at] + [name] + args[at + 1:], out_dir))
            sys.exit(max(codes))
    sys.exit(run(binary, args, out_dir))


if __name__ == "__main__":
    main()
