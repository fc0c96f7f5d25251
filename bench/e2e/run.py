#!/usr/bin/env python3
"""Build drs_bench from this source checkout, then run one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the repository root. The CMake build goes to $CARGO_TARGET_DIR,
or to .bench_build when that is unset, and all build output goes to stderr,
so the last line of stdout is drs_bench's one-line JSON result. With
--trace 1 the run reports the per-layer metrics and writes its Chrome trace
to <build dir>/trace-<workload>-<seed>.json.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent  # bench/e2e
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout):
    """Runs cmd with its stdout sent to stderr; waits for it to end."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no src/CMakeLists.txt; run from a full source checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        if call(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if call(["cmake", "--build", build_dir, "--target", "drs_bench", "-j", jobs],
            BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return build_dir / "drs_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", build_dir / f"trace-{args.workload}-{args.seed}.json"]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"drs_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
