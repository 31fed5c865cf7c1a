#!/usr/bin/env python3
"""Builds the xpc benchmark from source and runs one workload.

Usage (from the repository root):

    python3 xpcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold_solve, warm_session, schema_solve, stream_route, or ``all``
to run the four in turn. Any other flag is passed to the benchmark binary
(see xpcbench/src/main.cc), e.g. ``--scale 0.05`` for a tiny corpus or
``--inject-wrong-verdict``.

The library (../src) and the benchmark binary are compiled with CMake into
``$CARGO_TARGET_DIR/xpcbench`` (default ``.bench_build/xpcbench``); the first
run configures and builds, later runs only check that the build is current.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's: 0 when every
check passed, non-zero when a check failed or the build did not succeed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST = os.path.join(HERE, "verdicts-seed1.txt")
WORKLOADS = ["cold_solve", "warm_session", "schema_solve", "stream_route"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "xpcbench")


def build(out):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def fixed_layout_prefix():
    """`setarch -R` where it works: with address-space randomization off,
    pointer-keyed hash tables lay out the same on every run, which removes
    a run-to-run spread of several percent on the microsecond operations."""
    try:
        if subprocess.run(["setarch", "-R", "true"], capture_output=True).returncode == 0:
            return ["setarch", "-R"]
    except OSError:
        pass
    return []


def main(argv):
    out = build_dir()
    if not build(out):
        print("xpcbench: build failed", file=sys.stderr)
        return 3
    extra = []
    if "--digest-file" not in argv:
        extra += ["--digest-file", DIGEST]
    if "--trace-dir" not in argv:
        extra += ["--trace-dir", os.path.join(out, "traces")]
    # "--workload all" runs the four workloads one after another and fails
    # if any of them fails.
    runs = [argv]
    if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
        at = argv.index("--workload") + 1
        if argv[at] == "all":
            runs = [argv[:at] + [w] + argv[at + 1:] for w in WORKLOADS]
    status = 0
    for args in runs:
        sys.stdout.flush()
        cmd = fixed_layout_prefix() + [os.path.join(out, "xpcbench")] + args + extra
        status = subprocess.run(cmd).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
