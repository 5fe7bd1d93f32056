#!/usr/bin/env python3
"""Builds bench_suite from this checkout, then runs it.

    python3 bench/suite/run.py --workload seq2seq --seed 1 --seconds 30 --trace 0

Every argument goes to bench_suite unchanged; see main.cc for its modes.
The build lives in $CARGO_TARGET_DIR/suite, or in .bench_build/suite under
the current directory, and only the first call compiles. Build output goes
to build.log there, so stdout carries only the benchmark's own lines, the
last of which is its JSON result.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
# A first call builds and then runs; the two together stay within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and not os.path.exists(
        os.path.join(build_dir, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SUITE_DIR, "-B", build_dir] + generator)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_suite", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            timeout = max(deadline - time.monotonic(), 1)
            if run(cmd, timeout, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "bench_suite")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(target, "suite")))
    sys.stdout.flush()
    sys.exit(run([binary] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
