#!/usr/bin/env python3
"""Builds the diagnosis benchmark from source and runs one workload.

Usage (from the root of a checkout):
  python3 diagbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 diagbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; stores and trace files go to .bench_work. The benchmark binary's
last stdout line is the JSON result; build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "diagbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "diagbench"],
    ):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("diagbench: build failed")
    return os.path.join(build_dir, "diagbench")


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:] + ["--work-dir", os.path.join(ROOT, ".bench_work")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("diagbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
