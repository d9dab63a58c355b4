#!/usr/bin/env python3
"""End-to-end benchmark of the iotaxo pipeline.

Builds the benchmark program from the checkout's sources with CMake (into
.bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is set),
then runs one workload. The program's output passes through unchanged: its
last line is the JSON result, the lines before it the run's conditions.

    python3 perfbench/run.py --workload capture_n1_strided --seed 1 \\
        --seconds 15 --trace 0 [--small]

Workloads: capture_n1_strided, cold_restart, stream_ingest (README.md).
Run data goes under .bench_work/<workload>; a traced run leaves its span
log there.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("capture_n1_strided", "cold_restart", "stream_ingest")


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work]
    if args.small:
        command.append("--small")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
