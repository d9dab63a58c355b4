#!/usr/bin/env python3
"""The benchmark's own test, on small inputs (about a minute after a build).

For every workload, in both modes, it runs perfbench/run.py --small and
checks that the last line is the JSON result, that every metric
BENCHMARK.json names for that mode is emitted with its unit and a finite
value, and that no operation failed. It also checks that the benchmark
exits non-zero without a result when the checkout holds no sources.

    python3 perfbench/test_small.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_small(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--small"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        where, sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])
        assert math.isfinite(got["value"]), (where, m["name"])
        if trace == 0:
            assert got["value"] > 0, (where, m["name"], got["value"])


def check_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_restart",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without sources"
    assert '"metrics"' not in proc.stdout, "printed a result without sources"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_result(workload, trace, run_small(workload, trace),
                         spec[key])
            print(f"ok  {workload} trace={trace}")
    check_fails_without_sources()
    print("ok  exits non-zero without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
