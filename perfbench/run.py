#!/usr/bin/env python3
"""Builds fl_perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fleet_plain --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, incrementally rebuilt on every call); build output goes to
stderr so the last line of standard output is the benchmark's JSON result.
Every FL_* variable is removed from the benchmark's environment, so the
libraries run at their shipping defaults.

Extra options for checking other build configurations:
    --build-dir DIR      build tree to use instead of .bench_build/perfbench
    --cmake-arg ARG      passed to the configure step (repeatable), e.g.
                         --cmake-arg=-DFL_PROFILER=OFF
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORKLOADS = ("fleet_plain", "fleet_secagg_codec", "fedavg_sim")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_build_step(command):
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build step failed: {e}")


def build(build_dir, cmake_args):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources to build: {ROOT / 'src'} is missing")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(PERFBENCH), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *cmake_args]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", str(build_dir), "--target",
                    "fl_perfbench", "-j", jobs])
    return build_dir / "fl_perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        data = json.load(f)
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / ".bench_build" / "perfbench")
    parser.add_argument("--cmake-arg", action="append", default=[])
    args = parser.parse_args()

    binary = build(args.build_dir.resolve(), args.cmake_arg)
    env = {k: v for k, v in os.environ.items() if not k.startswith("FL_")}
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail(f"fl_perfbench exited with code {result.returncode}")

    # The result line must carry exactly the metrics BENCHMARK.json names.
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    expected = expected_metrics(bool(args.trace))
    if expected is not None and sorted(record["metrics"]) != sorted(expected):
        print("\n".join(lines[:-1]))
        missing = sorted(set(expected) - set(record["metrics"]))
        extra = sorted(set(record["metrics"]) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
