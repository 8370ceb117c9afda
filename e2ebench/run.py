#!/usr/bin/env python3
"""Build and run the focs end-to-end benchmark (one workload, one run).

Usage, from the repository root:

  python3 e2ebench/run.py --workload grid_cold|build_cold|serve_mixed \
      --seed N --seconds S --trace 0|1

Configures and builds e2ebench/ (which builds the library from the
repository's sources) into $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench, then runs the benchmark binary. Build output goes to
stderr; the binary's standard output is passed through, so the last line is
the result object {"correct", "attempted", "failed", "metrics"}. Before
passing it on, the result's metric names and units are checked against
BENCHMARK.json. Traced runs (--trace 1) also write a Chrome trace file to
.bench_build/e2ebench-traces/, readable by tools/trace_summary.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", "focs_e2ebench"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "focs_e2ebench")


def check_metrics(result_line, trace):
    """The result names exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(result_line)
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    want = {entry["name"]: entry["unit"] for entry in declared}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: extra {sorted(set(got) - set(want))}, "
             f"missing {sorted(set(want) - set(got))}, units "
             f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(os.path.join(target_dir, "e2ebench"))
    trace_dir = os.path.join(target_dir, "e2ebench-traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--bench-dir", HERE, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--trace-dir", trace_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    check_metrics(lines[-1], args.trace == "1")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
