#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark and the repository's libraries under .bench_build/; later runs
only check that the build is current. Each run trains the agent into a
fresh, empty artifact directory, so set-up always includes the cold
training users pay once per profile and scenario.

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics":
   {name: {"value": ..., "unit": ...}}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A report with the build provenance, the
output digests and the check results, and in a traced run the spans, is
written under .bench_build/reports/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default="",
                        choices=("", "corrupt-trace", "shed"),
                        help="self-test fault injection")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        log("build failed")
        return 1

    run_dir = os.path.join(
        BUILD_ROOT, "reports",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    artifacts = os.path.join(run_dir, "artifacts")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(artifacts)
    env = dict(os.environ, EXPLORA_ARTIFACTS=artifacts,
               EXPLORA_THREADS="1", PERFBENCH_COMMIT=commit())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", run_dir]
    if args.fault:
        command += ["--fault", args.fault]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark program exited with {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        value = raw["metrics"].get(name)
        if value is None:
            if not args.trace:
                log(f"end-to-end metric {name} was not measured")
                return 1
            # A layer this workload's operation never enters.
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "fault": args.fault,
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "check_failures": raw["check_failures"],
        "info": raw["info"], "metrics": metrics,
        "measured": raw["metrics"],
    }
    with open(os.path.join(run_dir, "report.json"), "w") as out:
        json.dump(report, out, indent=2, sort_keys=True)
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
