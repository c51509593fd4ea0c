#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly, untraced and
traced, and checks that

  * each run prints exactly the metrics BENCHMARK.json declares for its
    mode, with the declared units, and its output checks hold;
  * each traced run measures the per-layer metrics of the layers its
    operation enters;
  * two runs of one seed serve the same explanation result stream and
    replay the same attribution stream;
  * the failure counters fire on a corrupted trace byte (replay_ht) and on
    a forced shed (explain_bursty).

    python3 perfbench/selftest.py [--seconds S]

Every run trains the agent cold, so the whole test takes a few minutes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The per-layer metrics each workload's traced run measures itself; run.py
# reports the others as 0 (layers its operation never enters).
TRACE = {"ml.train_s", "trace.op_ms_p50", "trace.overhead_share"}
OWNED = {
    "loop_ht_steer": TRACE | {
        "netsim.window_us_p50", "netsim.share", "netsim.windows",
        "oran.drl_xapp_us_p50", "ml.policy_act_us_p50", "ml.decisions",
        "explora.kpm_us_p50", "explora.control_us_p50",
        "explora.graph_nodes", "explora.steer_replace_ratio"},
    "explain_bursty": TRACE | {
        "xai.exact_ms_p50", "xai.sampled_ms_p50", "xai.surrogate_us_p50",
        "ml.model_ms_per_exact", "ml.model_rows_per_s", "xai.self_share",
        "xai.model_evals_per_exact", "xai.model_evals_per_sampled",
        "xai.served_exact", "xai.served_sampled", "xai.served_surrogate",
        "xai.shed", "xai.demoted_share", "xai.queue_high_water"},
    "replay_ht": TRACE | {
        "oran.parse_ms_per_pass", "oran.decode_ms_per_pass",
        "explora.replay_ms_per_pass", "oran.frames_per_pass",
        "oran.trace_bytes", "explora.graph_nodes",
        "explora.steer_replace_ratio", "harness.record_s"},
}


def run(workload, seconds, trace, seed=5, fault=""):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        command += ["--fault", fault]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = os.path.join(ROOT, ".bench_build", "reports",
                               f"{workload}-seed{seed}-trace{trace}",
                               "report.json")
    with open(report_path) as report_file:
        return result, json.load(report_file)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(set().union(*OWNED.values()) == per_layer,
           "every per-layer metric is measured by some workload")
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result, report = run(workload, args.seconds, trace)
            label = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            expect(got == units, f"{label}: metric names and units")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label}: numeric values")
            expect(result["correct"] and result["attempted"] > 0
                   and result["failed"] == 0,
                   f"{label}: correct, attempted > 0, failed == 0 "
                   f"({report['check_failures']})")
            if trace == 0:
                digests[workload] = report["info"]
            else:
                missing = OWNED[workload] - set(report["measured"])
                expect(not missing,
                       f"{label}: measures its layers {sorted(missing)}")

    _, again = run("explain_bursty", args.seconds, 0)
    expect(again["info"]["result_digest"]
           == digests["explain_bursty"]["result_digest"],
           "explain_bursty: result digest repeats for one seed")
    _, again = run("replay_ht", args.seconds, 0)
    expect(again["info"]["attribution_digest"]
           == digests["replay_ht"]["attribution_digest"],
           "replay_ht: attribution digest repeats for one seed")

    result, _ = run("replay_ht", args.seconds, 0, fault="corrupt-trace")
    expect(result["failed"] > 0, "replay_ht: a corrupted trace byte fails")
    result, _ = run("explain_bursty", args.seconds, 0, fault="shed")
    expect(result["failed"] > 0, "explain_bursty: a forced shed fails")

    print("self-test " + ("passed" if not failures else
                          f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
