// The benchmark's three workloads. Each one builds its inputs from the
// seed, runs its timed phase for a set length with tracing off (and, in a
// traced run, a second phase with the decorators in place), checks its
// outputs, and fills a RunResult.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  /// Self-test fault injection: "" (none), "corrupt-trace" (flip one byte
  /// of the recorded trace before replay_ht's timed phase) or "shed"
  /// (give explain_bursty's first burst an infeasible deadline).
  std::string fault;
  /// Process start, for setup_s.
  std::int64_t start_ns = 0;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that did not hold (empty = correct).
  std::vector<std::string> check_failures;
  /// Metric values by name; units live in main.cpp's metric tables.
  std::map<std::string, double> metrics;
  /// Digests and other facts for the report file.
  std::map<std::string, std::string> info;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Nearest-rank percentile (0 < pct <= 100) of an unsorted sample.
[[nodiscard]] inline double percentile(std::vector<double> values,
                                       double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(pct / 100.0 * n)), 1, values.size());
  return values[rank - 1];
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

[[nodiscard]] inline double ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}

/// The scenario and options every workload shares: the HT agent trained
/// and deployed on the paper benches' configuration (TRF1, 6 UEs, seed
/// 42), with EXPLORA steering by AR1 (kMaxReward). The workload seed
/// drives the deployed agent's action sampling; it leaves the cell alone,
/// because the cell's placement decides how far the UE buffers grow, and
/// with it the process's memory.
[[nodiscard]] explora::netsim::ScenarioConfig paper_scenario();
[[nodiscard]] explora::harness::ExperimentOptions loop_options(
    std::uint64_t seed);

/// Cold harness::load_or_train of the HT agent; records ml.train_s.
[[nodiscard]] explora::harness::TrainedSystem train(RunResult& result);

void run_loop_ht_steer(const RunArgs& args, RunResult& result);
void run_explain_bursty(const RunArgs& args, RunResult& result);
void run_replay_ht(const RunArgs& args, RunResult& result);

}  // namespace perfbench
