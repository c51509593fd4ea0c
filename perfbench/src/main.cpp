// perfbench: the repository's end-to-end benchmark program (see
// perfbench/README.md). Runs one workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics": {name: value},
// "info": {...}, "check_failures": [...]}; perfbench/run.py attaches the
// units from BENCHMARK.json and writes the report.
//
//   perfbench --workload loop_ht_steer|explain_bursty|replay_ht
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--fault corrupt-trace|shed]
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "ml/gemm.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

void usage() {
  std::fputs(
      "usage: perfbench --workload loop_ht_steer|explain_bursty|replay_ht\n"
      "                 --seed N --seconds S --trace 0|1 --out-dir DIR\n"
      "                 [--fault corrupt-trace|shed]\n",
      stderr);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// A ratio over an empty sample (every op of a faulted run failed) is not
/// finite; JSON has no spelling for that, so it reads 0.
std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void add_provenance(RunResult& result) {
  auto level = [](int l) {
    return l == 0 ? "off" : l == 1 ? "fast" : "audit";
  };
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  result.info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result.info["cpu_model"] = cpu_model();
  result.info["gemm_backend"] = explora::ml::gemm::to_string(
      explora::ml::gemm::active_backend());
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["check_level_compiled"] = level(EXPLORA_CHECK_LEVEL);
  result.info["check_level_runtime"] =
      level(static_cast<int>(explora::contracts::check_level()));
  result.info["commit"] = commit != nullptr && *commit != '\0' ? commit
                                                               : "unknown";
  result.info["explora_threads"] =
      std::to_string(explora::common::global_pool().thread_count());
}

bool parse(int argc, char** argv, RunArgs& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--fault") {
      args.fault = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.start_ns = perfbench::now_ns();
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  // One thread and a one-thread SHAP pool: a shared multi-core host
  // gives a multi-thread pool a run-to-run spread several times wider
  // (perfbench/README.md). The pool reads this on first use.
  setenv("EXPLORA_THREADS", "1", 1);

  RunResult result;
  add_provenance(result);
  result.check(result.info["explora_threads"] == "1",
               "the SHAP pool is not pinned to one thread");
  try {
    if (args.workload == "loop_ht_steer") {
      perfbench::run_loop_ht_steer(args, result);
    } else if (args.workload == "explain_bursty") {
      perfbench::run_explain_bursty(args, result);
    } else if (args.workload == "replay_ht") {
      perfbench::run_replay_ht(args, result);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  if (!args.trace) {
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    result.metrics["peak_rss_mb"] =
        static_cast<double>(usage_now.ru_maxrss) / 1024.0;
  }

  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": " + json_number(value);
  }
  std::string info;
  for (const auto& [key, value] : result.info) {
    if (!info.empty()) info += ", ";
    info += "\"" + key + "\": \"" + json_escape(value) + "\"";
  }
  std::string checks;
  for (const std::string& failure : result.check_failures) {
    if (!checks.empty()) checks += ", ";
    checks += "\"" + json_escape(failure) + "\"";
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}, \"info\": {%s}, \"check_failures\": [%s]}\n",
      result.check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str(),
      info.c_str(), checks.c_str());
  return 0;
}
