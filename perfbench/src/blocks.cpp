#include "blocks.hpp"

#include <algorithm>
#include <utility>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

BlockedSamples::BlockedSamples(std::size_t ops_per_block)
    : ops_per_block_(std::max<std::size_t>(1, ops_per_block)) {}

void BlockedSamples::start() { block_start_ns_ = now_ns(); }

void BlockedSamples::add_op(double op_ms) {
  current_.op_ms.push_back(op_ms);
  if (current_.op_ms.size() == ops_per_block_) close_block();
}

void BlockedSamples::add_synthesis(double rep_ms, std::int64_t took_ns) {
  current_.synthesis_ms.push_back(rep_ms);
  current_.excluded_ns += took_ns;
}

void BlockedSamples::finish() {
  if (!current_.op_ms.empty()) {
    close_block();
  } else if (!closed_.empty()) {
    // Repetitions that ran after the last operation belong to the block
    // before them.
    std::vector<double>& reps = closed_.back().synthesis_ms;
    reps.insert(reps.end(), current_.synthesis_ms.begin(),
                current_.synthesis_ms.end());
    current_ = Block{};
  }
}

void BlockedSamples::close_block() {
  const std::int64_t now = now_ns();
  current_.wall_s =
      static_cast<double>(now - block_start_ns_ - current_.excluded_ns) * 1e-9;
  closed_.push_back(std::move(current_));
  current_ = Block{};
  block_start_ns_ = now;
}

BlockedSamples::Summary BlockedSamples::summarize(bool contended_only) const {
  Summary out;
  out.blocks = closed_.size();
  std::vector<double> medians;
  medians.reserve(closed_.size());
  for (const Block& block : closed_) {
    medians.push_back(percentile(block.op_ms, 50));
  }
  const double cut =
      contended_only
          ? kContendedShare * percentile(medians, kReferencePercentile)
          : 0.0;
  std::vector<double> ops;
  std::vector<double> reps;
  std::vector<double> all_reps;
  double wall_s = 0.0;
  for (std::size_t i = 0; i < closed_.size(); ++i) {
    const Block& block = closed_[i];
    all_reps.insert(all_reps.end(), block.synthesis_ms.begin(),
                    block.synthesis_ms.end());
    if (medians[i] < cut) continue;
    ++out.kept_blocks;
    ops.insert(ops.end(), block.op_ms.begin(), block.op_ms.end());
    reps.insert(reps.end(), block.synthesis_ms.begin(),
                block.synthesis_ms.end());
    wall_s += block.wall_s;
  }
  out.op_ms_p50 = percentile(ops, 50);
  out.op_ms_p90 = percentile(ops, 90);
  out.op_ms_p99 = percentile(ops, 99);
  out.ops_per_s = wall_s > 0.0 ? static_cast<double>(ops.size()) / wall_s
                               : 0.0;
  out.synthesis_ms_p50 = percentile(reps.empty() ? all_reps : reps, 50);
  return out;
}

}  // namespace perfbench
