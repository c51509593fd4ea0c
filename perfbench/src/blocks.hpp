// The timed phase's operations in consecutive blocks, and the host-state
// filter the end-to-end metrics are taken through.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The operations of a timed phase in consecutive blocks of a fixed number
/// of operations, each block with its wall time and the synthesis
/// repetitions that ran inside it.
///
/// The benchmark's host (a shared KVM guest) switches between a contended
/// state, which holds most of the time, and stretches of seconds in which
/// the same code runs up to 1.6 times faster (README.md, "Steadiness"). A
/// run's plain median flips between the two with the share of the run
/// each state covers. The end-to-end metrics are therefore taken over the
/// contended blocks only: those whose median operation takes at least
/// kContendedShare of the kReferencePercentile-th percentile of the block
/// medians; synthesis repetitions count when they ran in such a block. The
/// threshold is relative to the run itself, so a change that makes every
/// operation faster moves the metrics by the same factor.
class BlockedSamples {
 public:
  static constexpr double kContendedShare = 0.9;
  static constexpr double kReferencePercentile = 95.0;

  /// @param ops_per_block about a tenth of a second of operations.
  explicit BlockedSamples(std::size_t ops_per_block);

  /// Starts the first block's clock.
  void start();
  /// Records one operation's latency; closes the block when it is full.
  void add_op(double op_ms);
  /// Records one synthesis repetition in the current block and takes its
  /// time out of the block's wall time.
  void add_synthesis(double rep_ms, std::int64_t took_ns);
  /// Closes the last, partly filled block.
  void finish();

  struct Summary {
    double op_ms_p50 = 0.0;
    double op_ms_p90 = 0.0;
    double op_ms_p99 = 0.0;
    double ops_per_s = 0.0;
    /// Median over the repetitions in the kept blocks (all repetitions
    /// when no kept block holds one); 0 without repetitions.
    double synthesis_ms_p50 = 0.0;
    std::size_t blocks = 0;
    std::size_t kept_blocks = 0;
  };
  /// The metrics over the contended blocks, or over every block when
  /// `contended_only` is false.
  [[nodiscard]] Summary summarize(bool contended_only) const;

 private:
  struct Block {
    std::vector<double> op_ms;
    std::vector<double> synthesis_ms;
    std::int64_t excluded_ns = 0;
    double wall_s = 0.0;
  };

  void close_block();

  std::size_t ops_per_block_;
  std::vector<Block> closed_;
  Block current_;
  std::int64_t block_start_ns_ = 0;
};

}  // namespace perfbench
