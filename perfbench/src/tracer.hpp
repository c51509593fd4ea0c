// Outside-in span tracer for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around the calls it makes
// into each layer (RMR endpoint decorators, a PolicyAgent decorator, a
// timed model function, direct calls), never inside the program. Each span
// carries the id of the operation it belongs to (decision, request tick or
// replay pass) and the index of the span that was open when it started, so
// a layer's self time is its duration minus the time its children cover.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers of the repository (src/<layer>/), plus "bench" for the time the
/// benchmark's own loop spends inside an operation span but outside every
/// layer call.
enum class Layer : std::uint8_t { kBench, kNetsim, kOran, kMl, kExplora, kXai };
inline constexpr std::size_t kNumLayers = 6;
inline constexpr std::array<const char*, kNumLayers> kLayerNames{
    "bench", "netsim", "oran", "ml", "explora", "xai"};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string naming the call
  Layer layer = Layer::kBench;
  std::uint64_t op = 0;     ///< decision, request tick or pass id
  std::int32_t parent = -1; ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< summed durations of direct children

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
  [[nodiscard]] std::int64_t self_ns() const {
    return duration_ns() - child_ns;
  }
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  void set_op(std::uint64_t op) { op_ = op; }

  std::int32_t open(const char* name, Layer layer) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    Span span;
    span.name = name;
    span.layer = layer;
    span.op = op_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::int32_t index) {
    const std::int64_t end = now_ns();
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = end;
    stack_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child_ns +=
          span.duration_ns();
    }
  }

  [[nodiscard]] bool balanced() const { return stack_.empty(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as CSV, one row per span in open order: index, op,
  /// parent index, layer, name, start (ns from the first span), duration
  /// and self time. Returns false when the file cannot be written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t op_ = 0;
};

/// RAII span; a null tracer records nothing, so untraced code paths can
/// share the call sites.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Per-layer self time of a set of root operation spans.
struct LayerBreakdown {
  std::array<std::int64_t, kNumLayers> self_ns{};
  std::int64_t op_ns = 0;          ///< summed root (operation) durations
  std::size_t ops = 0;
  /// Roots whose layer self times do not add up to the root's duration
  /// (a span left open, or a child outside its parent's interval).
  std::size_t unbalanced_ops = 0;

  [[nodiscard]] double share(Layer layer) const {
    return op_ns > 0 ? static_cast<double>(
                           self_ns[static_cast<std::size_t>(layer)]) /
                           static_cast<double>(op_ns)
                     : 0.0;
  }
};

/// Sums self time per layer over every root span named `root_name`,
/// checking per root that the self times of its span tree add up to the
/// root's duration.
[[nodiscard]] LayerBreakdown breakdown(const std::vector<Span>& spans,
                                       const char* root_name);

}  // namespace perfbench
