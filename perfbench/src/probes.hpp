// Decorators the traced runs put around the program's public seams. Each
// one forwards to the real object unchanged, so a traced run computes the
// same outputs as an untraced one; only the span bookkeeping is added.
#pragma once

#include <cstdint>
#include <string_view>

#include "ml/agent.hpp"
#include "oran/rmr.hpp"
#include "tracer.hpp"
#include "xai/shap.hpp"

namespace perfbench {

/// Registered with the router under the wrapped xApp's own name, in place
/// of the xApp, so every delivery to it opens one span named after the
/// message type.
class TracedEndpoint final : public explora::oran::RmrEndpoint {
 public:
  struct Names {
    const char* kpm;
    const char* control;
    const char* ack;
  };

  TracedEndpoint(explora::oran::RmrEndpoint& inner, Tracer& tracer,
                 Layer layer, Names names)
      : inner_(inner), tracer_(tracer), layer_(layer), names_(names) {}

  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return inner_.endpoint_name();
  }
  void on_message(const explora::oran::RicMessage& message) override {
    using explora::oran::MessageType;
    const char* name = message.type == MessageType::kKpmIndication
                           ? names_.kpm
                       : message.type == MessageType::kRanControl
                           ? names_.control
                           : names_.ack;
    ScopedSpan span(&tracer_, name, layer_);
    inner_.on_message(message);
  }

 private:
  explora::oran::RmrEndpoint& inner_;
  Tracer& tracer_;
  Layer layer_;
  Names names_;
};

/// PolicyAgent decorator: single-state inference ("policy.act") and the
/// batched head distributions SHAP evaluates ("policy.batch") each open an
/// `ml` span.
class TracedAgent final : public explora::ml::PolicyAgent {
 public:
  TracedAgent(const explora::ml::PolicyAgent& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] explora::ml::PolicyDecision act_greedy(
      std::span<const double> state) const override {
    ScopedSpan span(&tracer_, "policy.act", Layer::kMl);
    return inner_.act_greedy(state);
  }
  [[nodiscard]] explora::ml::PolicyDecision act(
      std::span<const double> state, explora::common::Rng& rng,
      const std::array<double, explora::ml::kNumHeads>& temperatures)
      const override {
    ScopedSpan span(&tracer_, "policy.act", Layer::kMl);
    return inner_.act(state, rng, temperatures);
  }
  [[nodiscard]] std::vector<explora::ml::Vector> head_distributions(
      std::span<const double> state) const override {
    ScopedSpan span(&tracer_, "policy.head", Layer::kMl);
    return inner_.head_distributions(state);
  }
  [[nodiscard]] std::vector<std::vector<explora::ml::Vector>>
  head_distributions(const explora::ml::Matrix& states) const override {
    ScopedSpan span(&tracer_, "policy.batch", Layer::kMl);
    return inner_.head_distributions(states);
  }

 private:
  const explora::ml::PolicyAgent& inner_;
  Tracer& tracer_;
};

/// Time and rows spent inside a wrapped MatrixModelFn.
struct ModelTally {
  std::int64_t ns = 0;
  std::uint64_t rows = 0;
};

/// Wraps a MatrixModelFn so every call adds its wall time and row count
/// to `tally`. The explainers run on a one-thread pool here, so calls
/// never overlap. `tally` must outlive the returned callable.
[[nodiscard]] inline explora::xai::MatrixModelFn timed_model(
    explora::xai::MatrixModelFn inner, ModelTally& tally) {
  return [inner = std::move(inner), &tally](const explora::ml::Matrix& m) {
    const std::int64_t start = now_ns();
    explora::ml::Matrix out = inner(m);
    tally.ns += now_ns() - start;
    tally.rows += m.rows();
    return out;
  };
}

/// Endpoint that drops what it receives: replaying a trace into it
/// measures frame decoding alone.
class DiscardEndpoint final : public explora::oran::RmrEndpoint {
 public:
  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return "discard";
  }
  void on_message(const explora::oran::RicMessage& /*message*/) override {}
};

}  // namespace perfbench
