// The closed-loop pipeline of harness::run_experiment, composed from the
// same public pieces (NearRtRic + DrlXapp + ExploraXapp +
// route_control_via) so the benchmark can time one decision period at a
// time and, in a traced run, register decorators in place of the xApps.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "explora/reward.hpp"
#include "explora/xapp.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/ric.hpp"
#include "probes.hpp"
#include "tracer.hpp"

namespace perfbench {

/// What run_experiment records per decision and the digest compares.
struct DecisionOutcome {
  explora::netsim::SlicingControl enforced;
  double reward = 0.0;
  explora::ml::Vector latent;
  explora::ml::AgentAction action;
};

/// Byte-wise FNV-1a step over one 64-bit word (the digest the harness
/// uses for its serving stream).
inline void fnv_mix(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffULL;
    digest *= 1099511628211ULL;
  }
}

/// FNV-1a over the enforced controls and the raw reward bits of the first
/// `count` decisions.
[[nodiscard]] std::uint64_t decision_digest(
    const std::vector<DecisionOutcome>& outcomes, std::size_t count);
[[nodiscard]] std::uint64_t decision_digest(
    const std::vector<explora::harness::DecisionRecord>& records);

class LoopPipeline {
 public:
  /// @param tracer when non-null, the xApps are registered behind
  ///        TracedEndpoint decorators, the agent behind a TracedAgent, and
  ///        each report window opens a `netsim` span.
  /// @param keep decisions whose outcome is retained (later ones are
  ///        only counted, so a long timed run does not grow memory).
  LoopPipeline(const explora::harness::TrainedSystem& system,
               const explora::netsim::ScenarioConfig& scenario,
               const explora::harness::ExperimentOptions& options,
               Tracer* tracer, std::size_t keep);

  LoopPipeline(const LoopPipeline&) = delete;
  LoopPipeline& operator=(const LoopPipeline&) = delete;

  /// The timed operation: one decision period, NearRtRic::run_windows(M).
  /// Traced, the same M E2Termination::collect_and_publish calls run one
  /// by one, each inside a span.
  void run_period();

  /// run_experiment's per-period bookkeeping: credit the previous
  /// decision with this block's reward and record the new one. Returns
  /// false when the DRL xApp emitted a decision in this period whose
  /// control did not reach the gNB.
  bool record_period();

  /// Runs periods until `count` decisions are recorded and credited.
  /// Returns false when any of them missed the gNB.
  bool run_until_recorded(std::size_t count);

  /// The first `keep` decisions (fewer until they have been made).
  [[nodiscard]] const std::vector<DecisionOutcome>& outcomes() const {
    return outcomes_;
  }
  /// Credited decisions so far, retained or not.
  [[nodiscard]] std::uint64_t credited() const {
    return decisions_recorded_ > 0 ? decisions_recorded_ - 1 : 0;
  }
  [[nodiscard]] explora::core::ExploraXapp& explora() { return explora_; }

 private:
  const explora::ml::PolicyAgent& agent_for(
      const explora::harness::TrainedSystem& system);

  Tracer* tracer_;
  std::size_t reports_per_decision_;
  explora::core::RewardModel reward_model_;
  std::optional<TracedAgent> traced_agent_;
  explora::oran::NearRtRic ric_;
  explora::oran::DrlXapp drl_;
  explora::core::ExploraXapp explora_;
  std::optional<TracedEndpoint> traced_drl_;
  std::optional<TracedEndpoint> traced_explora_;
  std::size_t keep_;
  std::vector<DecisionOutcome> outcomes_;
  bool credit_pending_ = false;
  std::uint64_t decisions_recorded_ = 0;
  std::uint64_t decisions_seen_ = 0;
  std::uint64_t controls_applied_seen_ = 0;
};

}  // namespace perfbench
