#include "loop.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace ex = explora;

namespace {

void fold_decision(std::uint64_t& digest,
                   const ex::netsim::SlicingControl& enforced,
                   double reward) {
  for (const char c : enforced.to_string()) {
    fnv_mix(digest, static_cast<unsigned char>(c));
  }
  fnv_mix(digest, std::bit_cast<std::uint64_t>(reward));
}

ex::oran::DrlXapp::Config drl_config(
    const ex::harness::ExperimentOptions& options,
    std::size_t reports_per_decision) {
  ex::oran::DrlXapp::Config config;
  config.reports_per_decision = reports_per_decision;
  config.stochastic = options.stochastic_agent;
  config.prb_temperature = options.prb_temperature;
  config.sched_temperature = options.sched_temperature;
  config.seed = options.xapp_seed;
  config.reliable = options.reliable;
  return config;
}

}  // namespace

std::uint64_t decision_digest(const std::vector<DecisionOutcome>& outcomes,
                              std::size_t count) {
  if (count > outcomes.size()) {
    throw std::logic_error("decision digest over unrecorded decisions");
  }
  std::uint64_t digest = 14695981039346656037ULL;
  for (std::size_t i = 0; i < count; ++i) {
    fold_decision(digest, outcomes[i].enforced, outcomes[i].reward);
  }
  return digest;
}

std::uint64_t decision_digest(
    const std::vector<ex::harness::DecisionRecord>& records) {
  std::uint64_t digest = 14695981039346656037ULL;
  for (const auto& record : records) {
    fold_decision(digest, record.enforced, record.reward);
  }
  return digest;
}

const ex::ml::PolicyAgent& LoopPipeline::agent_for(
    const ex::harness::TrainedSystem& system) {
  if (tracer_ == nullptr) return *system.agent;
  traced_agent_.emplace(*system.agent, *tracer_);
  return *traced_agent_;
}

LoopPipeline::LoopPipeline(const ex::harness::TrainedSystem& system,
                           const ex::netsim::ScenarioConfig& scenario,
                           const ex::harness::ExperimentOptions& options,
                           Tracer* tracer, std::size_t keep)
    : tracer_(tracer),
      reports_per_decision_(ex::harness::TrainingConfig{}.reports_per_decision),
      reward_model_(ex::core::weights_for(system.profile)),
      ric_(ex::netsim::make_gnb(scenario)),
      drl_(drl_config(options, reports_per_decision_), system.normalizer,
           *system.autoencoder, agent_for(system), ric_.router()),
      explora_(ex::harness::make_explora_config(options, system.profile,
                                                reports_per_decision_),
               ric_.router(), &ric_.repository()),
      keep_(keep) {
  outcomes_.reserve(keep_);
  // Wiring exactly as harness::run_experiment does, with the decorators
  // registered under the xApps' own names when tracing.
  ex::oran::RmrEndpoint* drl = &drl_;
  ex::oran::RmrEndpoint* xapp = &explora_;
  if (tracer_ != nullptr) {
    traced_drl_.emplace(drl_, *tracer_, Layer::kOran,
                        TracedEndpoint::Names{"drl_xapp.kpm",
                                              "drl_xapp.control",
                                              "drl_xapp.ack"});
    traced_explora_.emplace(explora_, *tracer_, Layer::kExplora,
                            TracedEndpoint::Names{"explora_xapp.kpm",
                                                  "explora_xapp.control",
                                                  "explora_xapp.ack"});
    drl = &*traced_drl_;
    xapp = &*traced_explora_;
  }
  ric_.attach_xapp(*drl);
  ric_.subscribe_indications(std::string(drl_.endpoint_name()));
  ric_.attach_xapp(*xapp);
  ric_.subscribe_indications(std::string(explora_.endpoint_name()));
  ric_.route_control_via(std::string(drl_.endpoint_name()),
                         std::string(explora_.endpoint_name()));
}

void LoopPipeline::run_period() {
  if (tracer_ == nullptr) {
    ric_.run_windows(reports_per_decision_);
    return;
  }
  ScopedSpan op(tracer_, "decision", Layer::kBench);
  for (std::size_t i = 0; i < reports_per_decision_; ++i) {
    ScopedSpan window(tracer_, "e2term.window", Layer::kNetsim);
    ric_.e2_termination().collect_and_publish();
  }
}

bool LoopPipeline::record_period() {
  // The reward of this window block credits the previous decision.
  if (credit_pending_) {
    outcomes_.back().reward = reward_model_.from_window(
        ric_.repository().latest_reports(reports_per_decision_));
    credit_pending_ = false;
  }
  bool delivered = true;
  const std::uint64_t decided = drl_.decisions_made();
  if (decided != decisions_seen_) {
    const std::uint64_t applied = ric_.e2_termination().controls_applied();
    const auto& explanations = ric_.repository().explanations();
    delivered = applied - controls_applied_seen_ == decided - decisions_seen_ &&
                !explanations.empty() &&
                ric_.gnb().control() == explanations.back().enforced;
    decisions_seen_ = decided;
    controls_applied_seen_ = applied;
  }
  if (!drl_.last_decision().has_value()) return delivered;  // warm-up block
  ++decisions_recorded_;
  if (outcomes_.size() < keep_) {
    DecisionOutcome outcome;
    outcome.enforced = ric_.gnb().control();
    outcome.latent = drl_.last_latent();
    outcome.action = drl_.last_decision()->action;
    outcomes_.push_back(std::move(outcome));
    credit_pending_ = true;
  }
  return delivered;
}

bool LoopPipeline::run_until_recorded(std::size_t count) {
  bool delivered = true;
  while (credited() < count) {
    if (tracer_ != nullptr) tracer_->set_op(decisions_recorded_);
    run_period();
    delivered = record_period() && delivered;
  }
  return delivered;
}

}  // namespace perfbench
