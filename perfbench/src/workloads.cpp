#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "blocks.hpp"
#include "common/rng.hpp"
#include "explora/explain_service.hpp"
#include "harness/replay.hpp"
#include "loop.hpp"
#include "oran/trace.hpp"
#include "probes.hpp"
#include "xai/agent_model.hpp"
#include "xai/tree.hpp"

namespace perfbench {

namespace ex = explora;
using ex::xai::serving::ShedReason;
using ex::xai::serving::Tier;

namespace {

/// Decisions of the closed loop every workload runs in set-up (6
/// simulated minutes, the paper benches' length). Its first decisions are
/// checked against run_experiment, explain_bursty draws its latents from
/// it, and synthesis is timed on its xApp.
constexpr std::size_t kLoopDecisions = 1440;
/// ExploraXapp::explain() repetitions per run (about 5 ms each), spread
/// over the timed phase so they see the same host states as the
/// operations.
constexpr std::size_t kSynthesisReps = 80;
/// Decisions in replay_ht's recorded trace.
constexpr std::size_t kReplayDecisions = 200;

/// Operations per second of --seconds. Each run does a fixed amount of
/// work, so counts, memory and output digests repeat exactly between runs
/// and only the times move; the rates make a run last about --seconds on
/// a 4-vCPU Xeon (Sapphire Rapids) KVM guest.
constexpr double kDecisionsPerSecond = 2000.0;
constexpr double kRequestsPerSecond = 450.0;
constexpr double kPassesPerSecond = 80.0;

std::size_t ops_for(double seconds, double per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * per_second + 0.5));
}

/// Operations per block of the timed phase (BlockedSamples), about a tenth
/// of a second each. A traced run splits its work between an untraced and
/// a traced pipeline and alternates between them every block, so both
/// halves see the same host states.
constexpr std::size_t kLoopBlock = 250;
constexpr std::size_t kExplainBlock = 48;
constexpr std::size_t kReplayBlock = 10;

std::size_t half(std::size_t ops) { return std::max<std::size_t>(1, ops / 2); }

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::vector<double> span_us(const std::vector<Span>& spans, const char* name,
                            bool self = false) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(self ? s.self_ns() : s.duration_ns()) *
                    1e-3);
    }
  }
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The set-up closed loop: a fresh untraced pipeline run until
/// kLoopDecisions decisions are recorded and credited.
std::unique_ptr<LoopPipeline> setup_loop(
    const ex::harness::TrainedSystem& system, std::uint64_t seed,
    RunResult& result) {
  auto pipeline = std::make_unique<LoopPipeline>(
      system, paper_scenario(), loop_options(seed), nullptr,
      kLoopDecisions);
  result.check(pipeline->run_until_recorded(kLoopDecisions),
               "set-up loop: a control missed the gNB");
  return pipeline;
}

/// Times ExploraXapp::explain() on the set-up loop's xApp, one repetition
/// at a time, at evenly spaced moments of a timed phase. The caller polls
/// it where a repetition cannot delay an operation; each repetition lands
/// in the current block, whose wall time excludes it.
class SynthesisSampler {
 public:
  SynthesisSampler(ex::core::ExploraXapp& xapp, double seconds,
                   BlockedSamples& blocks)
      : xapp_(xapp),
        blocks_(blocks),
        interval_ns_(static_cast<std::int64_t>(
            seconds * 1e9 / static_cast<double>(kSynthesisReps))),
        next_ns_(now_ns() + interval_ns_ / 2) {}

  void poll() {
    if (reps_ < kSynthesisReps && now_ns() >= next_ns_) {
      run_once();
      next_ns_ += interval_ns_;
    }
  }
  /// Runs the repetitions a short phase left over.
  void finish() {
    while (reps_ < kSynthesisReps) run_once();
  }

  void check(RunResult& result) const {
    result.check(paths_ > 0, "synthesis produced no decision paths");
  }

 private:
  void run_once() {
    const std::int64_t start = now_ns();
    const auto knowledge = xapp_.explain();
    const std::int64_t took = now_ns() - start;
    blocks_.add_synthesis(ms(took), took);
    ++reps_;
    paths_ = knowledge.decision_paths.size();
  }

  ex::core::ExploraXapp& xapp_;
  BlockedSamples& blocks_;
  std::int64_t interval_ns_;
  std::int64_t next_ns_;
  std::size_t reps_ = 0;
  std::size_t paths_ = 0;
};

/// The end-to-end metrics of an untraced timed phase, over its contended
/// blocks; the unfiltered figures and the op p99 go to the report.
void report_timed(const BlockedSamples& blocks, RunResult& result) {
  const BlockedSamples::Summary kept = blocks.summarize(true);
  const BlockedSamples::Summary all = blocks.summarize(false);
  auto& m = result.metrics;
  m["ops_per_s"] = kept.ops_per_s;
  m["op_ms_p50"] = kept.op_ms_p50;
  m["op_ms_p90"] = kept.op_ms_p90;
  m["synthesis_ms_p50"] = kept.synthesis_ms_p50;
  auto& i = result.info;
  i["blocks"] = std::to_string(kept.blocks);
  i["blocks_contended"] = std::to_string(kept.kept_blocks);
  i["contended.op_ms_p99"] = std::to_string(kept.op_ms_p99);
  i["all_blocks.ops_per_s"] = std::to_string(all.ops_per_s);
  i["all_blocks.op_ms_p50"] = std::to_string(all.op_ms_p50);
  i["all_blocks.op_ms_p90"] = std::to_string(all.op_ms_p90);
  i["all_blocks.op_ms_p99"] = std::to_string(all.op_ms_p99);
  i["all_blocks.synthesis_ms_p50"] = std::to_string(all.synthesis_ms_p50);
}

void record_self_shares(const LayerBreakdown& layers, RunResult& result) {
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    result.info[std::string("self_share.") + kLayerNames[l]] =
        std::to_string(layers.share(static_cast<Layer>(l)));
  }
  result.info["traced_ops"] = std::to_string(layers.ops);
}

void write_spans(const Tracer& tracer, const RunArgs& args,
                 RunResult& result) {
  const std::string path = args.out_dir + "/spans.csv";
  result.check(tracer.write_csv(path), "cannot write " + path);
  result.info["spans"] = path;
}

void trace_overhead(const std::vector<double>& traced_ms,
                    const std::vector<double>& plain_ms, RunResult& result) {
  const double traced_p50 = percentile(traced_ms, 50);
  result.metrics["trace.op_ms_p50"] = traced_p50;
  result.metrics["trace.overhead_share"] =
      traced_p50 / percentile(plain_ms, 50) - 1.0;
}

}  // namespace

ex::netsim::ScenarioConfig paper_scenario() {
  ex::netsim::ScenarioConfig scenario;
  scenario.profile = ex::netsim::TrafficProfile::kTrf1;
  scenario.users_per_slice = ex::netsim::users_for_count(6);
  scenario.seed = 42;
  return scenario;
}

ex::harness::ExperimentOptions loop_options(std::uint64_t seed) {
  ex::harness::ExperimentOptions options;
  options.deploy_explora = true;
  ex::core::ActionSteering::Config steering;
  steering.strategy = ex::core::SteeringStrategy::kMaxReward;
  options.steering = steering;
  options.xapp_seed = 555 + seed;
  return options;
}

ex::harness::TrainedSystem train(RunResult& result) {
  const std::int64_t start = now_ns();
  ex::harness::TrainedSystem system = ex::harness::load_or_train(
      ex::core::AgentProfile::kHighThroughput, paper_scenario(),
      ex::harness::TrainingConfig{});
  result.metrics["ml.train_s"] = seconds_since(start);
  return system;
}

// ---------------------------------------------------------------------------
// loop_ht_steer
// ---------------------------------------------------------------------------

namespace {

/// A fresh closed-loop pipeline whose decision periods are timed one at
/// a time.
struct LoopRun {
  LoopRun(const ex::harness::TrainedSystem& system, std::uint64_t seed,
          Tracer* traced_by)
      : tracer(traced_by),
        pipeline(std::make_unique<LoopPipeline>(system, paper_scenario(),
                                                loop_options(seed), traced_by,
                                                kLoopDecisions)) {}

  /// One decision period; returns its latency. A decision whose control
  /// did not reach the gNB counts as failed.
  double run_one(RunResult& result) {
    if (tracer != nullptr) tracer->set_op(attempted);
    const std::int64_t start = now_ns();
    pipeline->run_period();
    const double took = ms(now_ns() - start);
    op_ms.push_back(took);
    ++attempted;
    ++result.attempted;
    if (!pipeline->record_period()) ++result.failed;
    return took;
  }

  /// Runs (untimed) to the end of the checked prefix.
  void finish(RunResult& result) {
    result.check(pipeline->run_until_recorded(kLoopDecisions),
                 "timed loop: a control missed the gNB after the timed phase");
  }

  Tracer* tracer;
  std::unique_ptr<LoopPipeline> pipeline;
  std::vector<double> op_ms;
  std::uint64_t attempted = 0;
};

}  // namespace

void run_loop_ht_steer(const RunArgs& args, RunResult& result) {
  const ex::harness::TrainedSystem system = train(result);
  auto setup = setup_loop(system, args.seed, result);
  result.metrics["setup_s"] = seconds_since(args.start_ns);

  const std::size_t decisions = ops_for(args.seconds, kDecisionsPerSecond);
  std::vector<const LoopPipeline*> checked{setup.get()};
  LoopRun plain(system, args.seed, nullptr);
  std::optional<LoopRun> traced;
  Tracer tracer;
  if (!args.trace) {
    BlockedSamples blocks(kLoopBlock);
    SynthesisSampler synthesis(setup->explora(), args.seconds, blocks);
    blocks.start();
    while (plain.attempted < decisions) {
      blocks.add_op(plain.run_one(result));
      synthesis.poll();
    }
    synthesis.finish();
    blocks.finish();
    synthesis.check(result);
    report_timed(blocks, result);
  } else {
    traced.emplace(system, args.seed, &tracer);
    const std::size_t each = half(decisions);
    while (plain.attempted < each || traced->attempted < each) {
      for (std::size_t i = 0; i < kLoopBlock && plain.attempted < each; ++i) {
        plain.run_one(result);
      }
      for (std::size_t i = 0; i < kLoopBlock && traced->attempted < each;
           ++i) {
        traced->run_one(result);
      }
    }
    traced->finish(result);
    checked.push_back(traced->pipeline.get());
  }
  plain.finish(result);
  checked.push_back(plain.pipeline.get());

  // The decision stream (enforced controls and reward bits) of every
  // pipeline must equal run_experiment's for the same options.
  ex::harness::ExperimentOptions options = loop_options(args.seed);
  options.decisions = kLoopDecisions;
  const ex::harness::ExperimentResult reference = ex::harness::run_experiment(
      system, paper_scenario(), options);
  const std::uint64_t reference_digest = decision_digest(reference.decisions);
  result.info["decision_digest"] = hex(reference_digest);
  for (const LoopPipeline* pipeline : checked) {
    const std::uint64_t digest =
        decision_digest(pipeline->outcomes(), reference.decisions.size());
    result.check(digest == reference_digest,
                 "decision digest " + hex(digest) + " != run_experiment's " +
                     hex(reference_digest));
  }
  if (!args.trace) return;

  const std::vector<Span>& spans = tracer.spans();
  const LayerBreakdown layers = breakdown(spans, "decision");
  result.check(tracer.balanced() && layers.unbalanced_ops == 0,
               "traced decisions: layer self times do not sum to the op");
  record_self_shares(layers, result);

  // DrlXapp::on_message only on the indications that emitted a decision
  // (those with a policy.act child).
  std::vector<char> decided(spans.size(), 0);
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "policy.act" && s.parent >= 0) {
      decided[static_cast<std::size_t>(s.parent)] = 1;
    }
  }
  std::vector<double> drl_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (decided[i] != 0) {
      drl_us.push_back(static_cast<double>(spans[i].duration_ns()) * 1e-3);
    }
  }
  const std::vector<double> windows = span_us(spans, "e2term.window", true);
  const std::vector<double> acts = span_us(spans, "policy.act");
  auto& m = result.metrics;
  m["netsim.window_us_p50"] = percentile(windows, 50);
  m["netsim.share"] = layers.share(Layer::kNetsim);
  m["netsim.windows"] = static_cast<double>(windows.size());
  m["oran.drl_xapp_us_p50"] = percentile(drl_us, 50);
  m["ml.policy_act_us_p50"] = percentile(acts, 50);
  m["ml.decisions"] = static_cast<double>(acts.size());
  m["explora.kpm_us_p50"] = percentile(span_us(spans, "explora_xapp.kpm"), 50);
  m["explora.control_us_p50"] =
      percentile(span_us(spans, "explora_xapp.control"), 50);
  const ex::core::ExploraXapp& xapp = traced->pipeline->explora();
  m["explora.graph_nodes"] = static_cast<double>(xapp.graph().node_count());
  const auto& steering = xapp.steering();
  m["explora.steer_replace_ratio"] =
      steering.suggestions() > 0
          ? static_cast<double>(steering.replacements()) /
                static_cast<double>(steering.suggestions())
          : 0.0;
  trace_overhead(traced->op_ms, plain.op_ms, result);
  write_spans(tracer, args, result);
}

// ---------------------------------------------------------------------------
// explain_bursty
// ---------------------------------------------------------------------------

namespace {

/// Open-loop arrival schedule in service ticks (bench_serving's bursty
/// arm): a burst of kBurst requests every kBurstPeriod ticks, ticks run
/// back to back.
constexpr std::size_t kBurst = 12;
constexpr std::int64_t kBurstPeriod = 256;

/// bench_serving's configuration, which harness::ServingOptions also
/// defaults to: a 4-row SHAP background (2048 model rows per exact
/// request) and 8 sampled permutations.
ex::ExplainService::Config service_config() {
  ex::ExplainService::Config config;
  config.queue_capacity = 16;
  config.workers = 2;
  config.sampled_permutations = 8;
  config.max_background = 4;
  return config;
}

struct Query {
  std::size_t row = 0;  ///< index into the set-up loop's decisions
  std::uint32_t head = 0;
};

struct ExplainInputs {
  const std::vector<DecisionOutcome>* decisions = nullptr;
  std::vector<ex::ml::Vector> background;
  ex::xai::DecisionTreeClassifier surrogate;

  [[nodiscard]] const DecisionOutcome& at(std::size_t row) const {
    return (*decisions)[row];
  }
};

struct ServedResult {
  std::uint64_t id = 0;
  Tier tier = Tier::kExact;
  std::vector<double> attribution;
};

/// The fold harness::run_experiment applies to its serving stream.
void fold_result(std::uint64_t& digest, const ex::ExplanationResult& r) {
  fnv_mix(digest, r.id);
  fnv_mix(digest, (static_cast<std::uint64_t>(r.output_index) << 32) |
                      (static_cast<std::uint64_t>(r.tier) << 16) |
                      (static_cast<std::uint64_t>(r.shed_reason) << 8) |
                      (r.degraded ? 2ULL : 0ULL) | (r.from_cache ? 1ULL : 0ULL));
  fnv_mix(digest, static_cast<std::uint64_t>(r.latency));
  for (const double phi : r.attribution) {
    fnv_mix(digest, std::bit_cast<std::uint64_t>(phi));
  }
}

ExplainInputs explain_inputs(const ex::harness::TrainedSystem& system,
                             const LoopPipeline& loop) {
  ExplainInputs inputs;
  inputs.decisions = &loop.outcomes();
  const std::size_t rows = service_config().max_background;
  for (std::size_t i = 0; i < rows && i < inputs.decisions->size(); ++i) {
    inputs.background.push_back(inputs.at(i).latent);
  }
  // Surrogate tier: a tree distilled from the set-up loop, latent -> the
  // agent's greedy PRB split (dense class ids).
  std::map<std::size_t, std::size_t> classes;
  ex::xai::Dataset data;
  for (const DecisionOutcome& d : *inputs.decisions) {
    const std::size_t prb =
        system.agent->act_greedy(d.latent).action.prb_choice;
    const auto [it, inserted] = classes.emplace(prb, classes.size());
    (void)inserted;
    data.features.push_back(d.latent);
    data.labels.push_back(it->second);
  }
  inputs.surrogate.fit(data, std::max<std::size_t>(classes.size(), 2));
  return inputs;
}

/// Served results recomputed after the timed phase: the first of each
/// tier and every result whose request id is a multiple of kCheckEvery.
constexpr std::uint64_t kCheckEvery = 20;

std::uint64_t attribution_digest(const std::vector<double>& attribution) {
  std::uint64_t digest = 14695981039346656037ULL;
  for (const double phi : attribution) {
    fnv_mix(digest, std::bit_cast<std::uint64_t>(phi));
  }
  return digest;
}

/// One ExplainService fed by the open-loop burst schedule. It advances in
/// steps, so a traced run can alternate between an untraced and a traced
/// service.
class ExplainRun {
 public:
  ExplainRun(const ex::ml::PolicyAgent& agent, const ExplainInputs& inputs,
             std::uint64_t seed, std::size_t requests, bool force_shed,
             Tracer* tracer)
      : inputs_(inputs),
        requests_(requests),
        force_shed_(force_shed),
        tracer_(tracer),
        service_(agent, inputs.background, &inputs.surrogate,
                 service_config()),
        rng_(ex::common::Rng(seed).fork("perfbench.explain")),
        served_by_head_(ex::ml::kNumHeads) {}

  /// Ticks until `target` requests have been submitted and the service is
  /// idle again, or until every request has been submitted. It stops only
  /// while idle, so pausing changes neither the tick schedule nor any
  /// request's latency.
  void advance(std::size_t target, BlockedSamples* blocks,
               SynthesisSampler* synthesis) {
    while (submitted < requests_ && !(submitted >= target && idle())) {
      tick_once();
      if (tick_ % kBurstPeriod == 0) submit_burst();
      collect(blocks);
      if (synthesis != nullptr && idle()) synthesis->poll();
    }
  }

  /// Ticks until every admitted request has been delivered or shed
  /// (bounded by the longest deadline the service grants). Calling it
  /// again does nothing more.
  void finish(BlockedSamples* blocks) {
    const std::int64_t tail_end =
        tick_ + 64 * (service_.config().costs.cost(Tier::kExact) +
                      service_.config().default_deadline);
    while (!idle() && tick_ < tail_end) {
      tick_once();
      collect(blocks);
    }
    stats = service_.stats();
  }

  /// Recomputes the retained results: SHAP tiers by a direct
  /// ShapExplainer, the surrogate tier by the tree. Returns the number
  /// that differ bit for bit, plus cached results that repeat no earlier
  /// served attribution of their head.
  [[nodiscard]] std::uint64_t mismatches(
      const ex::ml::PolicyAgent& agent) const;

  std::vector<double> op_ms;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t digest = 14695981039346656037ULL;
  ex::ExplainService::Stats stats;
  std::vector<ServedResult> checked;

 private:
  [[nodiscard]] bool idle() const {
    return service_.queue().depth() == 0 && service_.busy_workers() == 0;
  }

  void tick_once() {
    ++tick_;
    if (tracer_ != nullptr) tracer_->set_op(static_cast<std::uint64_t>(tick_));
    ScopedSpan span(tracer_, "service.tick", Layer::kExplora);
    service_.on_tick(tick_);
  }

  void submit_burst() {
    const bool infeasible = force_shed_ && tick_ == kBurstPeriod;
    for (std::size_t b = 0; b < kBurst && submitted < requests_; ++b) {
      const Query q{rng_.index(inputs_.decisions->size()),
                    static_cast<std::uint32_t>(rng_.index(ex::ml::kNumHeads))};
      const DecisionOutcome& d = inputs_.at(q.row);
      queries_.push_back(q);
      submit_ns_.push_back(now_ns());
      const auto accepted = service_.submit(d.latent, q.head, d.action, tick_,
                                            infeasible ? tick_ + 1 : 0);
      ++submitted;
      if (accepted.id != submitted) {
        throw std::logic_error("explain_bursty: request ids out of step");
      }
    }
  }

  void collect(BlockedSamples* blocks) {
    std::vector<ex::ExplanationResult> results = service_.drain();
    const std::int64_t now = now_ns();
    for (ex::ExplanationResult& r : results) {
      fold_result(digest, r);
      if (r.shed_reason != ShedReason::kNone) continue;
      ++delivered;
      const double latency = ms(now - submit_ns_[r.id - 1]);
      op_ms.push_back(latency);
      if (blocks != nullptr) blocks->add_op(latency);
      auto& head = served_by_head_[r.output_index];
      if (r.from_cache) {
        if (head.count(attribution_digest(r.attribution)) == 0) {
          ++cache_mismatches_;
        }
        continue;
      }
      head.insert(attribution_digest(r.attribution));
      if (checked_tiers_.insert(r.tier).second || r.id % kCheckEvery == 0) {
        checked.push_back(
            ServedResult{r.id, r.tier, std::move(r.attribution)});
      }
    }
  }

  const ExplainInputs& inputs_;
  std::size_t requests_;
  bool force_shed_;
  Tracer* tracer_;
  ex::ExplainService service_;
  ex::common::Rng rng_;
  std::int64_t tick_ = 0;
  std::vector<Query> queries_;        ///< by request id - 1
  std::vector<std::int64_t> submit_ns_;  ///< by request id - 1
  std::set<Tier> checked_tiers_;
  /// Digests of the attributions served per head, for the cached tier.
  std::vector<std::set<std::uint64_t>> served_by_head_;
  std::uint64_t cache_mismatches_ = 0;
};

ex::xai::ShapExplainer::Config shap_config(Tier tier) {
  const ex::ExplainService::Config config = service_config();
  ex::xai::ShapExplainer::Config shap;
  shap.mode = tier == Tier::kExact ? ex::xai::ShapExplainer::Mode::kExact
                                   : ex::xai::ShapExplainer::Mode::kSampling;
  shap.permutations = config.sampled_permutations;
  shap.max_background = config.max_background;
  shap.seed = config.seed;
  return shap;
}

std::uint64_t ExplainRun::mismatches(const ex::ml::PolicyAgent& agent) const {
  std::uint64_t wrong = cache_mismatches_;
  for (const ServedResult& served : checked) {
    const Query& q = queries_[served.id - 1];
    const DecisionOutcome& d = inputs_.at(q.row);
    std::vector<double> expected;
    if (served.tier == Tier::kSurrogate) {
      expected = inputs_.surrogate.path_attribution(d.latent);
    } else {
      ex::xai::ShapExplainer explainer(
          ex::xai::head_probability_model(agent, d.action),
          inputs_.background, shap_config(served.tier));
      expected = explainer.explain(d.latent, q.head);
    }
    if (expected != served.attribution) ++wrong;
  }
  return wrong;
}

/// Direct ShapExplainer / surrogate timings at the service's tier
/// configurations, with the model behind a timing wrapper.
void explainer_layer_metrics(const ex::ml::PolicyAgent& agent,
                             const ExplainInputs& inputs, std::uint64_t seed,
                             RunResult& result) {
  ex::common::Rng rng = ex::common::Rng(seed).fork("perfbench.explainers");
  ModelTally model;
  std::int64_t explain_ns = 0;
  auto time_tier = [&](Tier tier, std::size_t reps, std::uint64_t& evals) {
    std::vector<double> times;
    for (std::size_t i = 0; i < reps; ++i) {
      const DecisionOutcome& d = inputs.at(rng.index(inputs.decisions->size()));
      const auto head = rng.index(ex::ml::kNumHeads);
      ex::xai::ShapExplainer explainer(
          timed_model(ex::xai::head_probability_model(agent, d.action), model),
          inputs.background, shap_config(tier));
      const std::int64_t start = now_ns();
      (void)explainer.explain(d.latent, head);
      const std::int64_t took = now_ns() - start;
      explain_ns += took;
      times.push_back(ms(took));
      evals = explainer.model_evaluations();
    }
    return times;
  };
  std::uint64_t exact_evals = 0;
  std::uint64_t sampled_evals = 0;
  const std::vector<double> exact = time_tier(Tier::kExact, 12, exact_evals);
  const ModelTally exact_model = model;
  const std::vector<double> sampled =
      time_tier(Tier::kSampled, 24, sampled_evals);

  std::vector<double> surrogate_us;
  bool attributed = true;
  for (std::size_t i = 0; i < 2000; ++i) {
    const DecisionOutcome& d = inputs.at(rng.index(inputs.decisions->size()));
    const std::int64_t start = now_ns();
    const auto phi = inputs.surrogate.path_attribution(d.latent);
    surrogate_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    attributed = attributed && !phi.empty();
  }
  result.check(attributed, "the surrogate returned an empty attribution");

  auto& m = result.metrics;
  m["xai.exact_ms_p50"] = percentile(exact, 50);
  m["xai.sampled_ms_p50"] = percentile(sampled, 50);
  m["xai.surrogate_us_p50"] = percentile(surrogate_us, 50);
  m["ml.model_ms_per_exact"] =
      ms(exact_model.ns) / static_cast<double>(exact.size());
  m["ml.model_rows_per_s"] =
      static_cast<double>(model.rows) / (static_cast<double>(model.ns) * 1e-9);
  m["xai.self_share"] =
      1.0 - static_cast<double>(model.ns) / static_cast<double>(explain_ns);
  m["xai.model_evals_per_exact"] = static_cast<double>(exact_evals);
  m["xai.model_evals_per_sampled"] = static_cast<double>(sampled_evals);
}

void serving_stats_metrics(const ExplainRun& run, RunResult& result) {
  const auto& s = run.stats;
  auto served = [&s](Tier tier) {
    return static_cast<double>(s.served_by_tier[static_cast<std::size_t>(tier)]);
  };
  auto& m = result.metrics;
  m["xai.served_exact"] = served(Tier::kExact);
  m["xai.served_sampled"] = served(Tier::kSampled);
  m["xai.served_surrogate"] = served(Tier::kSurrogate);
  m["xai.shed"] = static_cast<double>(s.shed_total());
  m["xai.demoted_share"] =
      run.delivered > 0 ? static_cast<double>(s.demoted_requests) /
                              static_cast<double>(run.delivered)
                        : 0.0;
  m["xai.queue_high_water"] = static_cast<double>(s.queue_high_water);
}

/// Accounting and output checks, untimed. A shed request and a retained
/// result that differs from its direct recomputation count as failed.
void check_explain_run(const ex::ml::PolicyAgent& agent, const ExplainRun& run,
                       const char* label, RunResult& result) {
  const std::uint64_t shed = run.stats.shed_total();
  result.check(run.stats.submitted == run.delivered + shed,
               std::string(label) + ": submitted != delivered + shed");
  result.check(!run.checked.empty(),
               std::string(label) + ": no served result was checked");
  const std::uint64_t wrong = run.mismatches(agent);
  result.check(wrong == 0, std::string(label) + ": " + std::to_string(wrong) +
                               " served attributions differ from a direct "
                               "explain");
  result.info[std::string(label) + ".results_checked"] =
      std::to_string(run.checked.size());
  result.attempted += run.submitted;
  result.failed += shed + wrong;
}

}  // namespace

void run_explain_bursty(const RunArgs& args, RunResult& result) {
  const ex::harness::TrainedSystem system = train(result);
  auto setup = setup_loop(system, args.seed, result);
  const ExplainInputs inputs = explain_inputs(system, *setup);
  const std::size_t requests = ops_for(args.seconds, kRequestsPerSecond);
  const bool force_shed = args.fault == "shed";
  result.metrics["setup_s"] = seconds_since(args.start_ns);

  if (!args.trace) {
    ExplainRun run(*system.agent, inputs, args.seed, requests, force_shed,
                   nullptr);
    BlockedSamples blocks(kExplainBlock);
    SynthesisSampler synthesis(setup->explora(), args.seconds, blocks);
    blocks.start();
    run.advance(requests, &blocks, &synthesis);
    run.finish(&blocks);
    synthesis.finish();
    blocks.finish();
    synthesis.check(result);
    report_timed(blocks, result);
    check_explain_run(*system.agent, run, "untraced", result);
    result.info["result_digest"] = hex(run.digest);
    return;
  }
  Tracer tracer;
  const TracedAgent traced_agent(*system.agent, tracer);
  const std::size_t each = half(requests);
  ExplainRun plain(*system.agent, inputs, args.seed, each, force_shed,
                   nullptr);
  ExplainRun traced(traced_agent, inputs, args.seed, each, force_shed,
                    &tracer);
  for (std::size_t target = kExplainBlock;
       plain.submitted < each || traced.submitted < each;
       target += kExplainBlock) {
    for (ExplainRun* run : {&plain, &traced}) {
      run->advance(target, nullptr, nullptr);
      // Drain the last burst before the other service runs, so that no
      // request's latency includes the other service's time.
      if (run->submitted >= each) run->finish(nullptr);
    }
  }
  check_explain_run(*system.agent, plain, "untraced", result);
  check_explain_run(*system.agent, traced, "traced", result);
  result.check(traced.digest == plain.digest,
               "traced result digest differs from the untraced one");
  result.info["result_digest"] = hex(traced.digest);
  const LayerBreakdown layers = breakdown(tracer.spans(), "service.tick");
  result.check(tracer.balanced() && layers.unbalanced_ops == 0,
               "traced ticks: layer self times do not sum to the tick");
  record_self_shares(layers, result);
  serving_stats_metrics(traced, result);
  explainer_layer_metrics(*system.agent, inputs, args.seed, result);
  trace_overhead(traced.op_ms, plain.op_ms, result);
  write_spans(tracer, args, result);
}

// ---------------------------------------------------------------------------
// replay_ht
// ---------------------------------------------------------------------------

namespace {

struct ReplayPhase {
  std::vector<double> plain_ms;   ///< untraced passes
  std::vector<double> traced_ms;  ///< traced passes
  std::vector<double> parse_ms;   ///< traced passes
  std::vector<double> decode_ms;  ///< traced passes
  std::vector<double> replay_ms;  ///< traced passes
  std::size_t frames = 0;
};

/// `passes` replay passes back to back; with a tracer, alternate blocks of
/// kReplayBlock passes run traced. A pass whose attribution stream
/// differs from the live run's, or that throws, counts as failed.
ReplayPhase replay_phase(const std::vector<std::uint8_t>& trace,
                         const ex::harness::RecordedRun& live,
                         const ex::harness::ExperimentOptions& options,
                         Tracer* tracer, std::size_t passes,
                         BlockedSamples* blocks, SynthesisSampler* synthesis,
                         RunResult& result) {
  ReplayPhase phase;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    Tracer* const on =
        (pass / kReplayBlock) % 2 == 1 ? tracer : nullptr;
    if (on != nullptr) on->set_op(pass);
    ++result.attempted;
    bool ok = false;
    try {
      std::optional<ex::oran::TraceReplaySource> source;
      std::optional<ex::harness::ReplayOutcome> outcome;
      const std::int64_t op_start = now_ns();
      std::int64_t parsed = 0;
      {
        ScopedSpan op(on, "replay.pass", Layer::kBench);
        {
          ScopedSpan span(on, "trace.parse", Layer::kOran);
          source.emplace(ex::oran::TraceReplaySource::parse(trace));
        }
        parsed = now_ns();
        ScopedSpan span(on, "harness.replay_trace", Layer::kExplora);
        outcome.emplace(ex::harness::replay_trace(
            *source, live.xapp_name, options,
            ex::core::AgentProfile::kHighThroughput));
      }
      const std::int64_t op_end = now_ns();
      const double took = ms(op_end - op_start);
      if (blocks != nullptr) blocks->add_op(took);
      phase.frames = source->frames().size();
      ok = outcome->attribution == live.attribution;
      if (on == nullptr) {
        phase.plain_ms.push_back(took);
      } else {
        phase.traced_ms.push_back(took);
        phase.parse_ms.push_back(ms(parsed - op_start));
        phase.replay_ms.push_back(ms(op_end - parsed));
        // Decode alone: the same frames into an endpoint that drops them.
        DiscardEndpoint discard;
        const std::int64_t decode_start = now_ns();
        {
          ScopedSpan span(on, "trace.decode", Layer::kOran);
          (void)source->replay_into(discard, live.xapp_name);
        }
        phase.decode_ms.push_back(ms(now_ns() - decode_start));
      }
    } catch (const std::exception& error) {
      if (result.failed == 0) {
        std::fprintf(stderr, "perfbench: replay pass %zu failed: %s\n",
                     pass + 1, error.what());
      }
    }
    if (!ok) ++result.failed;
    if (synthesis != nullptr) synthesis->poll();
  }
  return phase;
}

/// Self-test fault: flips one byte in the middle of the encoded message
/// of the middle control frame delivered to the xApp, so the replayed
/// stream must differ from (or fail to decode against) the live one.
void corrupt_control_frame(std::vector<std::uint8_t>& trace,
                           const std::string& xapp_name) {
  const auto source = ex::oran::TraceReplaySource::parse(trace);
  std::vector<const ex::oran::TraceFrame*> controls;
  for (const ex::oran::TraceFrame* frame : source.frames_for(xapp_name)) {
    if (frame->decode().type == ex::oran::MessageType::kRanControl) {
      controls.push_back(frame);
    }
  }
  if (controls.empty()) throw std::runtime_error("trace has no controls");
  const std::vector<std::uint8_t>& message =
      controls[controls.size() / 2]->message;
  const auto at =
      std::search(trace.begin(), trace.end(), message.begin(), message.end());
  if (at == trace.end()) throw std::runtime_error("control frame not found");
  *(at + static_cast<std::ptrdiff_t>(message.size() / 2)) ^= 0x5a;
}

}  // namespace

void run_replay_ht(const RunArgs& args, RunResult& result) {
  const ex::harness::TrainedSystem system = train(result);
  ex::harness::ExperimentOptions options = loop_options(args.seed);
  options.decisions = kReplayDecisions;
  const std::int64_t record_start = now_ns();
  const ex::harness::RecordedRun live = ex::harness::record_experiment(
      system, paper_scenario(), options);
  result.metrics["harness.record_s"] = seconds_since(record_start);
  result.info["attribution_digest"] = hex(live.attribution.digest);
  std::vector<std::uint8_t> trace = live.trace;
  if (args.fault == "corrupt-trace") {
    corrupt_control_frame(trace, live.xapp_name);
  }
  const std::size_t passes = ops_for(args.seconds, kPassesPerSecond);
  auto setup = setup_loop(system, args.seed, result);
  result.metrics["setup_s"] = seconds_since(args.start_ns);

  if (!args.trace) {
    BlockedSamples blocks(kReplayBlock);
    SynthesisSampler synthesis(setup->explora(), args.seconds, blocks);
    blocks.start();
    (void)replay_phase(trace, live, options, nullptr, passes, &blocks,
                       &synthesis, result);
    synthesis.finish();
    blocks.finish();
    synthesis.check(result);
    report_timed(blocks, result);
    return;
  }
  Tracer tracer;
  const ReplayPhase traced = replay_phase(trace, live, options, &tracer,
                                          passes, nullptr, nullptr, result);
  const LayerBreakdown layers = breakdown(tracer.spans(), "replay.pass");
  result.check(tracer.balanced() && layers.unbalanced_ops == 0,
               "traced passes: layer self times do not sum to the pass");
  record_self_shares(layers, result);
  auto& m = result.metrics;
  m["oran.parse_ms_per_pass"] = mean(traced.parse_ms);
  m["oran.decode_ms_per_pass"] = mean(traced.decode_ms);
  m["explora.replay_ms_per_pass"] =
      mean(traced.replay_ms) - mean(traced.decode_ms);
  m["oran.frames_per_pass"] = static_cast<double>(traced.frames);
  m["oran.trace_bytes"] = static_cast<double>(trace.size());
  m["explora.graph_nodes"] =
      static_cast<double>(live.result.graph.node_count());
  if (live.result.steering.has_value() &&
      live.result.steering->suggestions > 0) {
    m["explora.steer_replace_ratio"] =
        static_cast<double>(live.result.steering->replacements) /
        static_cast<double>(live.result.steering->suggestions);
  }
  trace_overhead(traced.traced_ms, traced.plain_ms, result);
  write_spans(tracer, args, result);
}

}  // namespace perfbench
