#include "netsim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/analysis_annotations.hpp"
#include "common/contracts.hpp"

namespace explora::netsim {

namespace {

/// Serves one PRB worth of data to a UE; returns bytes actually sent.
EXPLORA_REALTIME std::uint64_t serve_one_prb(Ue& ue) {
  return ue.serve(ue.channel().bytes_per_prb());
}

/// PRBs a backlogged UE takes when served until it drains: the fewest
/// whole PRBs that cover its buffer, capped by the `remaining` budget.
EXPLORA_REALTIME std::uint32_t prb_run_length(const Ue& ue,
                                              std::uint32_t remaining) {
  const std::uint64_t per_prb = ue.channel().bytes_per_prb();
  EXPLORA_ASSERT(per_prb > 0);  // CQI >= 1 carries at least 2 bytes
  const std::uint64_t to_drain = (ue.buffer_bytes() + per_prb - 1) / per_prb;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(remaining, to_drain));
}

/// Serves a run of `prbs` PRBs to a UE in one Ue::serve call; returns bytes
/// actually sent. Equal to `prbs` serve_one_prb calls: the TBS holds for
/// the whole TTI and serve() drains the packet queue in order.
EXPLORA_REALTIME std::uint64_t serve_prb_run(Ue& ue, std::uint32_t prbs) {
  return ue.serve(std::uint64_t{prbs} * ue.channel().bytes_per_prb());
}

/// Collects the subset of UEs with buffered data into `out`, a scratch
/// vector owned by the scheduler: its capacity survives across TTIs, so
/// after the first few TTIs of a configuration the grant loop runs
/// allocation-free.
EXPLORA_REALTIME void collect_backlogged(std::span<Ue*> ues,
                                         std::vector<Ue*>& out) {
  out.clear();
  for (Ue* ue : ues) {
    EXPLORA_EXPECTS(ue != nullptr);
    // hotpath-ok: scratch retains capacity across TTIs; grows only when
    // the attached-UE count grows (attach/detach, not the TTI loop).
    if (ue->has_data()) out.push_back(ue);
  }
}

}  // namespace

namespace {

// Upper bound kTotalPrbs: a slice can at most be granted the whole carrier.
constexpr std::int64_t kPrbBounds[] = {0, 5, 10, 20, 30, 40, kTotalPrbs};

}  // namespace

Scheduler::Scheduler() {
  static_assert(std::size(kPrbBounds) + 1 == kPrbBucketCount);
  telemetry::Scope scope("netsim.scheduler");
  tti_runs_ = &scope.counter("tti_runs");
  prb_granted_ = &scope.counter("prb_granted");
  prb_unused_ = &scope.counter("prb_unused");
  prb_per_tti_ = &scope.histogram("prb_per_tti", kPrbBounds);
}

Scheduler::~Scheduler() { flush_telemetry(); }

EXPLORA_REALTIME void Scheduler::record_grants(std::uint32_t granted,
                                               std::uint32_t budget) noexcept {
  // Plain-integer accumulation on the TTI hot path; flush_telemetry()
  // folds it into the shared atomics once per report window. Gated like
  // every other record call so runtime-disabled windows stay unrecorded.
  if constexpr (!telemetry::kCompiledIn) {
    (void)granted;
    (void)budget;
    return;
  }
  if (!telemetry::enabled()) return;
  ++pending_.runs;
  pending_.granted += granted;
  pending_.unused += budget - granted;
  ++pending_.grant_tally[granted];
}

void Scheduler::flush_telemetry() noexcept {
  if constexpr (!telemetry::kCompiledIn) return;
  if (pending_.runs == 0) return;
  tti_runs_->add(pending_.runs);
  prb_granted_->add(pending_.granted);
  prb_unused_->add(pending_.unused);
  // Derive the histogram fold from the grant tally: per-TTI values are
  // bounded by the carrier, so the tally is exhaustive and sum/min/max
  // reconstruct exactly what per-value observe() calls would have seen.
  std::array<std::uint64_t, kPrbBucketCount> buckets{};
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::size_t bucket = 0;
  for (std::int64_t value = 0; value <= kTotalPrbs; ++value) {
    const std::uint64_t hits =
        pending_.grant_tally[static_cast<std::size_t>(value)];
    while (bucket < std::size(kPrbBounds) && value > kPrbBounds[bucket]) {
      ++bucket;
    }
    if (hits == 0) continue;
    buckets[bucket] += hits;
    sum += value * static_cast<std::int64_t>(hits);
    min = std::min(min, value);
    max = std::max(max, value);
  }
  prb_per_tti_->observe_batch(buckets, pending_.runs, sum, min, max);
  pending_ = PendingGrants{};
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerPolicy policy,
                                          double pf_alpha) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerPolicy::kWaterfilling:
      return std::make_unique<WaterfillingScheduler>();
    case SchedulerPolicy::kProportionalFair:
      return std::make_unique<ProportionalFairScheduler>(pf_alpha);
  }
  EXPLORA_ASSERT(false);
  return nullptr;
}

EXPLORA_REALTIME void RoundRobinScheduler::schedule_tti(
    std::span<Ue*> ues, std::uint32_t prb_budget) {
  auto& active = active_scratch_;
  collect_backlogged(ues, active);
  if (active.empty() || prb_budget == 0) {
    record_grants(0, prb_budget);
    return;
  }
  // Rotate the starting user so the head position does not systematically
  // favour low UE ids when the budget is not a multiple of the user count.
  next_ %= active.size();
  std::size_t cursor = next_;
  std::uint32_t remaining = prb_budget;
  // Cycle until the budget is spent or nobody has data left.
  std::size_t idle_passes = 0;
  while (remaining > 0 && idle_passes < active.size()) {
    Ue& ue = *active[cursor];
    cursor = (cursor + 1) % active.size();
    if (!ue.has_data()) {
      ++idle_passes;
      continue;
    }
    idle_passes = 0;
    serve_one_prb(ue);
    --remaining;
  }
  // A slice scheduler must never grant more PRBs than its slice owns,
  // or it would eat into another slice's share.
  EXPLORA_ENSURES_MSG(remaining <= prb_budget,
                      "RR served {} PRBs over a budget of {}",
                      prb_budget - remaining, prb_budget);
  record_grants(prb_budget - remaining, prb_budget);
  next_ = (next_ + 1) % active.size();
}

EXPLORA_REALTIME void WaterfillingScheduler::schedule_tti(
    std::span<Ue*> ues, std::uint32_t prb_budget) {
  auto& active = active_scratch_;
  collect_backlogged(ues, active);
  if (active.empty() || prb_budget == 0) {
    record_grants(0, prb_budget);
    return;
  }
  // Strongest channel first; ties broken by UE id for determinism.
  std::sort(active.begin(), active.end(), [](const Ue* a, const Ue* b) {
    if (a->channel().sinr_db() != b->channel().sinr_db()) {
      return a->channel().sinr_db() > b->channel().sinr_db();
    }
    return a->id() < b->id();
  });
  // Each UE takes PRBs until it drains, then the rest spills to the next.
  std::uint32_t remaining = prb_budget;
  for (Ue* ue : active) {
    const std::uint32_t run = prb_run_length(*ue, remaining);
    serve_prb_run(*ue, run);
    remaining -= run;
    if (remaining == 0) break;
  }
  EXPLORA_ENSURES_MSG(remaining <= prb_budget,
                      "WF served {} PRBs over a budget of {}",
                      prb_budget - remaining, prb_budget);
  record_grants(prb_budget - remaining, prb_budget);
}

ProportionalFairScheduler::ProportionalFairScheduler(double alpha)
    : alpha_(alpha) {
  EXPLORA_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

EXPLORA_REALTIME void ProportionalFairScheduler::schedule_tti(
    std::span<Ue*> ues, std::uint32_t prb_budget) {
  auto& active = active_scratch_;
  collect_backlogged(ues, active);
  auto& served_bits = served_bits_scratch_;
  // hotpath-ok: scratch retains capacity across TTIs; grows only when the
  // attached-UE count grows (attach/detach, not the TTI loop).
  served_bits.assign(active.size(), 0.0);
  std::uint32_t granted = 0;
  if (!active.empty() && prb_budget > 0) {
    std::uint32_t remaining = prb_budget;
    while (remaining > 0) {
      // Pick the user with the best instantaneous-rate / average ratio.
      // Neither term changes within the TTI (the averages update after
      // the grant loop), so the winner keeps every PRB until it drains:
      // serve that run in one call.
      double best_metric = -1.0;
      std::size_t best = active.size();
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!active[i]->has_data()) continue;
        const double inst = active[i]->channel().bits_per_prb();
        const double avg = std::max(active[i]->pf_average(), 1e-3);
        const double metric = inst / avg;
        if (metric > best_metric) {
          best_metric = metric;
          best = i;
        }
      }
      if (best == active.size()) break;  // all drained
      const std::uint32_t run = prb_run_length(*active[best], remaining);
      const std::uint64_t sent = serve_prb_run(*active[best], run);
      served_bits[best] += static_cast<double>(sent) * 8.0;
      remaining -= run;
    }
    EXPLORA_ENSURES_MSG(remaining <= prb_budget,
                        "PF served {} PRBs over a budget of {}",
                        prb_budget - remaining, prb_budget);
    granted = prb_budget - remaining;
  }
  record_grants(granted, prb_budget);
  // EWMA update for every tracked user, including the unserved ones (their
  // average decays, raising future priority) — standard PF bookkeeping.
  for (std::size_t i = 0; i < active.size(); ++i) {
    double& avg = active[i]->pf_average();
    avg = (1.0 - alpha_) * avg + alpha_ * served_bits[i];
  }
}

}  // namespace explora::netsim
