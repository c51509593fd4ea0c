// Unit tests for the per-slice MAC schedulers (netsim/scheduler).
#include "netsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace explora::netsim {
namespace {

/// Unlimited backlog source (full-buffer traffic model).
class FullBufferSource final : public TrafficSource {
 public:
  ArrivalBatch arrivals(Tick /*now*/) override {
    return {.bytes = 125000, .packets = 100};  // plenty every TTI
  }
  double offered_bps() const noexcept override { return 1e9; }
};

/// Builds a UE at a given distance with a deterministic channel.
std::unique_ptr<Ue> make_ue(std::uint32_t id, double distance) {
  ChannelConfig config;
  config.fading_enabled = false;
  return std::make_unique<Ue>(
      id, Slice::kEmbb, UeChannel(distance, config, common::Rng(id + 1)),
      std::make_unique<FullBufferSource>(), 10'000'000);
}

std::uint64_t run_ttis(Scheduler& scheduler, std::vector<std::unique_ptr<Ue>>& ues,
                       std::uint32_t prbs, int ttis) {
  std::vector<Ue*> raw;
  for (auto& ue : ues) raw.push_back(ue.get());
  std::uint64_t total = 0;
  for (int t = 0; t < ttis; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, prbs);
  }
  for (auto& ue : ues) total += ue->harvest_window().tx_bytes;
  return total;
}

std::vector<std::uint64_t> per_ue_bytes(std::vector<std::unique_ptr<Ue>>& ues) {
  std::vector<std::uint64_t> out;
  for (auto& ue : ues) out.push_back(ue->harvest_window().tx_bytes);
  return out;
}

TEST(SchedulerFactory, CreatesRequestedPolicy) {
  EXPECT_EQ(make_scheduler(SchedulerPolicy::kRoundRobin)->policy(),
            SchedulerPolicy::kRoundRobin);
  EXPECT_EQ(make_scheduler(SchedulerPolicy::kWaterfilling)->policy(),
            SchedulerPolicy::kWaterfilling);
  EXPECT_EQ(make_scheduler(SchedulerPolicy::kProportionalFair)->policy(),
            SchedulerPolicy::kProportionalFair);
}

TEST(RoundRobin, SplitsEvenlyAmongEqualUes) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  ues.push_back(make_ue(1, 800.0));
  RoundRobinScheduler scheduler;
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 100; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_NEAR(static_cast<double>(bytes[0]),
              static_cast<double>(bytes[1]),
              static_cast<double>(bytes[0]) * 0.02);
}

TEST(RoundRobin, ZeroBudgetServesNothing) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  RoundRobinScheduler scheduler;
  EXPECT_EQ(run_ttis(scheduler, ues, 0, 10), 0u);
}

TEST(RoundRobin, EmptyUeListIsSafe) {
  RoundRobinScheduler scheduler;
  std::vector<Ue*> none;
  scheduler.schedule_tti(none, 10);  // must not crash
}

TEST(RoundRobin, OddBudgetDoesNotStarveAnyUe) {
  std::vector<std::unique_ptr<Ue>> ues;
  for (std::uint32_t i = 0; i < 3; ++i) ues.push_back(make_ue(i, 800.0));
  RoundRobinScheduler scheduler;
  std::vector<Ue*> raw;
  for (auto& ue : ues) raw.push_back(ue.get());
  for (int t = 0; t < 300; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 7);  // 7 PRBs over 3 users
  }
  const auto bytes = per_ue_bytes(ues);
  for (std::uint64_t b : bytes) EXPECT_GT(b, 0u);
  const auto [min_it, max_it] = std::minmax_element(bytes.begin(), bytes.end());
  EXPECT_LT(static_cast<double>(*max_it - *min_it),
            static_cast<double>(*max_it) * 0.05);
}

TEST(Waterfilling, FavorsBestChannel) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 400.0));   // strong
  ues.push_back(make_ue(1, 1600.0));  // weak
  WaterfillingScheduler scheduler;
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 100; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  // Full-buffer users: the greedy policy gives everything to the strong UE.
  EXPECT_GT(bytes[0], 0u);
  EXPECT_EQ(bytes[1], 0u);
}

TEST(Waterfilling, SpillsOverWhenStrongUserDrains) {
  // Strong user with little data: the remaining budget reaches the weak one.
  class TrickleSource final : public TrafficSource {
   public:
    ArrivalBatch arrivals(Tick now) override {
      return now == 0 ? ArrivalBatch{.bytes = 125, .packets = 1}
                      : ArrivalBatch{};
    }
    double offered_bps() const noexcept override { return 1e3; }
  };
  ChannelConfig config;
  config.fading_enabled = false;
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(std::make_unique<Ue>(
      0, Slice::kEmbb, UeChannel(400.0, config, common::Rng(1)),
      std::make_unique<TrickleSource>()));
  ues.push_back(make_ue(1, 1600.0));
  WaterfillingScheduler scheduler;
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 10; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_GT(bytes[1], 0u);
}

TEST(ProportionalFair, BalancesThroughputAndFairness) {
  // PF should give the weak user a non-trivial share (unlike WF) while
  // still favoring the strong one (unlike RR in *throughput* terms).
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 400.0));
  ues.push_back(make_ue(1, 1600.0));
  ProportionalFairScheduler scheduler(0.05);
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 500; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_GT(bytes[1], 0u);                 // weak UE is not starved
  EXPECT_GT(bytes[0], bytes[1]);           // strong UE still ahead
}

TEST(ProportionalFair, EqualChannelsShareEvenly) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  ues.push_back(make_ue(1, 800.0));
  ProportionalFairScheduler scheduler(0.1);
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 500; ++t) {
    for (auto& ue : ues) ue->begin_tti(t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_NEAR(static_cast<double>(bytes[0]),
              static_cast<double>(bytes[1]),
              static_cast<double>(bytes[0]) * 0.05);
}

// Property sweep: throughput ordering WF >= PF >= RR for the *sum* rate
// when channels differ (textbook scheduler property), for several budgets.
class SchedulerOrderingSweep : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SchedulerOrderingSweep, SumThroughputOrdering) {
  const std::uint32_t budget = GetParam();
  auto run = [&](SchedulerPolicy policy) {
    std::vector<std::unique_ptr<Ue>> ues;
    ues.push_back(make_ue(0, 400.0));
    ues.push_back(make_ue(1, 1600.0));
    auto scheduler = make_scheduler(policy, 0.05);
    return run_ttis(*scheduler, ues, budget, 300);
  };
  const auto wf = run(SchedulerPolicy::kWaterfilling);
  const auto pf = run(SchedulerPolicy::kProportionalFair);
  const auto rr = run(SchedulerPolicy::kRoundRobin);
  EXPECT_GE(wf, pf);
  EXPECT_GE(pf, rr);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SchedulerOrderingSweep,
                         ::testing::Values(5u, 10u, 20u, 50u));

// ---- Differential check: run-serving against PRB-by-PRB grant loops ----

/// Bursty arrivals: idle TTIs between batches of equal-size packets, so
/// buffers range from empty to many PRBs deep and often drain partway
/// through a UE's run of PRBs.
class BurstySource final : public TrafficSource {
 public:
  BurstySource(common::Rng rng, double burst_probability)
      : rng_(rng), burst_probability_(burst_probability) {}
  ArrivalBatch arrivals(Tick /*now*/) override {
    if (!rng_.bernoulli(burst_probability_)) return {};
    const auto packets = static_cast<std::uint32_t>(rng_.uniform_int(1, 6));
    const auto size = static_cast<std::uint64_t>(rng_.uniform_int(1, 1500));
    return {.bytes = packets * size, .packets = packets};
  }
  double offered_bps() const noexcept override { return 0.0; }

 private:
  common::Rng rng_;
  double burst_probability_;
};

/// Reference grant loops of the three policies, PRB by PRB: one
/// Ue::serve call per granted PRB, no telemetry. WF and PF serve each
/// UE's PRBs as one run; all three schedulers must match bit for bit.
class PrbByPrbReference {
 public:
  PrbByPrbReference(SchedulerPolicy policy, double alpha)
      : policy_(policy), alpha_(alpha) {}

  void schedule_tti(std::span<Ue*> ues, std::uint32_t budget) {
    std::vector<Ue*> active;
    for (Ue* ue : ues) {
      if (ue->has_data()) active.push_back(ue);
    }
    switch (policy_) {
      case SchedulerPolicy::kRoundRobin: round_robin(active, budget); break;
      case SchedulerPolicy::kWaterfilling: waterfilling(active, budget); break;
      case SchedulerPolicy::kProportionalFair:
        proportional_fair(active, budget);
        break;
    }
  }

  /// Runs that drained a UE with budget left while another UE still had
  /// data, so the rest of the budget spilled over.
  [[nodiscard]] std::uint64_t spills() const { return spills_; }

 private:
  static std::uint64_t serve_one_prb(Ue& ue) {
    return ue.serve(ue.channel().bytes_per_prb());
  }

  void count_spill(const Ue& served, const std::vector<Ue*>& active,
                   std::uint32_t remaining) {
    if (served.has_data() || remaining == 0) return;
    for (const Ue* ue : active) {
      if (ue->has_data()) {
        ++spills_;
        return;
      }
    }
  }

  void round_robin(const std::vector<Ue*>& active, std::uint32_t budget) {
    if (active.empty() || budget == 0) return;
    rr_next_ %= active.size();
    std::size_t cursor = rr_next_;
    std::uint32_t remaining = budget;
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
    rr_next_ = (rr_next_ + 1) % active.size();
  }

  void waterfilling(std::vector<Ue*>& active, std::uint32_t budget) {
    if (active.empty() || budget == 0) return;
    std::sort(active.begin(), active.end(), [](const Ue* a, const Ue* b) {
      if (a->channel().sinr_db() != b->channel().sinr_db()) {
        return a->channel().sinr_db() > b->channel().sinr_db();
      }
      return a->id() < b->id();
    });
    std::uint32_t remaining = budget;
    for (Ue* ue : active) {
      while (remaining > 0 && ue->has_data()) {
        serve_one_prb(*ue);
        --remaining;
      }
      count_spill(*ue, active, remaining);
      if (remaining == 0) break;
    }
  }

  void proportional_fair(const std::vector<Ue*>& active,
                         std::uint32_t budget) {
    std::vector<double> served_bits(active.size(), 0.0);
    std::uint32_t remaining = active.empty() ? 0 : budget;
    while (remaining > 0) {
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
      if (best == active.size()) break;
      const std::uint64_t sent = serve_one_prb(*active[best]);
      served_bits[best] += static_cast<double>(sent) * 8.0;
      --remaining;
      count_spill(*active[best], active, remaining);
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      double& avg = active[i]->pf_average();
      avg = (1.0 - alpha_) * avg + alpha_ * served_bits[i];
    }
  }

  SchedulerPolicy policy_;
  double alpha_;
  std::size_t rr_next_ = 0;
  std::uint64_t spills_ = 0;
};

/// One slice's UEs, built identically from a seed: fading channels at
/// spread distances, bursty traffic of per-UE intensity, small buffers.
/// With `fading` off every UE sits at the same distance, so PF metrics tie.
struct DifferentialCell {
  DifferentialCell(std::uint64_t seed, bool fading) {
    common::Rng master(seed);
    ChannelConfig config;
    config.fading_enabled = fading;
    const auto count = static_cast<std::uint32_t>(master.uniform_int(3, 6));
    for (std::uint32_t i = 0; i < count; ++i) {
      const double distance = fading ? master.uniform(100.0, 2500.0) : 700.0;
      const double burst_probability = master.uniform(0.05, 0.5);
      ues.push_back(std::make_unique<Ue>(
          i, Slice::kEmbb, UeChannel(distance, config, master.fork(2 * i)),
          std::make_unique<BurstySource>(master.fork(2 * i + 1),
                                         burst_probability),
          30'000));
      raw.push_back(ues.back().get());
    }
  }

  std::vector<std::unique_ptr<Ue>> ues;
  std::vector<Ue*> raw;
};

struct DifferentialCase {
  SchedulerPolicy policy;
  std::uint64_t seed;
  bool fading;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << to_string(c.policy) << " seed " << c.seed
      << (c.fading ? " fading" : " flat");
}

class SchedulerDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(SchedulerDifferential, RunServingMatchesPrbByPrbReference) {
  const DifferentialCase param = GetParam();
  constexpr double kAlpha = 0.05;
  DifferentialCell cell(param.seed, param.fading);
  DifferentialCell reference_cell(param.seed, param.fading);
  auto scheduler = make_scheduler(param.policy, kAlpha);
  PrbByPrbReference reference(param.policy, kAlpha);
  // Budgets include an idle slice (0) and the whole carrier (50).
  constexpr std::uint32_t kBudgets[] = {0, 1, 2, 5, 13, 29, 50};
  common::Rng budgets(param.seed + 100);
  std::uint64_t served = 0;
  for (Tick t = 0; t < 2500; ++t) {
    for (auto& ue : cell.ues) ue->begin_tti(t);
    for (auto& ue : reference_cell.ues) ue->begin_tti(t);
    const std::uint32_t budget = kBudgets[budgets.index(std::size(kBudgets))];
    scheduler->schedule_tti(cell.raw, budget);
    reference.schedule_tti(reference_cell.raw, budget);
    const bool harvest = t % 10 == 9;
    for (std::size_t i = 0; i < cell.ues.size(); ++i) {
      Ue& ue = *cell.ues[i];
      Ue& expected = *reference_cell.ues[i];
      ASSERT_EQ(ue.buffer_bytes(), expected.buffer_bytes())
          << "UE " << i << " TTI " << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ue.pf_average()),
                std::bit_cast<std::uint64_t>(expected.pf_average()))
          << "UE " << i << " TTI " << t;
      if (!harvest) continue;
      const UeWindowCounters got = ue.harvest_window();
      const UeWindowCounters want = expected.harvest_window();
      EXPECT_EQ(got.tx_bytes, want.tx_bytes) << "UE " << i << " TTI " << t;
      EXPECT_EQ(got.tx_packets, want.tx_packets) << "UE " << i << " TTI " << t;
      EXPECT_EQ(got.dropped_bytes, want.dropped_bytes)
          << "UE " << i << " TTI " << t;
      served += got.tx_bytes;
    }
  }
  EXPECT_GT(served, 0u);
  // RR does not serve in runs; the run-serving policies must have hit the
  // drain-partway edge where the rest of the budget moves to the next UE.
  if (param.policy != SchedulerPolicy::kRoundRobin) {
    EXPECT_GT(reference.spills(), 0u);
  }
}

std::vector<DifferentialCase> differential_cases() {
  std::vector<DifferentialCase> cases;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kRoundRobin, SchedulerPolicy::kWaterfilling,
        SchedulerPolicy::kProportionalFair}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      cases.push_back({policy, seed, true});
    }
    cases.push_back({policy, 4, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, SchedulerDifferential,
    ::testing::ValuesIn(differential_cases()),
    [](const ::testing::TestParamInfo<DifferentialCase>& case_info) {
      return to_string(case_info.param.policy) + "_seed" +
             std::to_string(case_info.param.seed) +
             (case_info.param.fading ? "_fading" : "_flat");
    });

}  // namespace
}  // namespace explora::netsim
