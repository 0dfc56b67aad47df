// Tests for the sharded, warm-started batch solve pipeline: input-order
// results, bit-identical schedules at any thread count, cache hit
// classification, fingerprint-keyed invalidation, warm-started Phase-1
// values held against the dense oracle's optimum — plus the same
// determinism guarantee surfaced end-to-end through the city replay and
// the daily-life fleet mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/batch_scheduler.hpp"
#include "lpvs/emu/daily_life.hpp"
#include "lpvs/emu/replay.hpp"
#include "lpvs/solver/solve_cache.hpp"
#include "dense_bnb.hpp"

namespace lpvs::core {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

const core::RunContext& context() {
  static const core::RunContext ctx(anxiety());
  return ctx;
}

SlotProblem random_problem(common::Rng& rng, int devices) {
  SlotProblem problem;
  problem.lambda = 2000.0;
  // Binding capacities (~45% / ~60% of mean demand): admission must choose.
  problem.compute_capacity = 0.45 * 0.55 * devices;
  problem.storage_capacity = 0.60 * 100.0 * devices;
  for (int n = 0; n < devices; ++n) {
    DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    device.power_rates_mw.resize(30);
    device.chunk_durations_s.assign(30, 10.0);
    for (auto& p : device.power_rates_mw) p = rng.uniform(400.0, 1100.0);
    device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    device.initial_energy_mwh =
        device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    device.gamma = rng.uniform(0.13, 0.49);
    device.compute_cost = rng.uniform(0.3, 0.8);
    device.storage_cost = rng.uniform(50.0, 150.0);
    problem.devices.push_back(std::move(device));
  }
  return problem;
}

std::vector<BatchItem> random_batch(std::uint64_t seed, std::size_t clusters) {
  common::Rng rng(seed);
  std::vector<BatchItem> items(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    items[c].stream_key = c;
    items[c].problem =
        random_problem(rng, 8 + static_cast<int>(c % 5) * 4);
  }
  return items;
}

TEST(BatchScheduler, EmptyBatchYieldsNoSchedules) {
  BatchScheduler batch;
  const LpvsScheduler scheduler;
  EXPECT_TRUE(
      batch.schedule_batch({}, scheduler, RunContext(anxiety())).empty());
}

TEST(BatchScheduler, ResultsInInputOrderMatchDirectSolves) {
  const auto items = random_batch(5, 6);
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());
  BatchScheduler batch(BatchScheduler::Options{2});
  const auto schedules = batch.schedule_batch(items, scheduler, context);
  ASSERT_EQ(schedules.size(), items.size());
  for (std::size_t c = 0; c < items.size(); ++c) {
    const Schedule direct = scheduler.schedule(items[c].problem, context);
    EXPECT_EQ(schedules[c].x, direct.x) << "cluster " << c;
    EXPECT_EQ(schedules[c].objective, direct.objective) << "cluster " << c;
  }
}

TEST(BatchScheduler, ThreadCountProducesIdenticalSchedules) {
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());
  // Three consecutive slot batches under stable stream keys, so both the
  // cold and the warm-started paths are covered.
  std::vector<std::vector<Schedule>> by_threads;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BatchScheduler batch(BatchScheduler::Options{threads});
    std::vector<Schedule> all;
    for (const std::uint64_t seed : {21, 22, 23}) {
      auto schedules =
          batch.schedule_batch(random_batch(seed, 6), scheduler, context);
      all.insert(all.end(), schedules.begin(), schedules.end());
    }
    by_threads.push_back(std::move(all));
  }
  for (std::size_t variant = 1; variant < by_threads.size(); ++variant) {
    ASSERT_EQ(by_threads[variant].size(), by_threads[0].size());
    for (std::size_t s = 0; s < by_threads[0].size(); ++s) {
      EXPECT_EQ(by_threads[variant][s].x, by_threads[0][s].x);
      EXPECT_EQ(by_threads[variant][s].objective, by_threads[0][s].objective);
      EXPECT_EQ(by_threads[variant][s].energy_spent_mwh,
                by_threads[0][s].energy_spent_mwh);
    }
  }
}

TEST(BatchScheduler, RevisedEngineNodeAccountingIdenticalAcrossThreads) {
  // The B&B's node accounting (revised/dual-simplex relaxations, basis
  // memory across slots) must be a pure function of the per-stream solve
  // sequence — not of how many workers the batch was sharded across.
  // Drive three consecutive warm-started slot batches at 1, 2, and 8
  // threads and require bit-identical schedules AND identical ilp_nodes /
  // degradation rungs / cache-lookup classifications (exact hits are
  // fingerprint-gated, so equal hit counts certify equal budget
  // fingerprints too).
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());

  struct Observed {
    std::vector<Schedule> schedules;
    solver::SolveCacheStats stats;
  };
  std::vector<Observed> by_threads;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BatchScheduler batch(BatchScheduler::Options{threads});
    Observed obs;
    for (const std::uint64_t seed : {41, 42, 43}) {
      auto schedules =
          batch.schedule_batch(random_batch(seed, 8), scheduler, context);
      obs.schedules.insert(obs.schedules.end(), schedules.begin(),
                           schedules.end());
    }
    obs.stats = batch.cache().stats();
    by_threads.push_back(std::move(obs));
  }
  for (std::size_t variant = 1; variant < by_threads.size(); ++variant) {
    const Observed& base = by_threads[0];
    const Observed& got = by_threads[variant];
    ASSERT_EQ(got.schedules.size(), base.schedules.size());
    for (std::size_t s = 0; s < base.schedules.size(); ++s) {
      EXPECT_EQ(got.schedules[s].x, base.schedules[s].x) << "slot " << s;
      EXPECT_EQ(got.schedules[s].objective, base.schedules[s].objective)
          << "slot " << s;
      EXPECT_EQ(got.schedules[s].ilp_nodes, base.schedules[s].ilp_nodes)
          << "slot " << s;
      EXPECT_EQ(got.schedules[s].rung, base.schedules[s].rung)
          << "slot " << s;
    }
    EXPECT_EQ(got.stats.lookups, base.stats.lookups);
    EXPECT_EQ(got.stats.exact_hits, base.stats.exact_hits);
    EXPECT_EQ(got.stats.warm_starts, base.stats.warm_starts);
    EXPECT_EQ(got.stats.cold_starts, base.stats.cold_starts);
  }
}

/// LpvsScheduler's Phase 1 alone, so a batch can be held against the
/// Phase-1 optimum.
class Phase1Only final : public Scheduler {
 public:
  std::string name() const override { return "phase1"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override {
    return inner_.schedule_phase1_only(problem, context);
  }

 private:
  LpvsScheduler inner_;
};

TEST(BatchScheduler, WarmStartedPhase1StaysWithinGapOfDenseOracle) {
  // Three drifting slots through the batch cache: every Phase-1 value,
  // cold in slot 0 and warm-started after (repaired incumbent plus root
  // basis memory), must be feasible, never above the dense oracle's exact
  // optimum of the same program, and within the scheduler's relative gap
  // of it.
  const Phase1Only scheduler;
  const RunContext context(anxiety());
  BatchScheduler batch(BatchScheduler::Options{1});
  auto items = random_batch(51, 6);
  const double gap = scheduler_ilp_defaults().relative_gap;
  solver::BranchAndBoundSolver::Options exact;
  exact.relative_gap = 0.0;
  for (int slot = 0; slot < 3; ++slot) {
    const auto schedules = batch.schedule_batch(items, scheduler, context);
    ASSERT_EQ(schedules.size(), items.size());
    for (std::size_t c = 0; c < items.size(); ++c) {
      const solver::BinaryProgram program = phase1_program(items[c].problem);
      const solver::IlpSolution optimum =
          solver::oracle::solve_dense(program, exact);
      ASSERT_TRUE(optimum.optimal()) << "slot " << slot << " cluster " << c;
      ASSERT_TRUE(program.feasible(schedules[c].x))
          << "slot " << slot << " cluster " << c;
      const double value = program.value(schedules[c].x);
      EXPECT_LE(value, optimum.objective + 1e-9)
          << "slot " << slot << " cluster " << c;
      EXPECT_GE(value, optimum.objective * (1.0 - gap) - 1e-9)
          << "slot " << slot << " cluster " << c;
    }
    for (auto& item : items) {
      for (auto& device : item.problem.devices) {
        device.gamma = std::min(0.6, device.gamma + 0.003);
      }
    }
  }
  EXPECT_EQ(batch.cache().stats().warm_starts, 12);
}

TEST(BatchScheduler, CacheClassifiesColdExactAndWarmLookups) {
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());
  BatchScheduler batch(BatchScheduler::Options{1});
  const auto items = random_batch(9, 4);

  // First sight of every stream key: all cold.
  batch.schedule_batch(items, scheduler, context);
  EXPECT_EQ(batch.cache().stats().cold_starts, 4);
  EXPECT_EQ(batch.cache().stats().exact_hits, 0);

  // Bit-identical resubmission: all exact hits, no new solves.
  batch.schedule_batch(items, scheduler, context);
  EXPECT_EQ(batch.cache().stats().exact_hits, 4);
  EXPECT_EQ(batch.cache().stats().warm_starts, 0);

  // The next slot's drift: gamma posteriors move, so every stream's
  // Phase-1 objective (and hence fingerprint) changes and the lookup
  // falls back from exact reuse to a warm-started solve.  (Battery level
  // alone is NOT enough — it only enters Phase-1 through the eligibility
  // bits, so a small drain can leave the program bit-identical.)
  auto drifted = items;
  for (auto& item : drifted) {
    for (auto& device : item.problem.devices) {
      device.gamma = std::min(0.6, device.gamma + 0.003);
    }
  }
  batch.schedule_batch(drifted, scheduler, context);
  EXPECT_EQ(batch.cache().stats().exact_hits, 4);
  EXPECT_EQ(batch.cache().stats().warm_starts, 4);
  EXPECT_EQ(batch.cache().stats().cold_starts, 4);

  batch.clear_cache();
  EXPECT_EQ(batch.cache().stats().lookups, 0);
  EXPECT_EQ(batch.cache().size(), 0u);
}

TEST(BatchScheduler, SingleCoefficientChangeInvalidatesExactHit) {
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());
  BatchScheduler batch(BatchScheduler::Options{1});
  auto items = random_batch(13, 1);
  batch.schedule_batch(items, scheduler, context);
  batch.schedule_batch(items, scheduler, context);
  ASSERT_EQ(batch.cache().stats().exact_hits, 1);

  // One device's gamma posterior ticks by one ulp-scale step: the
  // fingerprint must change and the cached solution must not be replayed.
  items[0].problem.devices[0].gamma += 1e-9;
  batch.schedule_batch(items, scheduler, context);
  EXPECT_EQ(batch.cache().stats().exact_hits, 1);
  EXPECT_EQ(batch.cache().stats().warm_starts, 1);
}

TEST(SolveCacheFingerprint, SensitiveToEveryCoefficientFamily) {
  common::Rng rng(31);
  const SlotProblem slot = random_problem(rng, 6);
  const solver::BinaryProgram base = phase1_program(slot);
  const std::uint64_t fp = solver::fingerprint(base);
  EXPECT_EQ(fp, solver::fingerprint(base));  // pure function of the data

  auto mutate = [&](auto&& change) {
    solver::BinaryProgram copy = base;
    change(copy);
    return solver::fingerprint(copy);
  };
  EXPECT_NE(fp, mutate([](auto& p) { p.objective[0] += 1e-12; }));
  EXPECT_NE(fp, mutate([](auto& p) { p.rows[0][1] += 1e-12; }));
  EXPECT_NE(fp, mutate([](auto& p) { p.rhs[1] += 1e-12; }));
  if (!base.eligible.empty()) {
    EXPECT_NE(fp, mutate([](auto& p) { p.eligible[0] ^= 1; }));
  }
}

TEST(BatchScheduler, ReplayCityIdenticalAcrossThreadCounts) {
  trace::TraceConfig trace_config;
  trace_config.channel_count = 40;
  trace_config.session_count = 120;
  trace_config.top_channel_viewers = 300.0;
  const trace::Trace twitch =
      trace::TwitchLikeGenerator(trace_config).generate(3);
  const LpvsScheduler scheduler;

  emu::ReplayConfig config;
  config.min_viewers = 20;
  config.max_clusters = 4;
  config.max_slots = 4;
  config.enable_giveup = false;
  config.seed = 11;

  config.threads = 1;
  const emu::ReplayReport one =
      replay_city(twitch, scheduler, context(), config);
  config.threads = 4;
  const emu::ReplayReport four =
      replay_city(twitch, scheduler, context(), config);
  ASSERT_EQ(one.clusters.size(), four.clusters.size());
  EXPECT_EQ(one.energy_with_mwh, four.energy_with_mwh);
  EXPECT_EQ(one.energy_without_mwh, four.energy_without_mwh);
  EXPECT_EQ(one.total_served_slots, four.total_served_slots);
}

TEST(BatchScheduler, FleetDailyLifeIdenticalAcrossThreadCounts) {
  emu::DailyLifeConfig config;
  config.users = 12;
  config.days = 1;
  config.seed = 5;
  const LpvsScheduler scheduler;
  const RunContext context(anxiety());
  emu::FleetEdgeConfig edge;
  edge.edge_servers = 3;

  edge.threads = 1;
  const auto one =
      emu::simulate_daily_life_fleet(config, edge, scheduler, context);
  edge.threads = 8;
  const auto eight =
      emu::simulate_daily_life_fleet(config, edge, scheduler, context);
  EXPECT_EQ(one.life.anxiety_minutes_per_day,
            eight.life.anxiety_minutes_per_day);
  EXPECT_EQ(one.life.mean_viewing_minutes_per_day,
            eight.life.mean_viewing_minutes_per_day);
  EXPECT_EQ(one.admissions, eight.admissions);
  EXPECT_EQ(one.requests, eight.requests);
  EXPECT_GT(one.slot_batches, 0);
  EXPECT_GT(one.requests, 0);
}

}  // namespace
}  // namespace lpvs::core
