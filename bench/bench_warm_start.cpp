// Warm-start ablation on the Fig. 10 replay workload: consecutive-slot
// Phase-1 solves with realistic slot-to-slot deltas (battery drain, gamma
// posterior drift, viewer churn), each stream solved twice by the
// scheduler's branch-and-bound at an exact budget:
//
//   cold  every solve seeded by the density greedy, root LP from scratch;
//   warm  through solver::SolveCache: the previous slot's assignment
//         repaired into the B&B incumbent, and the previous slot's root
//         basis (BasisHint) seeding the root relaxation's dual re-solve.
//
// Gates (the bench exits non-zero unless both hold):
//   - cold and warm objectives are bit-identical on every slot — at gap 0
//     the cache may change pruning and pivots, never the value;
//   - over the whole sweep, warm slots/s is at least kMinWarmOverCold of
//     cold slots/s, each leg timed as the best of kReps repetitions.
//
// Capacity is scaled so ~45% of the cluster fits (the binding regime of
// Fig. 8): with loose capacity the root LP is integral and every solve is
// one node, cold or warm — there is nothing to measure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_output.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace {

using namespace lpvs;

core::SlotProblem make_problem(common::Rng& rng, int devices) {
  core::SlotProblem problem;
  problem.lambda = 2000.0;
  // Mean compute cost is 0.55, mean storage 100 MB: admit roughly 45% of
  // the cluster on compute, 60% on storage, so both rows can bind.
  problem.compute_capacity = 0.45 * 0.55 * devices;
  problem.storage_capacity = 0.60 * 100.0 * devices;
  for (int n = 0; n < devices; ++n) {
    core::DeviceSlotInput device;
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

/// Advances the cluster one slot: batteries drain by roughly the slot's
/// playback energy, gamma posteriors drift, per-chunk power rates wobble
/// with the content, and ~2% of viewers churn — the small-delta structure
/// between adjacent windows that warm-starting exploits.
void advance_slot(common::Rng& rng, core::SlotProblem& problem) {
  for (auto& device : problem.devices) {
    double slot_mwh = 0.0;
    for (std::size_t k = 0; k < device.power_rates_mw.size(); ++k) {
      slot_mwh +=
          device.power_rates_mw[k] * device.chunk_durations_s[k] / 3600.0;
    }
    device.initial_energy_mwh = std::max(
        0.0, device.initial_energy_mwh - rng.uniform(0.6, 1.0) * slot_mwh);
    device.gamma =
        std::clamp(device.gamma + rng.uniform(-0.01, 0.01), 0.05, 0.6);
    for (auto& p : device.power_rates_mw) p += rng.uniform(-15.0, 15.0);
  }
  const int churn =
      std::max<int>(1, static_cast<int>(problem.devices.size()) / 50);
  for (int c = 0; c < churn; ++c) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(problem.devices.size()) - 1));
    core::DeviceSlotInput fresh;
    fresh.id = problem.devices[victim].id;
    fresh.power_rates_mw.resize(30);
    fresh.chunk_durations_s.assign(30, 10.0);
    for (auto& p : fresh.power_rates_mw) p = rng.uniform(400.0, 1100.0);
    fresh.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    fresh.initial_energy_mwh =
        fresh.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    fresh.gamma = rng.uniform(0.13, 0.49);
    fresh.compute_cost = rng.uniform(0.3, 0.8);
    fresh.storage_cost = rng.uniform(50.0, 150.0);
    problem.devices[victim] = std::move(fresh);
  }
}

struct LegResult {
  long nodes = 0;
  double wall_ms = 0.0;
  std::vector<double> objectives;
  std::vector<double> slot_ms;  ///< per-slot solve latency

  double slots_per_sec() const {
    return wall_ms > 0.0
               ? 1000.0 * static_cast<double>(slot_ms.size()) / wall_ms
               : 0.0;
  }

  lpvs::common::Json to_json() const {
    lpvs::common::Json leg = lpvs::common::Json::object();
    leg.set("nodes", nodes);
    leg.set("wall_ms", wall_ms);
    leg.set("slots_per_sec", slots_per_sec());
    leg.set("p50_ms", lpvs::bench::percentile(slot_ms, 0.5));
    leg.set("p99_ms", lpvs::bench::percentile(slot_ms, 0.99));
    return leg;
  }
};

}  // namespace

int main() {
  std::printf(
      "=== Warm start: consecutive-slot Phase-1 solves (Fig. 10 workload) "
      "===\n\n");

  constexpr int kSlots = 16;
  constexpr int kReps = 5;
  constexpr double kMinWarmOverCold = 0.9;
  constexpr int kDevices[] = {40, 60, 120};
  common::Table table({"devices", "cold nodes", "warm nodes", "cold ms",
                       "warm ms", "warm/cold slots/s", "warm p99 ms"});
  bool all_pass = true;
  common::Json rows = common::Json::array();
  double cold_ms_total = 0.0;
  double warm_ms_total = 0.0;

  // Exact configuration on both legs: incumbents and basis memory may only
  // change pruning and pivots, so objectives must agree bit-for-bit
  // between the cold and warm legs (asserted per slot).
  solver::BranchAndBoundSolver::Options exact;
  exact.max_nodes = 500'000;
  exact.relative_gap = 0.0;
  const solver::BranchAndBoundSolver solver(exact);

  for (const int devices : kDevices) {
    // The identical slot-problem stream feeds both legs.
    common::Rng rng(42);
    std::vector<core::SlotProblem> slots;
    slots.reserve(kSlots);
    core::SlotProblem problem = make_problem(rng, devices);
    for (int s = 0; s < kSlots; ++s) {
      slots.push_back(problem);
      advance_slot(rng, problem);
    }

    // One pass over the stream; `warm` threads a fresh SolveCache through
    // it.  Node counts and objectives are deterministic, so repetitions
    // differ only in wall time; cold and warm passes alternate so a burst
    // of machine load hits both legs alike, and each leg keeps its fastest.
    long warm_starts = 0;
    auto run_pass = [&](bool warm) {
      solver::SolveCache cache;
      LegResult leg;
      const auto t0 = std::chrono::steady_clock::now();
      for (const core::SlotProblem& slot : slots) {
        const auto s0 = std::chrono::steady_clock::now();
        const solver::BinaryProgram program = core::phase1_program(slot);
        const solver::CachedSolve solved = solver::solve_with_cache(
            solver, program, warm ? &cache : nullptr, /*key=*/1);
        const auto s1 = std::chrono::steady_clock::now();
        leg.nodes += solved.solution.nodes_explored;
        leg.objectives.push_back(solved.solution.objective);
        leg.slot_ms.push_back(
            std::chrono::duration<double, std::milli>(s1 - s0).count());
      }
      const auto t1 = std::chrono::steady_clock::now();
      leg.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (warm) warm_starts = cache.stats().warm_starts;
      return leg;
    };
    LegResult cold = run_pass(false);
    LegResult warm = run_pass(true);
    for (int rep = 1; rep < kReps; ++rep) {
      LegResult next_cold = run_pass(false);
      if (next_cold.wall_ms < cold.wall_ms) cold = std::move(next_cold);
      LegResult next_warm = run_pass(true);
      if (next_warm.wall_ms < warm.wall_ms) warm = std::move(next_warm);
    }
    cold_ms_total += cold.wall_ms;
    warm_ms_total += warm.wall_ms;

    for (int s = 0; s < kSlots; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (cold.objectives[i] != warm.objectives[i]) {
        std::printf(
            "OBJECTIVE MISMATCH (cold vs warm) at %d devices, slot %d: "
            "cold %.17g warm %.17g\n",
            devices, s, cold.objectives[i], warm.objectives[i]);
        all_pass = false;
      }
    }

    const double ratio = warm.slots_per_sec() / cold.slots_per_sec();
    table.add_row({std::to_string(devices), std::to_string(cold.nodes),
                   std::to_string(warm.nodes),
                   common::Table::num(cold.wall_ms, 2),
                   common::Table::num(warm.wall_ms, 2),
                   common::Table::num(ratio, 3),
                   common::Table::num(bench::percentile(warm.slot_ms, 0.99),
                                      3)});

    common::Json row = common::Json::object();
    row.set("devices", devices);
    row.set("slots", kSlots);
    row.set("warm_starts", warm_starts);
    row.set("warm_over_cold_slots_per_sec", ratio);
    row.set("cold", cold.to_json());
    row.set("warm", warm.to_json());
    rows.push(std::move(row));
  }

  // Equal slot counts per leg, so the throughput ratio is the wall ratio.
  const double sweep_ratio = cold_ms_total / warm_ms_total;
  if (sweep_ratio < kMinWarmOverCold) all_pass = false;

  std::printf("%s\n", table.render().c_str());
  std::printf("sweep warm/cold slots/s: %.3f (gate >= %.2f)\n", sweep_ratio,
              kMinWarmOverCold);
  std::printf(
      "acceptance (bit-identical cold/warm objectives; warm/cold slots/s "
      ">= %.2f over the sweep): %s\n",
      kMinWarmOverCold, all_pass ? "PASS" : "FAIL");

  common::Json knobs = common::Json::object();
  knobs.set("seed", 42);
  knobs.set("slots", static_cast<long>(kSlots));
  knobs.set("reps", static_cast<long>(kReps));
  knobs.set("min_warm_over_cold", kMinWarmOverCold);
  common::Json device_sweep = common::Json::array();
  for (const int devices : kDevices) device_sweep.push(devices);
  knobs.set("devices", std::move(device_sweep));

  const bool wrote = lpvs::bench::write_bench_json(
      "warm_start",
      lpvs::bench::bench_doc("warm_start", all_pass, std::move(knobs),
                             std::move(rows)));
  return all_pass && wrote ? 0 : 1;
}
