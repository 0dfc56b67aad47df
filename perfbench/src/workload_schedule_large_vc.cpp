// schedule_large_vc: consecutive slots of one large virtual cluster (the
// Fig. 10 range) through LpvsScheduler::schedule with a SolveCache, with
// capacity tight enough that both capacity rows bind.  No sockets and no
// emulation: almost all of the time is Phase-1 branch-and-bound and
// Phase-2.
//
// A round is one virtual cluster of kDevices viewers played for
// kSlotsPerRound consecutive slots; between slots batteries drain, gamma
// drifts and ~2% of viewers churn.  Round r's cluster is drawn from
// derive_seed(seed, r), so a run covers many independent clusters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/presolve.hpp"
#include "lpvs/solver/solve_cache.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using lpvs::common::Rng;
using lpvs::core::DeviceSlotInput;
using lpvs::core::SlotProblem;

constexpr int kDevices = 2500;
constexpr int kSlotsPerRound = 4;
constexpr int kChunks = 30;
/// Every kDecomposeEvery-th slot is also solved phase by phase: the
/// Phase-1 bound check (both runs) and the per-phase timings (traced run).
constexpr int kDecomposeEvery = 4;

DeviceSlotInput fresh_device(Rng& rng, std::uint32_t id) {
  DeviceSlotInput device;
  device.id = lpvs::common::DeviceId{id};
  device.power_rates_mw.resize(kChunks);
  device.chunk_durations_s.assign(kChunks, 10.0);
  for (double& p : device.power_rates_mw) p = rng.uniform(400.0, 1100.0);
  device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
  device.initial_energy_mwh =
      device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
  device.gamma = rng.uniform(0.13, 0.49);
  device.compute_cost = rng.uniform(0.3, 0.8);
  device.storage_cost = rng.uniform(50.0, 150.0);
  return device;
}

SlotProblem fresh_cluster(Rng& rng) {
  SlotProblem problem;
  problem.lambda = 2000.0;
  // Mean compute cost 0.55 and storage 100 MB: compute admits ~40% of the
  // cluster and storage ~42%, so both rows bind at the LP optimum.
  problem.compute_capacity = 0.40 * 0.55 * kDevices;
  problem.storage_capacity = 0.42 * 100.0 * kDevices;
  for (int n = 0; n < kDevices; ++n) {
    problem.devices.push_back(fresh_device(rng, static_cast<std::uint32_t>(n)));
  }
  return problem;
}

void advance_slot(Rng& rng, SlotProblem& problem) {
  for (DeviceSlotInput& device : problem.devices) {
    double slot_mwh = 0.0;
    for (std::size_t k = 0; k < device.power_rates_mw.size(); ++k) {
      slot_mwh +=
          device.power_rates_mw[k] * device.chunk_durations_s[k] / 3600.0;
    }
    device.initial_energy_mwh = std::max(
        0.0, device.initial_energy_mwh - rng.uniform(0.6, 1.0) * slot_mwh);
    device.gamma =
        std::clamp(device.gamma + rng.uniform(-0.01, 0.01), 0.05, 0.6);
    for (double& p : device.power_rates_mw) p += rng.uniform(-15.0, 15.0);
  }
  const int churn = std::max(1, kDevices / 50);
  for (int c = 0; c < churn; ++c) {
    const auto victim =
        static_cast<std::size_t>(rng.uniform_int(0, kDevices - 1));
    problem.devices[victim] = fresh_device(rng, problem.devices[victim].id.value);
  }
}

double elapsed_ms(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e6;
}

class ScheduleLargeVc : public Workload {
 public:
  explicit ScheduleLargeVc(BenchContext& bench) : bench_(bench) {}

  void setup() override {
    anxiety_ = std::make_unique<lpvs::survey::AnxietyModel>(
        survey_anxiety_model(bench_.options.seed));
    checked_ = std::make_unique<CheckedScheduler>(inner_, bench_.spans);
  }

  void teardown() override {
    checked_.reset();
    anxiety_.reset();
  }

  void begin_phase() override {
    checked_->reset();
    decomposed_ = {};
    cache_hits_ = 0;
    cache_warm_ = 0;
  }

  void run_round(PhaseTally& tally) override {
    Rng rng(derive_seed(bench_.options.seed, next_round_));
    const std::uint64_t round = next_round_++;
    SlotProblem problem = fresh_cluster(rng);
    lpvs::solver::SolveCache cache;
    const lpvs::core::RunContext base(*anxiety_);
    for (int slot = 0; slot < kSlotsPerRound; ++slot) {
      if (slot > 0) advance_slot(rng, problem);
      const lpvs::core::RunContext context =
          base.with_solve_cache(&cache, round).with_slot(slot);
      const OpClock clock;
      lpvs::core::Schedule schedule;
      {
        const ScopedSpan span(bench_.spans, "bench.slot", round * 64 + slot + 1);
        schedule = checked_->schedule(problem, context);
      }
      const double op_s =
          tally.add_op(static_cast<double>(problem.devices.size()), clock);
      tally.latency_ms.push_back(op_s * 1e3);

      std::string failed = check_schedule(problem, *anxiety_, schedule);
      if (failed.empty() && slot % kDecomposeEvery == 0) {
        failed = decompose(problem, base);
      }
      if (!failed.empty()) {
        ++tally.failed;
        std::fprintf(stderr, "schedule_large_vc round %llu slot %d: %s\n",
                     static_cast<unsigned long long>(round), slot,
                     failed.c_str());
      }
    }
    cache_hits_ += cache.stats().exact_hits;
    cache_warm_ += cache.stats().warm_starts;
  }

  void verify(PhaseTally&) override {}

  double tail_q() const override { return 0.90; }

  void end_to_end(Metrics& out) override {
    schedule_quality_metrics(*checked_, out);
  }

  void per_layer(const PhaseTally& traced, Metrics& out) override {
    core_layer_metrics(*checked_, traced.busy_s, out);
    out["core.program_build_ms.p50"] = {summarize(decomposed_.build_ms).p50, "ms"};
    out["solver.presolve_ms.p50"] = {summarize(decomposed_.presolve_ms).p50, "ms"};
    out["solver.presolve_free_vars"] = {summarize(decomposed_.free_vars).p50,
                                        "count"};
    out["solver.bnb_ms.p50"] = {summarize(decomposed_.bnb_ms).p50, "ms"};
    out["core.phase1_ms.p50"] = {summarize(decomposed_.phase1_ms).p50, "ms"};
    out["core.phase2_ms.p50"] = {summarize(decomposed_.phase2_ms).p50, "ms"};
    out["solver.cache_hits"] = {static_cast<double>(cache_hits_), "count"};
    out["solver.cache_warm_starts"] = {static_cast<double>(cache_warm_), "count"};
    std::printf("phase split of one slot (p50): build %.3f ms, presolve %.3f "
                "ms, B&B %.3f ms, phase-1 %.3f ms, phase-2 %.3f ms over %zu "
                "decomposed slots\n",
                out["core.program_build_ms.p50"].value,
                out["solver.presolve_ms.p50"].value,
                out["solver.bnb_ms.p50"].value,
                out["core.phase1_ms.p50"].value,
                out["core.phase2_ms.p50"].value, decomposed_.bnb_ms.size());
  }

 private:
  struct Decomposed {
    std::vector<double> build_ms, presolve_ms, free_vars, bnb_ms, phase1_ms,
        phase2_ms;
  };

  /// Solves `problem` again phase by phase, cold (no cache), and checks
  /// the Phase-1 value c.x against the greedy value scaled by the solver's
  /// relative gap and the dense LP-relaxation bound.  With spans on, each
  /// phase is timed.
  std::string decompose(const SlotProblem& problem,
                        const lpvs::core::RunContext& base) {
    const bool timed = bench_.spans.enabled();
    const lpvs::solver::BranchAndBoundSolver::Options ilp =
        lpvs::core::scheduler_ilp_defaults();

    std::int64_t start = now_ns();
    lpvs::solver::BinaryProgram program;
    {
      const ScopedSpan span(bench_.spans, "core.program_build");
      program = lpvs::core::phase1_program(problem);
    }
    const double build_ms = elapsed_ms(start);

    start = now_ns();
    const lpvs::core::Schedule phase1 = [&] {
      const ScopedSpan span(bench_.spans, "core.phase1");
      return inner_.schedule_phase1_only(problem, base);
    }();
    const double phase1_ms = elapsed_ms(start);

    double value = 0.0;
    for (std::size_t j = 0; j < program.num_vars(); ++j) {
      value += program.objective[j] * phase1.x[j];
    }
    const double greedy = lpvs::solver::GreedySolver().solve(program).objective;
    lpvs::solver::LpProblem relaxation;
    relaxation.objective = program.objective;
    relaxation.rows = program.rows;
    relaxation.rhs = program.rhs;
    relaxation.upper.resize(program.num_vars());
    for (std::size_t j = 0; j < program.num_vars(); ++j) {
      relaxation.upper[j] = program.is_eligible(j) ? 1.0 : 0.0;
    }
    const lpvs::solver::LpSolution lp = lpvs::solver::LpSolver().solve(relaxation);
    if (!lp.optimal()) return "dense LP relaxation not optimal";
    const double tol = 1e-7 * std::max(1.0, std::fabs(lp.objective));
    char text[200];
    if (value > lp.objective + tol) {
      std::snprintf(text, sizeof text,
                    "phase-1 value %.12g above LP bound %.12g", value,
                    lp.objective);
      return text;
    }
    if (value < greedy * (1.0 - ilp.relative_gap) - tol) {
      std::snprintf(text, sizeof text,
                    "phase-1 value %.12g below greedy %.12g x (1 - gap)",
                    value, greedy);
      return text;
    }
    if (!timed) return {};

    start = now_ns();
    lpvs::solver::PresolveResult presolved;
    {
      const ScopedSpan span(bench_.spans, "solver.presolve");
      presolved = lpvs::solver::presolve_binary_program(program, ilp.tolerance);
    }
    const double presolve_ms = elapsed_ms(start);

    start = now_ns();
    {
      const ScopedSpan span(bench_.spans, "solver.bnb");
      (void)lpvs::solver::BranchAndBoundSolver(ilp).solve(program);
    }
    const double bnb_ms = elapsed_ms(start);

    start = now_ns();
    {
      const ScopedSpan span(bench_.spans, "core.schedule_cold");
      (void)inner_.schedule(problem, base);
    }
    const double full_ms = elapsed_ms(start);

    decomposed_.build_ms.push_back(build_ms);
    decomposed_.presolve_ms.push_back(presolve_ms);
    decomposed_.free_vars.push_back(
        static_cast<double>(presolved.var_map.size()));
    decomposed_.bnb_ms.push_back(bnb_ms);
    decomposed_.phase1_ms.push_back(phase1_ms);
    decomposed_.phase2_ms.push_back(full_ms - phase1_ms);
    return {};
  }

  BenchContext& bench_;
  std::unique_ptr<lpvs::survey::AnxietyModel> anxiety_;
  const lpvs::core::LpvsScheduler inner_;
  std::unique_ptr<CheckedScheduler> checked_;
  std::uint64_t next_round_ = 0;
  Decomposed decomposed_;
  long cache_hits_ = 0;
  long cache_warm_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_schedule_large_vc(BenchContext& bench) {
  return std::make_unique<ScheduleLargeVc>(bench);
}

}  // namespace perfbench
