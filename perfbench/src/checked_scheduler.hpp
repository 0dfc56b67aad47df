// The benchmark's scheduler wrapper.
//
// Every workload hands the program a CheckedScheduler in place of the
// core::LpvsScheduler it wraps.  The wrapper only forwards calls, so every
// schedule and payload is exactly what the wrapped scheduler computes; on
// the side it counts calls, devices and Phase-2 moves, and accumulates the
// schedules' own saving ratios.  With the span recorder on it also times
// each call (a `core.schedule` span).  With checking on it verifies every
// schedule it forwards against the slot problem, by an evaluation of its
// own (check_schedule below), and counts the violations.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "spans.hpp"

namespace perfbench {

/// Relative tolerance of the independent checks.
inline constexpr double kCheckRelTol = 1e-6;

/// Checks `schedule` against `problem` without calling the program's own
/// evaluation: capacity use is summed from the device costs and must match
/// the schedule's figures and fit both capacity rows; objective (13) is
/// recomputed chunk by chunk from (3), (5) and phi, must match the
/// schedule's objective, and must be no worse than the x = 0 schedule.
/// Returns an empty string when every check holds, else what failed.
std::string check_schedule(const lpvs::core::SlotProblem& problem,
                           const lpvs::survey::AnxietyModel& anxiety,
                           const lpvs::core::Schedule& schedule);

class CheckedScheduler : public lpvs::core::Scheduler {
 public:
  struct Totals {
    long calls = 0;
    long devices = 0;
    long phase2_swaps = 0;
    long phase2_additions = 0;
    long ilp_nodes = 0;
    long check_failures = 0;
    double energy_saving_ratio_sum = 0.0;
    double anxiety_reduction_ratio_sum = 0.0;
    double schedule_ms_sum = 0.0;  ///< only while spans are recorded
  };

  CheckedScheduler(const lpvs::core::Scheduler& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  lpvs::core::Schedule schedule(
      const lpvs::core::SlotProblem& problem,
      const lpvs::core::RunContext& context) const override;

  void set_checking(bool on) { checking_.store(on); }
  Totals totals() const;
  /// Per-call wall times recorded while spans were on, milliseconds.
  std::vector<double> call_ms() const;
  /// The first check failure seen, for the log; empty when none.
  std::string first_failure() const;
  void reset();

 private:
  const lpvs::core::Scheduler& inner_;
  SpanRecorder& spans_;
  std::atomic<bool> checking_{false};
  mutable std::mutex mutex_;
  mutable Totals totals_;                  ///< guarded by mutex_
  mutable std::vector<double> call_ms_;    ///< guarded by mutex_
  mutable std::string first_failure_;      ///< guarded by mutex_
};

}  // namespace perfbench
