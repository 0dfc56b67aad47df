#include "checked_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

using lpvs::core::DeviceSlotInput;

bool close_enough(double expected, double actual) {
  return std::fabs(expected - actual) <=
         kCheckRelTol * std::max(1.0, std::fabs(expected));
}

/// One device's term of objective (13), chunk by chunk: psi from (3) (the
/// transform removes a gamma share of the power), the energy status from
/// (5) floored at empty, and phi read at the status before each chunk.
double device_objective(const DeviceSlotInput& device, bool transformed,
                        double lambda,
                        const lpvs::survey::AnxietyModel& anxiety) {
  double energy = device.initial_energy_mwh;
  double objective = 0.0;
  for (std::size_t k = 0; k < device.power_rates_mw.size(); ++k) {
    const double psi = transformed
                           ? device.power_rates_mw[k] * (1.0 - device.gamma)
                           : device.power_rates_mw[k];
    objective += psi + lambda * anxiety(std::max(energy, 0.0) /
                                        device.battery_capacity_mwh);
    energy = std::max(energy - psi * device.chunk_durations_s[k] / 3600.0,
                      0.0);
  }
  return objective;
}

std::string failure(const char* what, double expected, double actual) {
  char text[160];
  std::snprintf(text, sizeof text, "%s: expected %.12g, schedule has %.12g",
                what, expected, actual);
  return text;
}

}  // namespace

std::string check_schedule(const lpvs::core::SlotProblem& problem,
                           const lpvs::survey::AnxietyModel& anxiety,
                           const lpvs::core::Schedule& schedule) {
  if (schedule.x.size() != problem.devices.size()) {
    return failure("selection size", static_cast<double>(problem.devices.size()),
                   static_cast<double>(schedule.x.size()));
  }
  double compute = 0.0;
  double storage = 0.0;
  double objective = 0.0;
  double baseline = 0.0;
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    const DeviceSlotInput& device = problem.devices[n];
    const int x = schedule.x[n];
    if (x != 0 && x != 1) return failure("binary selection", 1.0, x);
    if (x == 1) {
      compute += device.compute_cost;
      storage += device.storage_cost;
    }
    const double lambda = problem.lambda * device.sla_weight;
    objective += device_objective(device, x == 1, lambda, anxiety);
    baseline += device_objective(device, false, lambda, anxiety);
  }
  if (!close_enough(compute, schedule.compute_used)) {
    return failure("compute used", compute, schedule.compute_used);
  }
  if (!close_enough(storage, schedule.storage_used)) {
    return failure("storage used", storage, schedule.storage_used);
  }
  if (compute > problem.compute_capacity * (1.0 + 1e-9) + 1e-9) {
    return failure("compute capacity", problem.compute_capacity, compute);
  }
  if (storage > problem.storage_capacity * (1.0 + 1e-9) + 1e-9) {
    return failure("storage capacity", problem.storage_capacity, storage);
  }
  if (!close_enough(objective, schedule.objective)) {
    return failure("objective (13)", objective, schedule.objective);
  }
  if (objective > baseline + kCheckRelTol * std::max(1.0, std::fabs(baseline))) {
    return failure("objective no worse than x = 0", baseline, objective);
  }
  return {};
}

lpvs::core::Schedule CheckedScheduler::schedule(
    const lpvs::core::SlotProblem& problem,
    const lpvs::core::RunContext& context) const {
  lpvs::core::Schedule result;
  double elapsed_ms = -1.0;
  if (spans_.enabled()) {
    const std::int64_t start = now_ns();
    {
      const ScopedSpan span(spans_, "core.schedule");
      result = inner_.schedule(problem, context);
    }
    elapsed_ms = static_cast<double>(now_ns() - start) / 1e6;
  } else {
    result = inner_.schedule(problem, context);
  }

  std::string failed;
  if (checking_.load(std::memory_order_relaxed)) {
    failed = check_schedule(problem, context.anxiety_model(), result);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.calls;
  totals_.devices += static_cast<long>(problem.devices.size());
  totals_.phase2_swaps += result.phase2_swaps;
  totals_.phase2_additions += result.phase2_additions;
  totals_.ilp_nodes += result.ilp_nodes;
  totals_.energy_saving_ratio_sum += result.energy_saving_ratio();
  totals_.anxiety_reduction_ratio_sum += result.anxiety_reduction_ratio();
  if (elapsed_ms >= 0.0) {
    totals_.schedule_ms_sum += elapsed_ms;
    call_ms_.push_back(elapsed_ms);
  }
  if (!failed.empty()) {
    ++totals_.check_failures;
    if (first_failure_.empty()) first_failure_ = failed;
  }
  return result;
}

CheckedScheduler::Totals CheckedScheduler::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

std::vector<double> CheckedScheduler::call_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return call_ms_;
}

std::string CheckedScheduler::first_failure() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return first_failure_;
}

void CheckedScheduler::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_ = Totals{};
  call_ms_.clear();
  first_failure_.clear();
}

}  // namespace perfbench
