// The interface between the benchmark's main loop (main.cpp) and its four
// workloads, plus what they share: metrics, per-phase tallies and the seed
// derivation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checked_scheduler.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "spans.hpp"
#include "tail.hpp"

namespace perfbench {

/// Derives an independent 64-bit stream seed from the run seed and a salt
/// (a splitmix64 finalizer), so every input a workload generates is a pure
/// function of --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The anxiety model phi the way the paper builds it (SIII-B): a
/// paper-sized synthetic survey population drawn from `seed`, binned by the
/// four-step LBA-curve extraction.  Part of every workload's set-up.
lpvs::survey::AnxietyModel survey_anxiety_model(std::uint64_t seed);

/// Runs `fn` with the calling thread allowed on every CPU the process
/// started with, when a workload's one_cpu() pinned the run, and pins it
/// back afterwards.  Threads that `fn` starts inherit the wider set.
void on_all_cpus(const std::function<void()>& fn);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Both clocks of one operation, read when it starts.
struct OpClock {
  std::int64_t wall_ns = now_ns();
  std::int64_t cpu_ns = process_cpu_ns();

  double wall_s() const { return static_cast<double>(now_ns() - wall_ns) / 1e9; }
  double cpu_s() const {
    return static_cast<double>(process_cpu_ns() - cpu_ns) / 1e9;
  }
};

/// Tallies of one measured phase.  `busy_s` and `cpu_s` sum the timed
/// intervals only (checks and bookkeeping between operations are outside
/// them).
struct PhaseTally {
  long attempted = 0;
  long failed = 0;
  double device_slots = 0.0;
  double busy_s = 0.0;
  /// CPU time of the whole process (every library and benchmark thread)
  /// over the timed intervals.
  double cpu_s = 0.0;
  /// Device-slots per wall second of each operation; their median is the
  /// phase's e2e.device_slots_per_s, so one stalled operation cannot move
  /// it.
  std::vector<double> op_rate;
  /// The workload's latency samples, milliseconds.
  std::vector<double> latency_ms;
  /// Per-operation tail values, when the operation reports its own tail
  /// (the load generator's per-fleet p99); their median is the tail.
  std::vector<double> op_tail_ms;
  /// CPU seconds of each calibration run between rounds (main.cpp).
  std::vector<double> calibration_s;
  /// What each operation produced, for verify(): the index of its input
  /// within the round and a digest of its output.
  std::vector<std::pair<std::size_t, std::uint64_t>> outputs;

  /// Counts one timed operation, started at `clock`, that moved `slots`;
  /// returns its wall time in seconds.
  double add_op(double slots, const OpClock& clock) {
    const double seconds = clock.wall_s();
    ++attempted;
    device_slots += slots;
    busy_s += seconds;
    cpu_s += clock.cpu_s();
    if (seconds > 0.0) op_rate.push_back(slots / seconds);
    return seconds;
  }
  double device_slots_per_s() const { return summarize(op_rate).p50; }
  /// Device-slots per CPU-second over whole rounds.  Unlike wall time this
  /// does not count the time the host steals from the vCPUs or the time
  /// a halted vCPU takes to wake for a cross-thread hand-off, so it does
  /// not read the load of other tenants of the host.
  double device_slots_per_cpu_s() const {
    return cpu_s > 0.0 ? device_slots / cpu_s : 0.0;
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< the machine's hardware threads
};

/// Shared state a workload reads and writes while it runs.
struct BenchContext {
  RunOptions options;
  SpanRecorder spans;
  /// False once a check that no single operation owns fails (a dirty
  /// drain, a reference run that disagrees with itself, ...).
  bool correct = true;

  void fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the timed operations need.  Timed as setup_s; the
  /// main loop runs setup/teardown several times and reports the median.
  virtual void setup() = 0;
  virtual void teardown() = 0;

  /// Runs one round: a fixed sequence of operations, timed one by one into
  /// `tally`.  Rounds are whole, so the failed share of a run does not
  /// depend on where the clock stops.
  virtual void run_round(PhaseTally& tally) = 0;

  /// Checks `tally.outputs` against the reference runs and counts the
  /// operations that fail into `tally.failed`; also the checks that belong
  /// to no single operation.  Runs after the timed phases and before the
  /// metrics are read.
  virtual void verify(PhaseTally& tally) = 0;

  /// The highest percentile the latency tail may use (see summarize).
  virtual double tail_q() const = 0;
  /// Fills the workload's quality metrics (energy_saving_pct,
  /// anxiety_reduction_pct) of the untraced phase; main.cpp fills the
  /// rest from the tally.
  virtual void end_to_end(Metrics& out) = 0;
  /// Fills the per-layer metrics this workload exercises, from the traced
  /// phase.
  virtual void per_layer(const PhaseTally& traced, Metrics& out) = 0;

  /// Clears per-phase counters kept inside the workload (wrapper totals,
  /// server stats baselines) before a phase starts.
  virtual void begin_phase() = 0;

  /// True when every thread of the run should share one CPU.  Workloads
  /// whose threads hand work to each other thousands of times a second
  /// say so: on a KVM guest, waking a thread on another vCPU that has
  /// halted costs a host wake-up whose price follows the load of the
  /// host's other tenants, while on one CPU a hand-off is a context switch.
  virtual bool one_cpu() const { return false; }
};

std::unique_ptr<Workload> make_serve_loopback(BenchContext& bench);
std::unique_ptr<Workload> make_schedule_large_vc(BenchContext& bench);
std::unique_ptr<Workload> make_city_replay(BenchContext& bench);
std::unique_ptr<Workload> make_federation_day(BenchContext& bench);

/// Writes the wrapper-derived `core.*` per-layer metrics.
void core_layer_metrics(const CheckedScheduler& scheduler, double wall_s,
                        Metrics& out);
/// Writes energy_saving_pct and anxiety_reduction_pct as the means of the
/// forwarded schedules' own Schedule::energy_saving_ratio() and
/// anxiety_reduction_ratio().
void schedule_quality_metrics(const CheckedScheduler& scheduler, Metrics& out);

}  // namespace perfbench
