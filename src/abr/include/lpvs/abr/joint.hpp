// Joint ABR x energy scheduling: bitrate rungs as first-class variables of
// the slot ILP, co-optimized with the display transform.
//
// The paper's Phase-1 program decides one binary per device (transform on
// or off).  This module widens each device's decision to a *menu*: every
// admissible (transform, rung) pair becomes one binary variable z_{n,t,m},
// with the pair (t=0, m=0) — untransformed, lowest rung — as the implicit
// baseline that choosing nothing falls back to.  The encoding is a
// multiple-choice knapsack, which fits solver::BinaryProgram's
// non-negative-row `A z <= b` contract without touching the solvers:
//
//   rows 0..1   the edge compute/storage capacities (6)(7) — coefficients
//               are the device's transform costs on t=1 entries, 0 on t=0
//   row  2      a shared receive-energy budget: each entry costs its rung's
//               *incremental* receive+decode energy over rung 0 (>= 0 for
//               an ascending ladder), summed across the cluster
//   rows 3..    one-decision-per-user rows: sum of a device's menu <= 1
//
// Per-device feasibility — battery affordability of the rung, throughput
// admissibility given the reported buffer, the transform's compacted
// constraint (11), a QoE floor on the granted utility — is enforced the
// same way (11) already is in Phase-1: as *menu eligibility*, entries that
// fail are simply never created.  Because the result is a plain
// BinaryProgram, the exhaustive enumerator and the test-only dense-LP
// oracle B&B remain ground truth for the joint solves, and the
// differential harness extends to rung variables unchanged.
//
// The objective of entry (n, t, m), relative to the baseline:
//
//   c = t * [J_n(x=0) - J_n(x=1)]            the transform's (13) benefit
//     + qoe_weight * v(m)                    log utility of the rung
//     - receive_energy_weight * dE_rx(m)     energy price of the rung
//
// so the solver trades panel savings, rung quality, and receive energy in
// one maximization — the EVSO/QoMEX coupling priced into the paper's ILP.
#pragma once

#include <cstdint>
#include <vector>

#include "lpvs/abr/ladder.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::abr {

/// Client-reported streaming state for one device — what the v2 REPORT
/// frame carries (buffer level, throughput estimate).
struct DeviceStreamState {
  double buffer_s = 0.0;
  double throughput_mbps = 0.0;
};

/// One slot's joint problem: the display-side slot problem plus per-device
/// streaming state and the ladder/budget/QoE knobs.
struct JointSlotProblem {
  /// Display-side inputs: devices, capacities, lambda.
  core::SlotProblem base;
  /// Parallel to base.devices.
  std::vector<DeviceStreamState> streams;

  LadderModel ladder;
  /// Cluster-wide incremental receive-energy allowance per slot, mWh
  /// (spent by granting rungs above 0).  Large = effectively unbounded.
  double receive_budget_mwh = 1.0e18;
  /// Objective weight on the granted rung's log utility.
  double qoe_weight = 3000.0;
  /// Objective price per mWh of incremental receive energy.
  double receive_energy_weight = 30.0;
  /// Minimum utility an above-baseline grant must deliver; <= 0 admits all.
  double qoe_floor = 0.0;
  /// Throughput admissibility: rung m is grantable when
  ///   r_m <= safety * throughput * (1 + buffer_s / slot_seconds),
  /// i.e. the download overshoot the buffer can absorb.  Rung 0 is always
  /// grantable (it is the baseline the client can fall back to).
  double throughput_safety = 0.9;
};

/// The compiled program plus the column -> (device, transform, rung) map
/// needed to read a solution back.
struct JointProgram {
  struct Entry {
    std::size_t device = 0;
    std::uint8_t transform = 0;
    std::size_t rung = 0;
  };

  solver::BinaryProgram program;
  std::vector<Entry> entries;  ///< entries[j] describes column j
  std::size_t device_count = 0;
};

/// Compiles the joint problem into a BinaryProgram (see the file comment
/// for the encoding).  Deterministic: columns are ordered by (device,
/// transform, rung).
JointProgram build_joint_program(const JointSlotProblem& problem,
                                 const survey::AnxietyModel& anxiety);

/// A solution mapped back to per-device decisions.  Devices whose menu
/// selected nothing take the baseline (untransformed, rung 0).
struct JointSelection {
  std::vector<int> transform;     ///< x_n per device
  std::vector<std::size_t> rung;  ///< granted ladder rung per device
};

JointSelection decode_selection(const JointProgram& joint,
                                const std::vector<int>& x);

/// A joint schedule: the display-side scoring (energy/anxiety/objective of
/// the transform selection) plus the rung grants and their accounting.
struct JointSchedule {
  core::Schedule display;
  std::vector<std::size_t> rung;       ///< per device
  std::vector<double> rung_mbps;       ///< ladder bitrate per device
  double receive_energy_mwh = 0.0;     ///< total rx+decode energy granted
  double incremental_rx_mwh = 0.0;     ///< spent from receive_budget_mwh
  double qoe_utility_sum = 0.0;        ///< sum of granted log utilities
  long ilp_nodes = 0;
};

/// Solves the joint program with branch-and-bound and scores the result.
/// Honors the context's solve cache (warm starts across consecutive slots)
/// exactly like the Phase-1 schedulers; deterministic for a given
/// (problem, options) at any thread count.
class JointAbrScheduler {
 public:
  JointAbrScheduler() : JointAbrScheduler(core::scheduler_ilp_defaults()) {}
  explicit JointAbrScheduler(solver::BranchAndBoundSolver::Options options)
      : options_(options) {}

  JointSchedule schedule(const JointSlotProblem& problem,
                         const core::RunContext& context) const;

 private:
  solver::BranchAndBoundSolver::Options options_;
};

}  // namespace lpvs::abr
