// Sharded, warm-started fleet solving (scaling extension).
//
// A deployment schedules many virtual clusters at every slot boundary.
// BatchScheduler turns that into one call: it shards N independent
// SlotProblems across a ThreadPool, hands every shard a RunContext view
// bound to a shared solver::SolveCache under the shard's stream key, and
// returns the schedules in input order.  Submitting the next slot's batch
// with the same stream keys warm-starts every cluster's ILP from its
// previous assignment.
//
// Determinism: results land in pre-assigned slots and each shard's solve
// depends only on its own problem plus its own stream's cache entry, so
// any thread count produces identical schedules for the same batch
// sequence — provided stream keys are unique within a batch (asserted).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lpvs/common/thread_pool.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::core {

/// One cluster's slot problem plus the key identifying its problem stream
/// across consecutive batches (e.g. the session or edge-server id).
struct BatchItem {
  std::uint64_t stream_key = 0;
  SlotProblem problem;
};

class BatchScheduler {
 public:
  struct Options {
    /// Worker threads for the shard fan-out; 0 = hardware concurrency,
    /// 1 = run inline on the caller's thread.
    unsigned threads = 0;
  };

  BatchScheduler() : BatchScheduler(Options{}) {}
  explicit BatchScheduler(Options options);

  /// Solves every item with `scheduler`; result i corresponds to items[i].
  /// With a registry in `context`, per-shard wall times land in
  /// lpvs_batch_shard_ms and batch totals in lpvs_batch_* counters.
  std::vector<Schedule> schedule_batch(const std::vector<BatchItem>& items,
                                       const Scheduler& scheduler,
                                       const RunContext& context);

  /// The cross-batch warm-start cache (hit/seed counts for benches/tests).
  const solver::SolveCache& cache() const { return cache_; }
  void clear_cache() { cache_.clear(); }

  const Options& options() const { return options_; }

 private:
  Options options_;
  solver::SolveCache cache_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace lpvs::core
