#include "lpvs/core/batch_scheduler.hpp"

#include <cassert>
#include <unordered_set>

namespace lpvs::core {

BatchScheduler::BatchScheduler(Options options) : options_(options) {
  if (options_.threads != 1) {
    pool_ = std::make_unique<common::ThreadPool>(options_.threads);
  }
}

std::vector<Schedule> BatchScheduler::schedule_batch(
    const std::vector<BatchItem>& items, const Scheduler& scheduler,
    const RunContext& context) {
#ifndef NDEBUG
  // Duplicate keys inside one batch would race on the same cache entry
  // and break the any-thread-count determinism guarantee.
  std::unordered_set<std::uint64_t> keys;
  for (const BatchItem& item : items) {
    assert(keys.insert(item.stream_key).second &&
           "BatchScheduler: stream keys must be unique within a batch");
  }
#endif

  obs::Histogram* shard_ms_hist = nullptr;
  if (context.metrics != nullptr) {
    shard_ms_hist = &context.metrics->histogram(
        "lpvs_batch_shard_ms", obs::MetricsRegistry::time_buckets_ms(),
        "Wall-clock time of one cluster shard's slot solve");
  }

  std::vector<Schedule> results(items.size());
  auto run_one = [&](std::size_t i) {
    const obs::ScopedTimer timer(shard_ms_hist);
    const RunContext shard_context =
        context.with_solve_cache(&cache_, items[i].stream_key);
    results[i] = scheduler.schedule(items[i].problem, shard_context);
  };

  if (pool_ == nullptr || items.size() <= 1) {
    for (std::size_t i = 0; i < items.size(); ++i) run_one(i);
  } else {
    common::parallel_for(*pool_, items.size(), run_one);
  }

  if (context.metrics != nullptr) {
    context.metrics
        ->counter("lpvs_batch_batches_total", "Fleet batches scheduled")
        .add(1);
    context.metrics
        ->counter("lpvs_batch_items_total",
                  "Cluster problems solved across all batches")
        .add(static_cast<long>(items.size()));
  }
  return results;
}

}  // namespace lpvs::core
