// Span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each layer of the program; nothing inside the library is instrumented.
// Each span holds its name, start, end, the span that caused it and the id
// of the operation (request / slot / day) it belongs to.  Spans stay in
// memory until the run ends, then go out as JSONL.  Each thread appends to
// a buffer of its own, so recording takes no lock; the buffers are read
// only after the traced phase, when the library's threads are done.
//
// Parentage: a span's parent is the innermost open span on the same
// thread; a span opened on a thread with no open span (a library worker
// calling back into the benchmark's scheduler wrapper) is parented to the
// operation span that the main thread has marked as the current root.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();
/// CPU time consumed so far by every thread of this process, user and
/// kernel.  The guest kernel leaves out the time its vCPUs were stolen by
/// the host, and a thread blocked on a wake-up uses none.
std::int64_t process_cpu_ns();

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  std::uint64_t op = 0;      ///< operation id shared by the op's spans
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over the recorded spans.
struct LayerTime {
  long spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< duration minus the union of its children
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every recorded span by start time; call only once no thread records.
  std::vector<Span> spans() const;
  std::size_t size() const { return spans().size(); }
  /// Self time per span name, computed over every recorded span.
  std::map<std::string, LayerTime> layer_times() const;
  /// One JSON object per line per span (with its self time), then one per
  /// layer.  False when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class ScopedSpan;
  std::uint64_t open(std::uint64_t& parent, std::uint64_t& op);
  void close(const Span& span);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> root_id_{0};
  std::atomic<std::uint64_t> root_op_{0};
  mutable std::mutex mutex_;
  /// One buffer per recording thread.  The vector is guarded by mutex_;
  /// each buffer's contents belong to its thread while recording runs.
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span.  Does nothing when the recorder is disabled.  `op` != 0 makes
/// this span the current root: spans that library worker threads open
/// while it is alive are parented to it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  Span span_;
  bool active_ = false;
  bool is_root_ = false;
};

}  // namespace perfbench
