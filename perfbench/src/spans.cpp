#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

thread_local std::vector<std::uint64_t> open_spans;  // ids, innermost last
thread_local std::uint64_t open_op = 0;
thread_local std::vector<Span>* span_buffer = nullptr;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [start, end] : iv) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

struct Derived {
  std::vector<std::int64_t> self_ns;  // parallel to the span vector
};

Derived derive(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it == index.end()) continue;
    children[it->second].emplace_back(span.start_ns, span.end_ns);
  }
  Derived derived;
  derived.self_ns.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    derived.self_ns[i] =
        (span.end_ns - span.start_ns) -
        covered_ns(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return derived;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t SpanRecorder::open(std::uint64_t& parent, std::uint64_t& op) {
  if (!open_spans.empty()) {
    parent = open_spans.back();
    op = open_op;
  } else {
    parent = root_id_.load(std::memory_order_acquire);
    op = root_op_.load(std::memory_order_acquire);
  }
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open_spans.push_back(id);
  open_op = op;
  return id;
}

void SpanRecorder::close(const Span& span) {
  open_spans.pop_back();
  if (open_spans.empty()) open_op = 0;
  if (span_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    span_buffer = buffers_.back().get();
  }
  span_buffer->push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::map<std::string, LayerTime> SpanRecorder::layer_times() const {
  const std::vector<Span> all = spans();
  const Derived derived = derive(all);
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < all.size(); ++i) {
    LayerTime& layer = layers[all[i].name];
    ++layer.spans;
    layer.total_ms +=
        static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e6;
    layer.self_ms += static_cast<double>(derived.self_ns[i]) / 1e6;
  }
  return layers;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  {
    const std::vector<Span> all = spans();
    const Derived derived = derive(all);
    const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"thread\":%u,\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"self_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.thread,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - origin) / 1e3,
                   static_cast<double>(derived.self_ns[i]) / 1e3);
    }
  }
  for (const auto& [name, layer] : layer_times()) {
    std::fprintf(out,
                 "{\"layer\":\"%s\",\"spans\":%ld,\"total_ms\":%.6f,"
                 "\"self_ms\":%.6f}\n",
                 name.c_str(), layer.spans, layer.total_ms, layer.self_ms);
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name,
                       std::uint64_t op)
    : recorder_(recorder) {
  if (!recorder_.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.thread = thread_index();
  span_.id = recorder_.open(span_.parent, span_.op);
  if (op != 0) {
    span_.op = op;
    open_op = op;
    is_root_ = true;
    recorder_.root_op_.store(op, std::memory_order_release);
    recorder_.root_id_.store(span_.id, std::memory_order_release);
  }
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  if (is_root_) {
    recorder_.root_id_.store(0, std::memory_order_release);
    recorder_.root_op_.store(0, std::memory_order_release);
  }
  recorder_.close(span_);
}

}  // namespace perfbench
