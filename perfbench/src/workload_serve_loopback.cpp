// serve_loopback: EdgeServerDaemon on its default backend, driven over
// loopback by loadgen::run_load.
//
// Each operation is one run_load fleet: kClusters clusters of kMembers
// sessions, each session playing kSlots slots.  Within a cluster the load
// is a closed loop (every member waits for its SCHEDULE before its next
// REPORT) and each load-generator thread carries one cluster at a time.
// The clusters' ILPs solve in presolve, so this workload exercises the
// wire, decode, the barrier, encode and flush rather than the solver.
//
// A round is kFleets fleets, each drawn from its own seed.  Set-up runs
// every fleet once at 1 worker and 1 client thread, with the wrapper
// checking each schedule, and keeps the per-user payload digests as the
// reference.  Checks: every session ends with an orderly BYE and no
// transport or protocol error, both daemons drain without a forced close,
// and every timed fleet's digests equal its reference.
//
// Sessions run 200 slots without give-up, so connection set-up and
// teardown stay a small part of a fleet; many batteries run empty along
// the way, which the saving ratios of this workload average over.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/server/server.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kClusters = 8;
constexpr std::uint32_t kMembers = 8;
constexpr std::uint32_t kSlots = 200;
constexpr std::uint32_t kFleets = 8;
constexpr std::uint64_t kServerSalt = 0x5e77e;
constexpr std::uint64_t kFleetSalt = 0xf1ee7;

std::uint64_t digest_of(const std::map<std::uint64_t, std::uint64_t>& users) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [user, digest] : users) {
    for (const std::uint64_t word : {user, digest}) {
      h ^= word;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

class ServeLoopback : public Workload {
 public:
  explicit ServeLoopback(BenchContext& bench) : bench_(bench) {
    // The dispatcher and one worker reactor, plus the load generator's
    // threads, fill the machine.
    client_threads_ = std::max(1u, bench_.options.threads - 2);
  }

  void setup() override {
    anxiety_ = std::make_unique<lpvs::survey::AnxietyModel>(
        survey_anxiety_model(bench_.options.seed));
    checked_ = std::make_unique<CheckedScheduler>(inner_, bench_.spans);
    run_reference();
    daemon_ = start_daemon(*checked_);
  }

  void teardown() override {
    if (daemon_) daemon_->stop();
    daemon_.reset();
    checked_.reset();
    anxiety_.reset();
  }

  void begin_phase() override {
    checked_->reset();
    stats_at_begin_ = daemon_->stats();
  }

  void run_round(PhaseTally& tally) override {
    for (std::uint32_t fleet = 0; fleet < kFleets; ++fleet) {
      const std::uint64_t op = ++ops_;
      lpvs::loadgen::LoadGenReport report;
      const OpClock clock;
      {
        const ScopedSpan span(bench_.spans, "loadgen.run_load", op);
        report = run_fleet(daemon_->port(), fleet, client_threads_);
      }
      tally.add_op(static_cast<double>(report.slots_driven), clock);
      // loadgen reports each fleet's exact p50/p99 over its >= 1000
      // REPORT->SCHEDULE samples; the run reports the median fleet.
      tally.latency_ms.push_back(report.latency_p50_ms);
      tally.op_tail_ms.push_back(report.latency_p99_ms);
      if (report.latency_samples < 1000) {
        bench_.fail("serve_loopback: fewer than 1000 latency samples in a fleet");
      }
      const std::string failed = session_failure(report);
      if (!failed.empty()) {
        ++tally.failed;
        std::fprintf(stderr, "serve_loopback fleet %u: %s\n", fleet,
                     failed.c_str());
      } else {
        tally.outputs.push_back({fleet, digest_of(report.digests)});
      }
    }
  }

  void verify(PhaseTally& tally) override {
    if (!daemon_->drain(20000).ok()) bench_.fail("serve_loopback: drain timed out");
    check_daemon_clean(daemon_->stats(), "timed daemon");
    for (const auto& [fleet, digest] : tally.outputs) {
      if (digest != expected_[fleet] || checks_failed_[fleet]) {
        ++tally.failed;
        std::fprintf(stderr, "serve_loopback fleet %zu: payload digest differs "
                     "from the 1-worker reference or fails its checks\n",
                     fleet);
      }
    }
  }

  double tail_q() const override { return 0.99; }
  bool one_cpu() const override { return true; }

  void end_to_end(Metrics& out) override {
    schedule_quality_metrics(*checked_, out);
  }

  void per_layer(const PhaseTally& traced, Metrics& out) override {
    core_layer_metrics(*checked_, traced.busy_s, out);
    const lpvs::server::ServerStats now = daemon_->stats();
    const lpvs::server::ServerStats& was = stats_at_begin_;
    const double slots = std::max(1.0, static_cast<double>(now.slots_scheduled -
                                                           was.slots_scheduled));
    const auto per_slot = [&](long a, long b) {
      return static_cast<double>(a - b) / slots;
    };
    out["server.syscalls_per_slot"] = {per_slot(now.io_syscalls, was.io_syscalls),
                                       "count"};
    out["server.read_syscalls_per_slot"] = {
        per_slot(now.io_read_syscalls, was.io_read_syscalls), "count"};
    out["server.write_syscalls_per_slot"] = {
        per_slot(now.io_write_syscalls, was.io_write_syscalls), "count"};
    out["server.uring_enters_per_slot"] = {
        per_slot(now.io_uring_enters, was.io_uring_enters), "count"};
    const double flushes =
        std::max(1.0, static_cast<double>(now.io_flushes - was.io_flushes));
    out["server.ops_per_flush"] = {
        static_cast<double>(now.io_submissions - was.io_submissions) / flushes,
        "count"};
    // What core.schedule does not explain of the median request: loopback,
    // wakeup, the barrier, slot assembly and encode.
    out["server.unattributed_ms.p50"] = {
        summarize(traced.latency_ms).p50 - out["core.schedule_ms.p50"].value,
        "ms"};
  }

 private:
  /// A daemon with the default configuration: one worker reactor on the
  /// default backend.
  std::unique_ptr<lpvs::server::EdgeServerDaemon> start_daemon(
      const lpvs::core::Scheduler& scheduler) {
    const lpvs::server::ServerConfig config =
        lpvs::server::ServerConfig().with_seed(
            derive_seed(bench_.options.seed, kServerSalt));
    auto daemon = std::make_unique<lpvs::server::EdgeServerDaemon>(
        config, scheduler, lpvs::core::RunContext(*anxiety_));
    const lpvs::common::Status status = daemon->start();
    if (!status.ok()) {
      throw std::runtime_error("daemon did not start: " + status.to_string());
    }
    return daemon;
  }

  /// Every fleet at 1 worker and 1 client thread, every schedule checked:
  /// the digests the timed fleets must reproduce.
  void run_reference() {
    CheckedScheduler reference(inner_, bench_.spans);
    reference.set_checking(true);
    std::unique_ptr<lpvs::server::EdgeServerDaemon> daemon =
        start_daemon(reference);
    expected_.assign(kFleets, 0);
    checks_failed_.assign(kFleets, false);
    for (std::uint32_t fleet = 0; fleet < kFleets; ++fleet) {
      const long before = reference.totals().check_failures;
      const lpvs::loadgen::LoadGenReport report =
          run_fleet(daemon->port(), fleet, 1);
      const std::string failed = session_failure(report);
      if (!failed.empty()) bench_.fail("serve_loopback reference: " + failed);
      expected_[fleet] = digest_of(report.digests);
      checks_failed_[fleet] = reference.totals().check_failures > before;
    }
    if (!daemon->drain(20000).ok()) bench_.fail("serve_loopback reference drain");
    check_daemon_clean(daemon->stats(), "reference daemon");
    if (reference.totals().check_failures > 0) {
      std::fprintf(stderr, "serve_loopback: schedule check failed: %s\n",
                   reference.first_failure().c_str());
    }
  }

  lpvs::loadgen::LoadGenReport run_fleet(std::uint16_t port,
                                         std::uint32_t fleet,
                                         std::uint32_t threads) const {
    lpvs::loadgen::LoadGenConfig config;
    config.port = port;
    config.clusters = kClusters;
    config.cluster_size = kMembers;
    config.slots = kSlots;
    config.threads = threads;
    config.seed = derive_seed(bench_.options.seed, kFleetSalt + fleet);
    lpvs::common::StatusOr<lpvs::loadgen::LoadGenReport> report =
        lpvs::loadgen::run_load(config);
    if (!report.ok()) {
      throw std::runtime_error("run_load: " + report.status().to_string());
    }
    return std::move(report).value();
  }

  static std::string session_failure(const lpvs::loadgen::LoadGenReport& r) {
    const long sessions = static_cast<long>(kClusters * kMembers);
    char text[200];
    if (r.sessions != sessions || r.completed != sessions ||
        r.transport_errors != 0 || r.protocol_errors != 0 ||
        r.slots_driven != sessions * static_cast<long>(kSlots)) {
      std::snprintf(text, sizeof text,
                    "sessions %ld completed %ld transport errors %ld protocol "
                    "errors %ld slots %ld",
                    r.sessions, r.completed, r.transport_errors,
                    r.protocol_errors, r.slots_driven);
      return text;
    }
    return {};
  }

  void check_daemon_clean(const lpvs::server::ServerStats& stats,
                          const char* which) {
    if (stats.forced_closes != 0 || stats.decode_errors != 0 ||
        stats.protocol_errors != 0 || stats.backpressure_closes != 0 ||
        stats.admission_rejects != 0) {
      bench_.fail(std::string("serve_loopback: ") + which +
                  " had forced closes or protocol errors");
    }
  }

  BenchContext& bench_;
  std::uint32_t client_threads_ = 1;
  const lpvs::core::LpvsScheduler inner_;
  std::unique_ptr<lpvs::survey::AnxietyModel> anxiety_;
  std::unique_ptr<CheckedScheduler> checked_;
  std::unique_ptr<lpvs::server::EdgeServerDaemon> daemon_;
  lpvs::server::ServerStats stats_at_begin_;
  std::uint64_t ops_ = 0;
  std::vector<std::uint64_t> expected_;
  /// Fleets whose reference schedules failed a check; every timed run of
  /// such a fleet carries the same payloads and fails with it.
  std::vector<bool> checks_failed_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_loopback(BenchContext& bench) {
  return std::make_unique<ServeLoopback>(bench);
}

}  // namespace perfbench
