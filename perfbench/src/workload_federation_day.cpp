// federation_day: a compressed diurnal day of fleet::Federation at 2 serve
// threads — arrivals, autoscaling, server crashes and lossy handoffs —
// streaming its metrics registry to a live CollectorDaemon through a
// TelemetryExporter that slot_hook drives.  The only workload that
// exercises fleet placement, handoff and checkpoint, and obs telemetry.
//
// Each operation is one day of kDaySlots one-minute slots; a round is
// kDays days, each drawn from its own seed.  Set-up runs every day bare
// and serial (1 thread, no registry, no exporter) with the wrapper checking
// each schedule, and keeps its state digest.  Checks per timed day: no
// capacity violation and no lost session.  After the run: exporter drops
// equal the collector's sequence gaps, and each day's state digest is
// compared with its bare serial run.  A digest that differs
// is the known exporter-at-2-threads fault: it is counted in
// fleet.digest_mismatches and logged, but not as a failed operation,
// because it does not happen on every run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/obs/collector.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/obs/telemetry.hpp"
#include "lpvs/trace/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kDaySlots = 360;
constexpr int kDays = 8;
constexpr unsigned kServeThreads = 2;
constexpr std::int64_t kSlotMs = 60'000;
/// One collector window per simulated day keeps the series (and the
/// collector's memory) to one window per operation.
constexpr std::int64_t kDayMs = kDaySlots * kSlotMs;
constexpr std::uint64_t kTraceSalt = 0xda7;
constexpr std::uint64_t kDaySalt = 0xfeed;

class FederationDay : public Workload {
 public:
  explicit FederationDay(BenchContext& bench) : bench_(bench) {}

  void setup() override {
    anxiety_ = std::make_unique<lpvs::survey::AnxietyModel>(
        survey_anxiety_model(bench_.options.seed));
    lpvs::trace::TraceConfig trace_config;
    trace_config.channel_count = 192;
    trace_config.session_count = 1040;
    trace_config.horizon_slots = kDaySlots + 64;
    trace_config.max_duration_slots = 600;
    trace_config.duration_log_mean = 5.8;
    trace_ = std::make_unique<lpvs::trace::Trace>(
        lpvs::trace::TwitchLikeGenerator(trace_config)
            .generate(derive_seed(bench_.options.seed, kTraceSalt)));
    checked_ = std::make_unique<CheckedScheduler>(inner_, bench_.spans);
    run_reference();

    collector_ = std::make_unique<lpvs::obs::CollectorDaemon>(
        lpvs::obs::CollectorConfig{.window_ms = kDayMs});
    require(collector_->start(), "collector start");
    registry_ = std::make_unique<lpvs::obs::MetricsRegistry>();
    lpvs::obs::TelemetryConfig telemetry;
    telemetry.port = collector_->port();
    telemetry.source_label = "perfbench-federation";
    telemetry.ring_capacity = 4096;
    exporter_ =
        std::make_unique<lpvs::obs::TelemetryExporter>(telemetry, *registry_);
    require(exporter_->start(), "exporter start");
  }

  void teardown() override {
    if (exporter_) exporter_->stop();
    if (collector_) collector_->stop();
    exporter_.reset();
    registry_.reset();
    collector_.reset();
    checked_.reset();
    trace_.reset();
    anxiety_.reset();
  }

  void begin_phase() override {
    checked_->reset();
    reports_.clear();
    publish_us_.clear();
    telemetry_at_begin_ = exporter_->stats();
  }

  void run_round(PhaseTally& tally) override {
    for (int day = 0; day < kDays; ++day) {
      const std::uint64_t op = ++ops_;
      lpvs::fleet::FederationReport report;
      const OpClock clock;
      {
        const ScopedSpan span(bench_.spans, "fleet.run", op);
        report = run_day(day, *checked_, tally.latency_ms);
      }
      double user_slots = 0.0;
      for (const lpvs::fleet::ServerReport& server : report.servers) {
        user_slots += static_cast<double>(server.scheduled_users);
      }
      tally.add_op(user_slots, clock);
      // A day whose bare serial run failed a schedule check fails too: it
      // schedules the same slot problems.
      if (report.capacity_violations != 0 || report.sessions_lost != 0 ||
          report.slots_run != kDaySlots ||
          checks_failed_[static_cast<std::size_t>(day)]) {
        ++tally.failed;
        std::fprintf(stderr, "federation_day day %d: %ld capacity violations, "
                     "%ld lost sessions, %d slots, reference checks %s\n", day,
                     report.capacity_violations, report.sessions_lost,
                     report.slots_run,
                     checks_failed_[static_cast<std::size_t>(day)] ? "failed"
                                                                    : "held");
      }
      tally.outputs.push_back({day, report.state_digest});
      reports_.push_back(std::move(report));
    }
  }

  void verify(PhaseTally& tally) override {
    telemetry_at_end_ = exporter_->stats();
    digest_mismatches_ = 0;
    for (const auto& [day, digest] : tally.outputs) {
      if (digest != expected_[day]) ++digest_mismatches_;
    }
    // The timed days share one CPU, where the serve threads rarely overlap;
    // the known fault needs them to run at once.  So one more round runs
    // untimed on every CPU, and its digests are compared too.
    long probe_mismatches = 0;
    on_all_cpus([&] {
      CheckedScheduler probe(inner_, bench_.spans);
      std::vector<double> slot_gaps_ms;
      for (int day = 0; day < kDays; ++day) {
        if (run_day(day, probe, slot_gaps_ms).state_digest != expected_[day]) {
          ++probe_mismatches;
        }
      }
    });
    std::printf("federation days whose state digest differs from the bare "
                "serial run (known exporter-at-2-threads fault): %ld of %zu "
                "timed on one CPU, %ld of %d untimed on every CPU\n",
                digest_mismatches_, tally.outputs.size(), probe_mismatches,
                kDays);
    digest_mismatches_ += probe_mismatches;

    require(exporter_->flush(20'000), "exporter flush");
    const lpvs::obs::TelemetryStats stats = exporter_->stats();
    exporter_->stop();  // the collector drains once its sources hang up
    require(collector_->drain(20'000, stats.sent_frames), "collector drain");
    const lpvs::obs::TelemetrySeries series = collector_->series();
    collector_windows_ = static_cast<long>(series.windows.size());
    if (stats.dropped != series.lost_deltas || series.decode_errors != 0) {
      bench_.fail("federation_day: exporter dropped " +
                  std::to_string(stats.dropped) + " deltas, collector saw " +
                  std::to_string(series.lost_deltas) + " sequence gaps");
    }
  }

  double tail_q() const override { return 0.99; }
  bool one_cpu() const override { return true; }

  void end_to_end(Metrics& out) override {
    schedule_quality_metrics(*checked_, out);
  }

  void per_layer(const PhaseTally& traced, Metrics& out) override {
    core_layer_metrics(*checked_, traced.busy_s, out);
    const double days = std::max<double>(1.0, static_cast<double>(reports_.size()));
    double handoffs = 0, failovers = 0, moves = 0, cold = 0, peak = 0;
    for (const lpvs::fleet::FederationReport& report : reports_) {
      handoffs += static_cast<double>(report.handoffs);
      failovers += static_cast<double>(report.failovers);
      moves += static_cast<double>(report.placement_moves);
      for (const lpvs::fleet::ServerReport& server : report.servers) {
        cold += static_cast<double>(server.cold_restarts);
      }
      peak = std::max(peak, static_cast<double>(report.peak_servers));
    }
    out["fleet.handoffs"] = {handoffs / days, "count"};
    out["fleet.failovers"] = {failovers / days, "count"};
    out["fleet.placement_moves"] = {moves / days, "count"};
    out["fleet.cold_restarts"] = {cold / days, "count"};
    out["fleet.peak_servers"] = {peak, "count"};
    // Scheduler thread-time over the process's CPU time for the days.
    out["fleet.scheduler_share"] = {
        traced.cpu_s > 0.0
            ? checked_->totals().schedule_ms_sum / 1e3 / traced.cpu_s
            : 0.0,
        "ratio"};
    const TailSummary publish = summarize(publish_us_, 0.99);
    out["obs.publish_us.p50"] = {publish.p50, "us"};
    out["obs.publish_us.tail"] = {publish.has_tail ? publish.tail : publish.p50,
                                  "us"};
    const lpvs::obs::TelemetryStats& now = telemetry_at_end_;
    out["obs.deltas_published"] = {
        static_cast<double>(now.published - telemetry_at_begin_.published),
        "count"};
    out["obs.deltas_dropped"] = {
        static_cast<double>(now.dropped - telemetry_at_begin_.dropped), "count"};
    out["obs.sent_bytes"] = {
        static_cast<double>(now.sent_bytes - telemetry_at_begin_.sent_bytes),
        "bytes"};
    out["obs.collector_windows"] = {static_cast<double>(collector_windows_),
                                    "count"};
    out["fleet.digest_mismatches"] = {static_cast<double>(digest_mismatches_),
                                      "count"};
  }

 private:
  static void require(const lpvs::common::Status& status, const char* what) {
    if (!status.ok()) {
      throw std::runtime_error(std::string(what) + ": " + status.to_string());
    }
  }

  /// Runs day `day` of a round at kServeThreads through `scheduler`,
  /// publishing to the exporter from slot_hook, and appends the wall time
  /// between consecutive slot_hook calls to `slot_gaps_ms`.
  lpvs::fleet::FederationReport run_day(int day, const CheckedScheduler& scheduler,
                                        std::vector<double>& slot_gaps_ms) {
    std::int64_t last_hook = 0;
    const std::int64_t day_origin_ms = sim_clock_ms_;
    sim_clock_ms_ += kDayMs;
    lpvs::fleet::FederationConfig config = day_config(day, kServeThreads);
    config.slot_hook = [&](int, std::int64_t sim_time_ms) {
      const std::int64_t now = now_ns();
      if (last_hook != 0) {
        slot_gaps_ms.push_back(static_cast<double>(now - last_hook) / 1e6);
      }
      if (bench_.spans.enabled()) {
        {
          const ScopedSpan span(bench_.spans, "obs.publish");
          exporter_->publish(day_origin_ms + sim_time_ms);
        }
        publish_us_.push_back(static_cast<double>(now_ns() - now) / 1e3);
      } else {
        exporter_->publish(day_origin_ms + sim_time_ms);
      }
      last_hook = now_ns();
    };
    const lpvs::fault::FaultInjector injector(day_faults(day));
    const lpvs::core::RunContext context =
        lpvs::core::RunContext(*anxiety_)
            .with_fault_injector(&injector)
            .with_metrics(registry_.get());
    lpvs::fleet::Federation federation(config, *trace_, scheduler, context);
    return federation.run();
  }

  /// Every day run bare and serial (no registry, no exporter, 1 serve
  /// thread), every schedule checked: the state digests the timed days
  /// are compared with.
  void run_reference() {
    CheckedScheduler reference(inner_, bench_.spans);
    reference.set_checking(true);
    expected_.clear();
    checks_failed_.clear();
    for (int day = 0; day < kDays; ++day) {
      const long before = reference.totals().check_failures;
      const lpvs::fault::FaultInjector injector(day_faults(day));
      lpvs::fleet::Federation federation(
          day_config(day, 1), *trace_, reference,
          lpvs::core::RunContext(*anxiety_).with_fault_injector(&injector));
      expected_.push_back(federation.run().state_digest);
      checks_failed_.push_back(reference.totals().check_failures > before);
    }
    if (reference.totals().check_failures > 0) {
      std::fprintf(stderr, "federation_day: schedule check failed: %s\n",
                   reference.first_failure().c_str());
    }
  }

  lpvs::fleet::FederationConfig day_config(int day, unsigned threads) const {
    lpvs::fleet::FederationConfig config;
    config.seed = derive_seed(bench_.options.seed, kDaySalt + day);
    config.servers = 2;
    config.users = 16;
    config.min_viewers = 1;
    config.start_slot = 16;
    config.slots = kDaySlots;
    config.chunks_per_slot = 6;
    config.initial_battery_mean = 0.85;
    config.initial_battery_std = 0.08;
    config.mobility_rate = 0.01;
    config.checkpoint_interval = 4;
    config.threads = threads;
    config.slot_seconds = 60.0;
    config.diurnal.enabled = true;
    config.diurnal.base_arrivals_per_slot = 0.05;
    config.diurnal.peak_arrivals_per_slot = 1.6;
    config.diurnal.period_slots = kDaySlots;
    config.diurnal.peak_phase = 0.5;
    config.diurnal.min_lifetime_slots = 45;
    config.diurnal.max_lifetime_slots = 220;
    config.diurnal.max_users = 2000;
    config.autoscale.enabled = true;
    config.autoscale.interval_slots = 15;
    config.autoscale.cooldown_slots = 30;
    config.autoscale.min_servers = 2;
    config.autoscale.max_servers = 10;
    config.autoscale.target_sessions_per_server = 10.0;
    return config;
  }

  lpvs::fault::FaultInjector::Config day_faults(int day) const {
    lpvs::fault::FaultInjector::Config faults;
    faults.seed = derive_seed(bench_.options.seed, kDaySalt + 100 + day);
    faults.site(lpvs::fault::FaultSite::kServerCrash).drop = 0.004;
    faults.site(lpvs::fault::FaultSite::kHandoffTransfer).drop = 0.10;
    return faults;
  }

  BenchContext& bench_;
  const lpvs::core::LpvsScheduler inner_;
  std::unique_ptr<lpvs::survey::AnxietyModel> anxiety_;
  std::unique_ptr<lpvs::trace::Trace> trace_;
  std::unique_ptr<CheckedScheduler> checked_;
  std::unique_ptr<lpvs::obs::CollectorDaemon> collector_;
  std::unique_ptr<lpvs::obs::MetricsRegistry> registry_;
  std::unique_ptr<lpvs::obs::TelemetryExporter> exporter_;
  std::uint64_t ops_ = 0;
  std::int64_t sim_clock_ms_ = 0;
  std::vector<lpvs::fleet::FederationReport> reports_;
  std::vector<double> publish_us_;
  lpvs::obs::TelemetryStats telemetry_at_begin_;
  lpvs::obs::TelemetryStats telemetry_at_end_;
  std::vector<std::uint64_t> expected_;
  std::vector<bool> checks_failed_;
  long digest_mismatches_ = 0;
  long collector_windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_federation_day(BenchContext& bench) {
  return std::make_unique<FederationDay>(bench);
}

}  // namespace perfbench
