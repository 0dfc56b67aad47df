// lpvs_perfbench: the repository's benchmark.
//
//   lpvs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path.jsonl>]
//
// Workloads: serve_loopback, schedule_large_vc, city_replay,
// federation_day (README.md says what each one is and why).  One run sets
// the workload up several times (median = setup_s), runs three untimed
// warm-up rounds, then measures whole rounds for --seconds, with a fixed
// calibration kernel run between rounds to scale CPU time to a reference
// host speed.
//
// --trace 0 measures untraced and reports the end-to-end metrics.
// --trace 1 measures the first half untraced and the second half with the
// span recorder on, reports the per-layer metrics from the traced half and
// the tracing overhead (traced against untraced
// device_slots_per_ref_cpu_s), and writes every span as JSONL to --spans.
//
// Human-readable lines go to stdout first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
// is 0 when every check that no single operation owns held, 1 otherwise,
// 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <sched.h>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/survey/population.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ULL) ^ 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

lpvs::survey::AnxietyModel survey_anxiety_model(std::uint64_t seed) {
  lpvs::common::Rng rng(derive_seed(seed, 0xa7c1e7));
  const std::vector<lpvs::survey::Participant> participants =
      lpvs::survey::SyntheticPopulation().generate_paper_population(rng);
  lpvs::survey::LbaCurveExtractor extractor;
  extractor.add_population(participants);
  return lpvs::survey::AnxietyModel(extractor.extract());
}

namespace {

cpu_set_t start_cpus;  // the CPUs the process may use, before pinning
bool pinned = false;

/// Moves the process, and every thread it starts later, onto the last CPU
/// it may run on.
bool pin_to_one_cpu() {
  CPU_ZERO(&start_cpus);
  if (sched_getaffinity(0, sizeof start_cpus, &start_cpus) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &start_cpus)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    return pinned;
  }
  return false;
}

}  // namespace

void on_all_cpus(const std::function<void()>& fn) {
  cpu_set_t now;
  CPU_ZERO(&now);
  if (!pinned || sched_getaffinity(0, sizeof now, &now) != 0 ||
      sched_setaffinity(0, sizeof start_cpus, &start_cpus) != 0) {
    fn();
    return;
  }
  struct Restore {
    cpu_set_t* cpus;
    ~Restore() { sched_setaffinity(0, sizeof *cpus, cpus); }
  } restore{&now};
  fn();
}

void BenchContext::fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void core_layer_metrics(const CheckedScheduler& scheduler, double wall_s,
                        Metrics& out) {
  const CheckedScheduler::Totals totals = scheduler.totals();
  const TailSummary calls = summarize(scheduler.call_ms(), 0.99);
  out["core.schedule_ms.p50"] = {calls.p50, "ms"};
  out["core.schedule_ms.tail"] = {calls.has_tail ? calls.tail : calls.p50,
                                  "ms"};
  out["core.schedule_calls"] = {static_cast<double>(totals.calls), "count"};
  out["core.devices_per_call"] = {
      totals.calls > 0 ? static_cast<double>(totals.devices) /
                             static_cast<double>(totals.calls)
                       : 0.0,
      "count"};
  out["core.wall_share"] = {
      wall_s > 0.0 ? totals.schedule_ms_sum / 1e3 / wall_s : 0.0, "ratio"};
  out["core.phase2_swaps"] = {static_cast<double>(totals.phase2_swaps),
                              "count"};
  out["core.phase2_additions"] = {static_cast<double>(totals.phase2_additions),
                                  "count"};
  out["solver.bnb_nodes"] = {
      totals.calls > 0 ? static_cast<double>(totals.ilp_nodes) /
                             static_cast<double>(totals.calls)
                       : 0.0,
      "count"};
  std::printf("core.schedule_ms tail percentile: %s over %zu calls\n",
              calls.tail_label().c_str(), calls.count);
}

void schedule_quality_metrics(const CheckedScheduler& scheduler, Metrics& out) {
  const CheckedScheduler::Totals totals = scheduler.totals();
  const double calls = std::max(1.0, static_cast<double>(totals.calls));
  out["energy_saving_pct"] = {100.0 * totals.energy_saving_ratio_sum / calls,
                              "%"};
  out["anxiety_reduction_pct"] = {
      100.0 * totals.anxiety_reduction_ratio_sum / calls, "%"};
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its kind; a per-layer metric a
// workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"device_slots_per_ref_cpu_s", "1/s"},
    {"energy_saving_pct", "%"},
    {"anxiety_reduction_pct", "%"},
};

constexpr MetricSpec kPerLayer[] = {
    {"e2e.device_slots_per_cpu_s", "1/s"},
    {"e2e.device_slots_per_s", "1/s"},
    {"e2e.latency_p50_ms", "ms"},
    {"e2e.latency_tail_ms", "ms"},
    {"core.schedule_ms.p50", "ms"},
    {"core.schedule_ms.tail", "ms"},
    {"core.schedule_calls", "count"},
    {"core.devices_per_call", "count"},
    {"core.wall_share", "ratio"},
    {"core.phase2_swaps", "count"},
    {"core.phase2_additions", "count"},
    {"core.program_build_ms.p50", "ms"},
    {"core.phase1_ms.p50", "ms"},
    {"core.phase2_ms.p50", "ms"},
    {"solver.presolve_ms.p50", "ms"},
    {"solver.presolve_free_vars", "count"},
    {"solver.bnb_ms.p50", "ms"},
    {"solver.bnb_nodes", "count"},
    {"solver.cache_hits", "count"},
    {"solver.cache_warm_starts", "count"},
    {"emu.self_us_per_device_slot", "us"},
    {"emu.low_battery_tpv_min", "min"},
    {"server.syscalls_per_slot", "count"},
    {"server.read_syscalls_per_slot", "count"},
    {"server.write_syscalls_per_slot", "count"},
    {"server.uring_enters_per_slot", "count"},
    {"server.ops_per_flush", "count"},
    {"server.unattributed_ms.p50", "ms"},
    {"fleet.scheduler_share", "ratio"},
    {"fleet.handoffs", "count"},
    {"fleet.failovers", "count"},
    {"fleet.placement_moves", "count"},
    {"fleet.cold_restarts", "count"},
    {"fleet.peak_servers", "count"},
    {"fleet.digest_mismatches", "count"},
    {"obs.publish_us.p50", "us"},
    {"obs.publish_us.tail", "us"},
    {"obs.deltas_published", "count"},
    {"obs.deltas_dropped", "count"},
    {"obs.sent_bytes", "bytes"},
    {"obs.collector_windows", "count"},
    {"bench.calibration_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lpvs_perfbench: %s\n"
               "usage: lpvs_perfbench --workload <serve_loopback|"
               "schedule_large_vc|city_replay|federation_day> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

/// The process's own peak resident set (VmHWM).  getrusage's ru_maxrss
/// is not used: it carries over the launching process's peak across exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kib / 1024.0;
}

volatile double calibration_sink = 0.0;

/// This thread's CPU seconds for a fixed piece of work of the benchmark's
/// own, never changed: 2^20 xorshift steps, each a read-modify-write of a
/// random slot of a 256 KiB table and a compare.  How long it takes tells
/// how fast the host lets this guest run just now.
double calibration_s() {
  static std::vector<double> table(1 << 15, 1.0);
  timespec start{};
  timespec end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double best = 0.0;
  for (int i = 0; i < (1 << 20); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& slot = table[x & (table.size() - 1)];
    slot = slot * 0.999 + static_cast<double>(x >> 40) * 1e-9;
    if (slot > best) best = slot;
  }
  calibration_sink = best;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - start.tv_sec) +
         static_cast<double>(end.tv_nsec - start.tv_nsec) / 1e9;
}

/// The calibration's CPU time on the reference host: a 4-vCPU KVM guest
/// (Intel Xeon at 2.1 GHz) while its host let it run at full speed.
constexpr double kReferenceCalibrationS = 0.002;

/// Device-slots per CPU-second scaled to the reference host's speed: the
/// phase's CPU rate times its median calibration time over the reference
/// one.  The host's speed swings by up to 2x over minutes as other tenants
/// come and go, and the calibration swings with it.
double ref_cpu_rate(const PhaseTally& tally) {
  if (tally.calibration_s.empty()) return 0.0;
  return tally.device_slots_per_cpu_s() *
         summarize(tally.calibration_s).p50 / kReferenceCalibrationS;
}

/// Runs whole rounds for `seconds`, with kCalibrations runs of the
/// calibration between rounds, outside the timed operations.
void run_phase(Workload& workload, double seconds, PhaseTally& tally) {
  constexpr int kCalibrations = 3;
  workload.begin_phase();
  const std::int64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    for (int i = 0; i < kCalibrations; ++i) {
      tally.calibration_s.push_back(calibration_s());
    }
    workload.run_round(tally);
  }
}

/// The median latency and its tail: the median of the operations' own
/// tails when they report one, else the highest percentile up to the
/// workload's tail_q() that leaves ten samples beyond it.
TailSummary latency_summary(const Workload& workload, const PhaseTally& tally) {
  TailSummary latency = summarize(tally.latency_ms, workload.tail_q());
  if (!tally.op_tail_ms.empty()) {
    latency.has_tail = true;
    latency.tail_q = workload.tail_q();
    latency.tail = summarize(tally.op_tail_ms).p50;
  }
  std::printf("latency: %zu samples, p50 %.6g ms", latency.count, latency.p50);
  if (latency.has_tail) {
    std::printf(", %s %.6g ms", latency.tail_label().c_str(), latency.tail);
  }
  std::printf("\n");
  return latency;
}

void print_json(const BenchContext& bench, long attempted, long failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              bench.correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace need valid values");
  }
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  BenchContext bench;
  bench.options = options;
  std::unique_ptr<Workload> workload;
  if (workload_name == "serve_loopback") {
    workload = make_serve_loopback(bench);
  } else if (workload_name == "schedule_large_vc") {
    workload = make_schedule_large_vc(bench);
  } else if (workload_name == "city_replay") {
    workload = make_city_replay(bench);
  } else if (workload_name == "federation_day") {
    workload = make_federation_day(bench);
  } else {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }

  if (workload->one_cpu() && !pin_to_one_cpu()) {
    std::fprintf(stderr, "lpvs_perfbench: cannot pin the run to one CPU\n");
    return 1;
  }

  // Set-up is repeated so its median, not one cold sample, is reported:
  // at least kMinSetups times, and more while their wall times add up to
  // less than kSetupBudgetS, so that a set-up of milliseconds is not read
  // off a handful of samples.  Like device_slots_per_ref_cpu_s, each
  // set-up is timed in process CPU time scaled to the reference host speed
  // by calibrations run just before it; the host's speed would otherwise
  // move setup_s by up to 2x (serve_loopback: 1.5 s of wall time in one
  // hour, 0.6 s in the next).  The last set-up stays up for the
  // measurement.
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 31;
  constexpr double kSetupBudgetS = 1.0;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  double setup_total_s = 0.0;
  while (true) {
    std::vector<double> calibrations;
    for (int i = 0; i < 3; ++i) calibrations.push_back(calibration_s());
    const OpClock clock;
    workload->setup();
    setup_wall_s.push_back(clock.wall_s());
    setup_s.push_back(clock.cpu_s() * summarize(calibrations).p50 /
                      kReferenceCalibrationS);
    setup_total_s += setup_wall_s.back();
    const auto done = static_cast<int>(setup_s.size());
    if (done >= kMaxSetups ||
        (done >= kMinSetups && setup_total_s >= kSetupBudgetS)) {
      break;
    }
    workload->teardown();
  }
  std::printf("set-up: %zu times, median wall time %.6g s\n", setup_s.size(),
              summarize(setup_wall_s).p50);

  // Untimed warm-up rounds.  peak_rss_mb is read after them, so the peak
  // covers set-up and kWarmupRounds whole rounds (on schedule_large_vc,
  // that many distinct clusters): what the measurement adds afterwards
  // (latency samples, one collector window per simulated day) grows with
  // the rounds the clock admits, which follow the host's load rather
  // than the program.
  constexpr int kWarmupRounds = 3;
  PhaseTally warmup;
  workload->begin_phase();
  for (int i = 0; i < kWarmupRounds; ++i) workload->run_round(warmup);
  const double rss_mb = peak_rss_mb();

  Metrics metrics;
  long attempted = 0;
  long failed = 0;
  if (!options.trace) {
    PhaseTally tally;
    run_phase(*workload, options.seconds, tally);
    workload->verify(tally);
    workload->end_to_end(metrics);
    latency_summary(*workload, tally);
    std::printf("device_slots_per_s (wall clock) %.6g, device_slots_per_cpu_s "
                "%.6g, calibration %.4f ms\n",
                tally.device_slots_per_s(), tally.device_slots_per_cpu_s(),
                summarize(tally.calibration_s).p50 * 1e3);
    metrics["device_slots_per_ref_cpu_s"] = {ref_cpu_rate(tally), "1/s"};
    metrics["setup_s"] = {summarize(setup_s).p50, "s"};
    attempted = tally.attempted;
    failed = tally.failed;
  } else {
    for (const MetricSpec& spec : kPerLayer) metrics[spec.name] = {0.0, spec.unit};
    PhaseTally untraced;
    run_phase(*workload, options.seconds / 2.0, untraced);
    PhaseTally traced;
    bench.spans.enable(true);
    run_phase(*workload, options.seconds / 2.0, traced);
    bench.spans.enable(false);
    // One verification covers both halves; their failures count once.
    traced.outputs.insert(traced.outputs.end(), untraced.outputs.begin(),
                          untraced.outputs.end());
    workload->verify(traced);
    workload->per_layer(traced, metrics);
    // The wall-clock figures come from the untraced half: tracing must not
    // move them.
    const TailSummary latency = latency_summary(*workload, untraced);
    metrics["e2e.latency_p50_ms"] = {latency.p50, "ms"};
    metrics["e2e.latency_tail_ms"] = {latency.has_tail ? latency.tail : latency.p50,
                                      "ms"};
    metrics["e2e.device_slots_per_s"] = {untraced.device_slots_per_s(), "1/s"};
    metrics["e2e.device_slots_per_cpu_s"] = {untraced.device_slots_per_cpu_s(),
                                          "1/s"};
    std::vector<double> calibrations = untraced.calibration_s;
    calibrations.insert(calibrations.end(), traced.calibration_s.begin(),
                        traced.calibration_s.end());
    metrics["bench.calibration_ms"] = {summarize(calibrations).p50 * 1e3, "ms"};
    const double plain = ref_cpu_rate(untraced);
    metrics["trace.overhead_pct"] = {
        plain > 0.0 ? 100.0 * (1.0 - ref_cpu_rate(traced) / plain) : 0.0, "%"};
    metrics["trace.spans"] = {static_cast<double>(bench.spans.size()),
                              "count"};
    for (const auto& [name, layer] : bench.spans.layer_times()) {
      std::printf("layer %-24s spans %8ld  total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), layer.spans, layer.total_ms, layer.self_ms);
    }
    if (!spans_path.empty() && !bench.spans.write_jsonl(spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    }
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
  }
  workload->teardown();
  if (!options.trace) metrics["peak_rss_mb"] = {rss_mb, "MB"};

  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  Metrics reported;
  for (const MetricSpec& spec : specs) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      bench.fail(std::string("metric not produced: ") + spec.name);
      continue;
    }
    reported[spec.name] = it->second;
    std::printf("%-32s %.6g %s\n", spec.name, it->second.value, spec.unit);
  }
  std::printf("operations attempted %ld, failed %ld\n", attempted, failed);
  print_json(bench, attempted, failed, reported);
  std::fflush(stdout);
  return bench.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lpvs_perfbench: %s\n", error.what());
    return 1;
  }
}
