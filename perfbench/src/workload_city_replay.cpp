// city_replay: emu::replay_city over a synthetic Twitch trace — many
// virtual clusters, each a paired run with and without LPVS, give-up on.
// This is the paper's evaluation loop: content generation, chunk pricing,
// the Bayes updates and battery drain do most of the work and the solver a
// moderate share.
//
// Each operation replays one city: the clusters formed at one start slot
// of the trace.  A round replays kStartSlots.size() cities, one per start
// slot.  Checks: every replay is bit-identical (wall-clock fields aside)
// to the same replay at 1 thread, whose schedules the wrapper checks one
// by one.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "lpvs/emu/replay.hpp"
#include "lpvs/trace/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kStartSlots[] = {96, 108, 120, 132, 144, 156, 168, 180};
constexpr std::uint64_t kTraceSalt = 0x7ace;
constexpr std::uint64_t kReplaySalt = 0x4e91a7;

/// FNV-1a over the bit patterns of every deterministic report field (the
/// scheduler wall times are left out: they are clocks, not results).
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_word(bits);
  }
  void add(long v) { add_word(static_cast<std::uint64_t>(v)); }
  void add_word(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= 0x100000001b3ULL;
  }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(static_cast<long>(xs.size()));
    for (const T& x : xs) add(static_cast<double>(x));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_run(Digest& d, const lpvs::emu::RunMetrics& m) {
  d.add(m.total_energy_mwh);
  d.add(m.mean_anxiety);
  d.add(m.total_selected);
  d.add(static_cast<long>(m.slots_run));
  d.add(m.anxiety_samples);
  d.add_all(m.tpv_minutes);
  d.add_all(m.start_fractions);
  d.add_all(m.final_fractions);
  d.add_all(m.served);
  d.add_all(m.last_gamma_estimate);
  d.add_all(m.mean_true_gamma);
}

std::uint64_t digest_of(const lpvs::emu::ReplayReport& report) {
  Digest d;
  d.add(report.energy_with_mwh);
  d.add(report.energy_without_mwh);
  d.add(report.total_devices);
  d.add(report.total_served_slots);
  for (const lpvs::emu::ClusterOutcome& c : report.clusters) {
    d.add_word(c.channel.value);
    d.add_word(c.session.value);
    d.add(static_cast<long>(c.group_size));
    d.add(static_cast<long>(c.slots));
    add_run(d, c.metrics.with_lpvs);
    add_run(d, c.metrics.without_lpvs);
  }
  return d.value();
}

double device_slots(const lpvs::emu::ReplayReport& report) {
  double total = 0.0;
  for (const lpvs::emu::ClusterOutcome& c : report.clusters) {
    total += static_cast<double>(c.group_size) *
             (c.metrics.with_lpvs.slots_run + c.metrics.without_lpvs.slots_run);
  }
  return total;
}

class CityReplay : public Workload {
 public:
  explicit CityReplay(BenchContext& bench) : bench_(bench) {}

  void setup() override {
    anxiety_ = std::make_unique<lpvs::survey::AnxietyModel>(
        survey_anxiety_model(bench_.options.seed));
    trace_ = std::make_unique<lpvs::trace::Trace>(
        lpvs::trace::TwitchLikeGenerator().generate(
            derive_seed(bench_.options.seed, kTraceSalt)));
    checked_ = std::make_unique<CheckedScheduler>(inner_, bench_.spans);
  }

  void teardown() override {
    checked_.reset();
    trace_.reset();
    anxiety_.reset();
  }

  void begin_phase() override {
    checked_->reset();
    energy_with_ = energy_without_ = 0.0;
    anxiety_weighted_ = anxiety_weight_ = 0.0;
    tpv_.clear();
  }

  void run_round(PhaseTally& tally) override {
    for (std::size_t city = 0; city < std::size(kStartSlots); ++city) {
      const std::uint64_t op = ++ops_;
      lpvs::emu::ReplayReport report;
      const OpClock clock;
      {
        const ScopedSpan span(bench_.spans, "emu.replay_city", op);
        report = replay(city, *checked_, bench_.options.threads);
      }
      tally.latency_ms.push_back(tally.add_op(device_slots(report), clock) * 1e3);
      tally.outputs.push_back({city, digest_of(report)});

      energy_with_ += report.energy_with_mwh;
      energy_without_ += report.energy_without_mwh;
      const auto viewers = static_cast<double>(report.total_devices);
      anxiety_weighted_ += viewers * report.anxiety_reduction_ratio();
      anxiety_weight_ += viewers;
      tpv_.push_back(report.mean_low_battery_tpv(true));
    }
  }

  void verify(PhaseTally& tally) override {
    // A city whose reference schedules fail a check fails every timed
    // replay of it, since those are bit-identical to the reference.
    CheckedScheduler reference(inner_, bench_.spans);
    reference.set_checking(true);
    std::vector<std::uint64_t> expected;
    std::vector<bool> checks_failed;
    for (std::size_t city = 0; city < std::size(kStartSlots); ++city) {
      const long before = reference.totals().check_failures;
      expected.push_back(digest_of(replay(city, reference, 1)));
      checks_failed.push_back(reference.totals().check_failures > before);
    }
    if (reference.totals().check_failures > 0) {
      std::fprintf(stderr, "city_replay: schedule check failed: %s\n",
                   reference.first_failure().c_str());
    }
    for (const auto& [city, digest] : tally.outputs) {
      if (digest != expected[city] || checks_failed[city]) {
        ++tally.failed;
        std::fprintf(stderr, "city_replay start slot %d: report differs from "
                     "the 1-thread replay or fails its checks\n",
                     kStartSlots[city]);
      }
    }
  }

  double tail_q() const override { return 0.90; }

  void end_to_end(Metrics& out) override {
    out["energy_saving_pct"] = {
        100.0 * (energy_without_ - energy_with_) / energy_without_, "%"};
    out["anxiety_reduction_pct"] = {100.0 * anxiety_weighted_ / anxiety_weight_,
                                    "%"};
  }

  void per_layer(const PhaseTally& traced, Metrics& out) override {
    core_layer_metrics(*checked_, traced.busy_s, out);
    // CPU time of the replay not spent in the scheduler, per emulated
    // device-slot.
    const double scheduler_s = checked_->totals().schedule_ms_sum / 1e3;
    out["emu.self_us_per_device_slot"] = {
        traced.device_slots > 0.0
            ? 1e6 * (traced.cpu_s - scheduler_s) / traced.device_slots
            : 0.0,
        "us"};
    out["emu.low_battery_tpv_min"] = {summarize(tpv_).p50, "min"};
  }

 private:
  lpvs::emu::ReplayReport replay(std::size_t city,
                                 const lpvs::core::Scheduler& scheduler,
                                 unsigned threads) const {
    lpvs::emu::ReplayConfig config;
    config.seed = derive_seed(bench_.options.seed, kReplaySalt);
    config.start_slot = kStartSlots[city];
    config.min_viewers = 30;
    config.max_clusters = 16;
    config.max_slots = 8;
    config.max_group_size = 80;
    config.enable_giveup = true;
    config.threads = threads;
    return lpvs::emu::replay_city(*trace_, scheduler,
                                  lpvs::core::RunContext(*anxiety_), config);
  }

  BenchContext& bench_;
  const lpvs::core::LpvsScheduler inner_;
  std::unique_ptr<lpvs::survey::AnxietyModel> anxiety_;
  std::unique_ptr<lpvs::trace::Trace> trace_;
  std::unique_ptr<CheckedScheduler> checked_;
  std::uint64_t ops_ = 0;
  double energy_with_ = 0.0;
  double energy_without_ = 0.0;
  double anxiety_weighted_ = 0.0;
  double anxiety_weight_ = 0.0;
  std::vector<double> tpv_;
};

}  // namespace

std::unique_ptr<Workload> make_city_replay(BenchContext& bench) {
  return std::make_unique<CityReplay>(bench);
}

}  // namespace perfbench
