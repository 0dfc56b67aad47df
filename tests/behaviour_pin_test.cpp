// Behaviour pins for slot assembly (label `unit`).
//
// The emulator (and through it the city replay), the federation and the
// serving daemon all build each slot's problem from derived content
// streams.  These tests fold one run of each into a 64-bit digest and
// compare it with a value captured before the three drivers shared one
// assembler, so a change to content generation, chunk pricing or the
// derived streams shows up here as a digest mismatch.  Wall-clock fields
// (scheduler_ms) are left out of every digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "lpvs/common/wire.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/emu/replay.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs {
namespace {

namespace wire = common::wire;

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

void fold(wire::Writer& out, const emu::RunMetrics& m) {
  out.f64(m.total_energy_mwh);
  out.f64(m.mean_anxiety);
  out.i64(m.total_selected);
  out.i64(m.slots_run);
  out.i64(m.anxiety_samples);
  for (const double v : m.tpv_minutes) out.f64(v);
  for (const double v : m.start_fractions) out.f64(v);
  for (const double v : m.final_fractions) out.f64(v);
  for (const std::uint8_t v : m.served) out.u8(v);
  for (const double v : m.last_gamma_estimate) out.f64(v);
  for (const double v : m.mean_true_gamma) out.f64(v);
}

std::uint64_t seal(const wire::Writer& out) {
  return wire::checksum(out.bytes(), out.bytes().size());
}

std::uint64_t emulator_digest(bool one_slot_ahead) {
  emu::EmulatorConfig config;
  config.group_size = 30;
  config.slots = 6;
  config.seed = 9;
  config.one_slot_ahead = one_slot_ahead;
  const core::LpvsScheduler scheduler;
  emu::Emulator emulator(config, scheduler, core::RunContext(anxiety()));
  wire::Writer out;
  fold(out, emulator.run());
  return seal(out);
}

TEST(BehaviourPin, EmulatorRunMetrics) {
  EXPECT_EQ(emulator_digest(false), 0xb8327d950019f4cfULL);
  EXPECT_EQ(emulator_digest(true), 0xb34ce2bab161d198ULL);
}

TEST(BehaviourPin, CityReplay) {
  trace::TraceConfig trace_config;
  trace_config.channel_count = 60;
  trace_config.session_count = 200;
  trace_config.top_channel_viewers = 400.0;
  const trace::Trace twitch =
      trace::TwitchLikeGenerator(trace_config).generate(3);

  emu::ReplayConfig config;
  config.start_slot = 144;
  config.min_viewers = 20;
  config.max_clusters = 3;
  config.max_slots = 4;
  config.seed = 11;
  const core::LpvsScheduler scheduler;
  const emu::ReplayReport report = emu::replay_city(
      twitch, scheduler, core::RunContext(anxiety()), config);

  wire::Writer out;
  out.f64(report.energy_with_mwh);
  out.f64(report.energy_without_mwh);
  out.i64(report.total_devices);
  out.i64(report.total_served_slots);
  for (const emu::ClusterOutcome& cluster : report.clusters) {
    out.u32(cluster.session.value);
    out.i64(cluster.group_size);
    out.i64(cluster.slots);
    fold(out, cluster.metrics.with_lpvs);
    fold(out, cluster.metrics.without_lpvs);
  }
  ASSERT_FALSE(report.clusters.empty());
  EXPECT_EQ(seal(out), 0x9a85dbb3bb84977bULL);
}

TEST(BehaviourPin, DaemonPayloadsAtOneWorker) {
  const core::LpvsScheduler scheduler;
  server::EdgeServerDaemon daemon(
      server::ServerConfig{}.with_seed(63).with_workers(1), scheduler,
      core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 8;
  load.cluster_size = 4;
  load.slots = 30;
  load.threads = 2;
  load.seed = 63;
  const auto report = loadgen::run_load(load);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(daemon.drain(10000).ok());

  wire::Writer out;
  for (const auto& [session, digest] : report->digests) {
    out.u64(session);
    out.u64(digest);
  }
  ASSERT_EQ(report->digests.size(), 32u);
  EXPECT_EQ(seal(out), 0x6f953e3dab857a15ULL);
}

TEST(BehaviourPin, FederationStateDigest) {
  trace::TraceConfig trace_config;
  trace_config.channel_count = 40;
  trace_config.session_count = 160;
  trace_config.horizon_slots = 96;
  const trace::Trace twitch =
      trace::TwitchLikeGenerator(trace_config).generate(21);

  fleet::FederationConfig config;
  config.servers = 3;
  config.users = 18;
  config.min_viewers = 1;
  config.start_slot = 40;
  config.slots = 8;
  config.chunks_per_slot = 6;
  config.mobility_rate = 0.15;
  config.seed = 7;
  const core::LpvsScheduler scheduler;
  fleet::Federation federation(config, twitch, scheduler,
                               core::RunContext(anxiety()));
  const fleet::FederationReport report = federation.run();
  ASSERT_GT(report.handoffs, 0);
  EXPECT_EQ(report.state_digest, 0x66e4a60f4973fb8fULL);
}

}  // namespace
}  // namespace lpvs
