// Tests for the slot-problem machinery: the information-compacting
// identities of SV-B (the heart of the paper's solution method) checked as
// exact algebraic properties against forward simulation, and the slot
// assembler that turns derived content into a DeviceSlotInput.
#include <gtest/gtest.h>

#include <cmath>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/slot_assembly.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::core {
namespace {

DeviceSlotInput random_device(common::Rng& rng, std::size_t chunks = 30,
                              bool equal_durations = false) {
  DeviceSlotInput device;
  device.id = common::DeviceId{static_cast<std::uint32_t>(rng())};
  device.power_rates_mw.resize(chunks);
  device.chunk_durations_s.resize(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    device.power_rates_mw[k] = rng.uniform(300.0, 1200.0);
    device.chunk_durations_s[k] =
        equal_durations ? 10.0 : rng.uniform(4.0, 12.0);
  }
  device.battery_capacity_mwh = rng.uniform(2500.0, 5000.0);
  device.initial_energy_mwh =
      device.battery_capacity_mwh * rng.uniform(0.05, 1.0);
  device.gamma = rng.uniform(0.13, 0.49);
  device.compute_cost = rng.uniform(0.2, 1.2);
  device.storage_cost = rng.uniform(20.0, 200.0);
  return device;
}

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

TEST(ForwardEvaluation, TransformScalesPowerByGamma) {
  common::Rng rng(1);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation off = evaluate_forward(device, false, anxiety());
  const DeviceEvaluation on = evaluate_forward(device, true, anxiety());
  EXPECT_NEAR(on.sum_psi_mw, (1.0 - device.gamma) * off.sum_psi_mw, 1e-9);
}

TEST(ForwardEvaluation, TransformNeverIncreasesAnxietyOrEnergy) {
  common::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const DeviceSlotInput device = random_device(rng);
    const DeviceEvaluation off = evaluate_forward(device, false, anxiety());
    const DeviceEvaluation on = evaluate_forward(device, true, anxiety());
    EXPECT_LE(on.energy_spent_mwh, off.energy_spent_mwh + 1e-9);
    EXPECT_LE(on.sum_anxiety, off.sum_anxiety + 1e-9);
    EXPECT_GE(on.final_energy_mwh, off.final_energy_mwh - 1e-9);
  }
}

TEST(ForwardEvaluation, EnergyConservation) {
  common::Rng rng(3);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_NEAR(device.initial_energy_mwh,
              eval.final_energy_mwh + eval.energy_spent_mwh, 1e-9);
}

TEST(ForwardEvaluation, DeadBatteryFlagged) {
  common::Rng rng(4);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = 0.1;  // dies almost immediately
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_FALSE(eval.battery_survives);
  EXPECT_NEAR(eval.final_energy_mwh, 0.0, 1e-12);
  EXPECT_NEAR(eval.energy_spent_mwh, 0.1, 1e-9);
}

TEST(ForwardEvaluation, EmptyChunkListIsNeutral) {
  DeviceSlotInput device;
  device.power_rates_mw.clear();
  device.chunk_durations_s.clear();
  device.initial_energy_mwh = 1000.0;
  device.battery_capacity_mwh = 2000.0;
  const DeviceEvaluation eval = evaluate_forward(device, true, anxiety());
  EXPECT_DOUBLE_EQ(eval.sum_psi_mw, 0.0);
  EXPECT_DOUBLE_EQ(eval.sum_anxiety, 0.0);
  EXPECT_DOUBLE_EQ(eval.final_energy_mwh, 1000.0);
  EXPECT_TRUE(eval.battery_survives);
}

/// The paper's equation (10): sum_kappa e(kappa) telescopes into the closed
/// form (10d).  Exact identity (no flooring), any durations, any gamma.
class CompactionIdentity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompactionIdentity, EnergySumClosedFormEqualsForward) {
  common::Rng rng(GetParam());
  for (bool transformed : {false, true}) {
    for (bool equal_durations : {false, true}) {
      const std::size_t chunks =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 59));
      const DeviceSlotInput device =
          random_device(rng, chunks, equal_durations);
      EXPECT_NEAR(energy_sum_closed_form(device, transformed),
                  energy_sum_forward(device, transformed),
                  1e-7 * std::fabs(energy_sum_forward(device, transformed)) +
                      1e-7)
          << "chunks=" << chunks << " transformed=" << transformed;
    }
  }
}

TEST_P(CompactionIdentity, CompactedObjectiveEqualsForwardObjective) {
  common::Rng rng(GetParam() + 1000);
  for (bool transformed : {false, true}) {
    for (double lambda : {0.0, 500.0, 2000.0, 10000.0}) {
      const std::size_t chunks =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 59));
      const DeviceSlotInput device = random_device(rng, chunks);
      const double forward =
          evaluate_forward(device, transformed, anxiety()).objective(lambda);
      const double compacted =
          compacted_objective(device, transformed, anxiety(), lambda);
      EXPECT_NEAR(forward, compacted, 1e-6 * std::fabs(forward) + 1e-6)
          << "lambda=" << lambda << " transformed=" << transformed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionIdentity,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(CompactedConstraint, SlackPositiveForHealthyBattery) {
  common::Rng rng(5);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = device.battery_capacity_mwh;  // full battery
  EXPECT_GT(compacted_constraint_slack(device), 0.0);
  EXPECT_TRUE(eligible_for_transform(device));
}

TEST(CompactedConstraint, SlackNegativeForDyingBattery) {
  common::Rng rng(6);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = 0.01;
  EXPECT_LT(compacted_constraint_slack(device), 0.0);
  EXPECT_FALSE(eligible_for_transform(device));
}

TEST(CompactedConstraint, MatchesLiteralFormula) {
  // Hand-computable instance: 2 chunks, p = 360 mW, 10 s each, gamma 0.5.
  DeviceSlotInput device;
  device.power_rates_mw = {360.0, 360.0};
  device.chunk_durations_s = {10.0, 10.0};
  device.gamma = 0.5;
  device.battery_capacity_mwh = 100.0;
  device.initial_energy_mwh = 10.0;
  // psi = 0.5 mWh per chunk (transformed: 180 mW x 10 s).
  // closed form: 2*10 - (2-1)*0.5 - (2-2)*0.5 = 19.5.
  EXPECT_NEAR(energy_sum_closed_form(device, true), 19.5, 1e-12);
  // rhs = gamma * sum p*Delta = 0.5 * 2 mWh = 1.0; slack = 18.5.
  EXPECT_NEAR(compacted_constraint_slack(device), 18.5, 1e-12);
}

TEST(Eligibility, RejectsEmptyAndZeroGamma) {
  common::Rng rng(7);
  DeviceSlotInput no_chunks = random_device(rng, 1);
  no_chunks.power_rates_mw.clear();
  no_chunks.chunk_durations_s.clear();
  EXPECT_FALSE(eligible_for_transform(no_chunks));

  DeviceSlotInput no_gamma = random_device(rng);
  no_gamma.gamma = 0.0;
  EXPECT_FALSE(eligible_for_transform(no_gamma));
}

TEST(UntransformedEnergy, SumsChunkEnergies) {
  DeviceSlotInput device;
  device.power_rates_mw = {720.0, 360.0};
  device.chunk_durations_s = {10.0, 20.0};
  device.initial_energy_mwh = 100.0;
  device.battery_capacity_mwh = 100.0;
  // 720*10/3600 + 360*20/3600 = 2 + 2 = 4 mWh.
  EXPECT_NEAR(untransformed_energy_mwh(device), 4.0, 1e-12);
}

TEST(ObjectiveStructure, LambdaZeroIgnoresAnxiety) {
  common::Rng rng(8);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_DOUBLE_EQ(eval.objective(0.0), eval.sum_psi_mw);
}

TEST(ObjectiveStructure, ObjectiveMonotoneInLambdaForAnxiousDevice) {
  common::Rng rng(9);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = device.battery_capacity_mwh * 0.15;
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_GT(eval.sum_anxiety, 0.0);
  EXPECT_LT(eval.objective(100.0), eval.objective(1000.0));
}

TEST(ObjectiveStructure, LowBatteryDeviceBenefitsMoreFromTransform) {
  // The lambda-weighted benefit of serving a near-20% device exceeds that
  // of an identical device at 80% battery: the SIII-C insight.
  DeviceSlotInput low;
  low.power_rates_mw.assign(30, 700.0);
  low.chunk_durations_s.assign(30, 10.0);
  low.battery_capacity_mwh = 3000.0;
  low.initial_energy_mwh = 3000.0 * 0.23;
  low.gamma = 0.3;
  DeviceSlotInput high = low;
  high.initial_energy_mwh = 3000.0 * 0.8;

  const double lambda = 5000.0;
  const double benefit_low =
      compacted_objective(low, false, anxiety(), lambda) -
      compacted_objective(low, true, anxiety(), lambda);
  const double benefit_high =
      compacted_objective(high, false, anxiety(), lambda) -
      compacted_objective(high, true, anxiety(), lambda);
  EXPECT_GT(benefit_low, benefit_high);
}

// ------------------------------------------------------------ assembly --

// An OLED panel, whose power follows the content.
const display::DisplaySpec& test_panel() {
  static const display::DisplaySpec spec = [] {
    const display::DeviceCatalog& catalog = display::DeviceCatalog::standard();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (catalog.at(i).spec.type == display::DisplayType::kOled) {
        return catalog.at(i).spec;
      }
    }
    return display::DisplaySpec{};
  }();
  return spec;
}

void expect_same_chunks(const media::Video& a, const media::Video& b) {
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t k = 0; k < a.chunks.size(); ++k) {
    const display::FrameStats& x = a.chunks[k].stats;
    const display::FrameStats& y = b.chunks[k].stats;
    EXPECT_EQ(x.mean_luminance, y.mean_luminance);
    EXPECT_EQ(x.mean_r, y.mean_r);
    EXPECT_EQ(x.mean_g, y.mean_g);
    EXPECT_EQ(x.mean_b, y.mean_b);
    EXPECT_EQ(x.peak_luminance, y.peak_luminance);
    EXPECT_EQ(a.chunks[k].bitrate_mbps, b.chunks[k].bitrate_mbps);
    EXPECT_EQ(a.chunks[k].duration.value, b.chunks[k].duration.value);
  }
}

const SlotProblemConfig& seed5() {
  static const SlotProblemConfig config = [] {
    SlotProblemConfig c;
    c.seed = 5;
    return c;
  }();
  return config;
}

media::Video slot_video(std::uint64_t user, std::uint64_t slot) {
  media::Video video;
  generate_slot_video(seed5(), user, slot, media::Genre::kIrlChat, 3.5, video);
  return video;
}

TEST(DerivedRng, MatchesTheStreamFormula) {
  const std::uint64_t triples[][3] = {
      {0, 0, 0}, {42, 7, 144}, {0xF00Du, 0xD0u, 3}, {~0ULL, ~0ULL, 1}};
  for (const auto& t : triples) {
    common::Rng expected(t[0] ^ (t[1] + 1) * 0x9E3779B97F4A7C15ULL ^
                         (t[2] + 1) * 0xC2B2AE3D27D4EB4FULL);
    common::Rng derived = common::derived_rng(t[0], t[1], t[2]);
    for (int draw = 0; draw < 4; ++draw) EXPECT_EQ(derived(), expected());
  }
  EXPECT_EQ(common::derived_rng(42, 7, 144)(), 0xa457e327bde2c3f3ULL);
}

TEST(SlotAssembly, ContentIsAPureFunctionOfSeedUserSlot) {
  const media::Video video = slot_video(3, 17);
  ASSERT_EQ(video.chunks.size(), 30u);
  EXPECT_EQ(video.id.value, 3u * 100000u + 17u);

  // The old inline form: a generator seeded from the derived stream.
  common::Rng content_rng = common::derived_rng(5, 3, 17);
  const media::Video expected =
      media::ContentGenerator(content_rng())
          .generate(video.id, media::Genre::kIrlChat, 30, 3.5,
                    common::Seconds{10.0});

  // Writing into a Video that held another slot changes nothing.
  media::Video reused = slot_video(9, 2);
  generate_slot_video(seed5(), 3, 17, media::Genre::kIrlChat, 3.5, reused);

  expect_same_chunks(video, expected);
  expect_same_chunks(video, reused);
  EXPECT_NE(video.chunks[0].stats.mean_luminance,
            slot_video(3, 18).chunks[0].stats.mean_luminance);
}

TEST(SlotAssembly, PricesOnlyTheRequestedPrefix) {
  const media::Video video = slot_video(4, 2);
  const media::PowerRateEstimator estimator;
  const transform::ResourceModel resources;

  DeviceSlotInput input;
  price_slot_input(common::DeviceId{4}, video, 12, test_panel(), estimator,
                   resources, input);
  EXPECT_EQ(input.id.value, 4u);
  ASSERT_EQ(input.chunk_count(), 12u);
  ASSERT_EQ(input.chunk_durations_s.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k) {
    EXPECT_EQ(input.power_rates_mw[k],
              estimator.rate(test_panel(), video.chunks[k]).value);
    EXPECT_EQ(input.chunk_durations_s[k], video.chunks[k].duration.value);
  }
  // The edge costs are those of the whole slot's stream.
  EXPECT_EQ(input.compute_cost, resources.compute_cost(test_panel(), video));
  EXPECT_EQ(input.storage_cost, resources.storage_cost(video));

  // A window longer than the video prices the whole video.
  price_slot_input(common::DeviceId{4}, video, 99, test_panel(), estimator,
                   resources, input);
  EXPECT_EQ(input.chunk_count(), video.chunks.size());
}

TEST(SlotAssembly, ReusedInputFillsExactlyLikeAFreshOne) {
  const media::Video video = slot_video(6, 30);
  const media::PowerRateEstimator estimator;
  const transform::ResourceModel resources;

  DeviceSlotInput fresh;
  price_slot_input(common::DeviceId{6}, video, video.chunks.size(),
                   test_panel(), estimator, resources, fresh);

  DeviceSlotInput reused;
  reused.id = common::DeviceId{99};
  reused.power_rates_mw.assign(50, 1234.0);
  reused.chunk_durations_s.assign(50, 3.0);
  reused.compute_cost = 9.0;
  reused.storage_cost = 900.0;
  reused.sla_weight = 2.5;
  price_slot_input(common::DeviceId{6}, video, video.chunks.size(),
                   test_panel(), estimator, resources, reused);

  EXPECT_EQ(reused.id.value, fresh.id.value);
  EXPECT_EQ(reused.power_rates_mw, fresh.power_rates_mw);
  EXPECT_EQ(reused.chunk_durations_s, fresh.chunk_durations_s);
  EXPECT_EQ(reused.compute_cost, fresh.compute_cost);
  EXPECT_EQ(reused.storage_cost, fresh.storage_cost);
  EXPECT_EQ(reused.sla_weight, 1.0);
}

}  // namespace
}  // namespace lpvs::core
