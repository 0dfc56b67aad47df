// Tests for the edge encoder farm discrete-event simulation: FIFO
// multi-worker semantics, deadline accounting, utilization arithmetic, and
// the capacity-constraint/real-time-delivery correspondence — plus the
// batch admission layer that feeds farms from the sharded solve pipeline.
#include <gtest/gtest.h>

#include "lpvs/common/rng.hpp"
#include "lpvs/streaming/encoder_farm.hpp"
#include "lpvs/streaming/farm_admission.hpp"

namespace lpvs::streaming {
namespace {

TransformJob job(double arrival, double service, double deadline) {
  TransformJob j;
  j.arrival_s = arrival;
  j.service_s = service;
  j.deadline_s = deadline;
  return j;
}

TEST(EncoderFarmTest, EmptyJobListIsNeutral) {
  const FarmReport report = EncoderFarm(4).run({});
  EXPECT_EQ(report.jobs_completed, 0);
  EXPECT_DOUBLE_EQ(report.miss_ratio(), 0.0);
}

TEST(EncoderFarmTest, SingleJobSingleWorker) {
  const FarmReport report =
      EncoderFarm(1).run({job(0.0, 2.0, 5.0)});
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_EQ(report.jobs_missed_deadline, 0);
  EXPECT_DOUBLE_EQ(report.mean_queue_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(report.makespan_s, 2.0);
  EXPECT_DOUBLE_EQ(report.mean_utilization, 1.0);
}

TEST(EncoderFarmTest, SerialQueueingOnOneWorker) {
  // Two simultaneous 2 s jobs on one worker: the second waits 2 s.
  const FarmReport report =
      EncoderFarm(1).run({job(0.0, 2.0, 10.0), job(0.0, 2.0, 10.0)});
  EXPECT_DOUBLE_EQ(report.mean_queue_delay_s, 1.0);
  EXPECT_DOUBLE_EQ(report.max_queue_delay_s, 2.0);
  EXPECT_DOUBLE_EQ(report.makespan_s, 4.0);
}

TEST(EncoderFarmTest, ParallelWorkersEliminateQueueing) {
  const FarmReport report =
      EncoderFarm(2).run({job(0.0, 2.0, 10.0), job(0.0, 2.0, 10.0)});
  EXPECT_DOUBLE_EQ(report.mean_queue_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(report.makespan_s, 2.0);
}

TEST(EncoderFarmTest, DeadlineMissesCounted) {
  // One worker, three simultaneous 3 s jobs with 4 s deadlines: job 1
  // finishes at 3 (ok), job 2 at 6 (miss), job 3 at 9 (miss).
  const FarmReport report = EncoderFarm(1).run(
      {job(0.0, 3.0, 4.0), job(0.0, 3.0, 4.0), job(0.0, 3.0, 4.0)});
  EXPECT_EQ(report.jobs_missed_deadline, 2);
  EXPECT_NEAR(report.miss_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(EncoderFarmTest, UnsortedArrivalsHandled) {
  const FarmReport report = EncoderFarm(1).run(
      {job(5.0, 1.0, 10.0), job(0.0, 1.0, 10.0), job(2.0, 1.0, 10.0)});
  EXPECT_EQ(report.jobs_completed, 3);
  EXPECT_DOUBLE_EQ(report.mean_queue_delay_s, 0.0);  // well separated
}

TEST(SlotJobs, StructureMatchesSchedule) {
  const std::vector<double> costs = {0.45, 0.9};
  const auto jobs = slot_jobs(costs, 30, 10.0, 0.45);
  ASSERT_EQ(jobs.size(), 60u);
  // Device 0 at reference cost: 10 s of video = 10 s of work on one
  // worker; device 1 at 2x: 20 s of work.
  EXPECT_DOUBLE_EQ(jobs[0].service_s, 10.0);
  EXPECT_DOUBLE_EQ(jobs[30].service_s, 20.0);
  EXPECT_DOUBLE_EQ(jobs[1].arrival_s, 10.0);
  EXPECT_DOUBLE_EQ(jobs[29].arrival_s, 290.0);
  EXPECT_DOUBLE_EQ(jobs[0].deadline_s, 20.0);
}

TEST(SlotJobs, ScheduleWithinAggregateCapacityDeliversOnTime) {
  // The correspondence behind constraint (6): if the selected devices'
  // compute costs sum to <= the farm's worker-units, the farm sustains
  // real-time delivery with (almost) no deadline misses.
  const int workers = 45;            // one unit per worker at 1.0 units
  const double worker_units = 1.0;
  std::vector<double> costs(80, 0.5);  // 40 units total <= 45
  const auto jobs = slot_jobs(costs, 30, 10.0, worker_units);
  const FarmReport report = EncoderFarm(workers).run(jobs);
  EXPECT_EQ(report.jobs_missed_deadline, 0);
  // All devices' chunks arrive in aligned bursts, so some intra-burst
  // queueing is expected — but bounded well under one chunk duration.
  EXPECT_LT(report.mean_queue_delay_s, 10.0);
  EXPECT_GT(report.mean_utilization, 0.5);
}

TEST(SlotJobs, OverCommittedScheduleMissesDeadlines) {
  const int workers = 45;
  const double worker_units = 1.0;
  std::vector<double> costs(150, 0.5);  // 75 units >> 45
  const auto jobs = slot_jobs(costs, 30, 10.0, worker_units);
  const FarmReport report = EncoderFarm(workers).run(jobs);
  EXPECT_GT(report.miss_ratio(), 0.3);
  EXPECT_GT(report.max_queue_delay_s, 10.0);
}

TEST(SlotJobs, UtilizationScalesWithLoad) {
  const double worker_units = 1.0;
  std::vector<double> light(20, 0.5);
  std::vector<double> heavy(80, 0.5);
  const FarmReport low =
      EncoderFarm(45).run(slot_jobs(light, 30, 10.0, worker_units));
  const FarmReport high =
      EncoderFarm(45).run(slot_jobs(heavy, 30, 10.0, worker_units));
  EXPECT_LT(low.mean_utilization, high.mean_utilization);
}

core::SlotProblem admission_problem(common::Rng& rng, int devices,
                                    double compute_capacity) {
  core::SlotProblem problem;
  problem.lambda = 2000.0;
  problem.compute_capacity = compute_capacity;
  problem.storage_capacity = 100.0 * devices;  // storage never binds here
  for (int n = 0; n < devices; ++n) {
    core::DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    device.power_rates_mw.resize(30);
    device.chunk_durations_s.assign(30, 10.0);
    for (auto& p : device.power_rates_mw) p = rng.uniform(400.0, 1100.0);
    device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    device.initial_energy_mwh =
        device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    device.gamma = rng.uniform(0.13, 0.49);
    device.compute_cost = rng.uniform(0.3, 0.8);
    device.storage_cost = rng.uniform(50.0, 150.0);
    problem.devices.push_back(std::move(device));
  }
  return problem;
}

std::vector<FarmSlotRequest> two_farm_requests(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<FarmSlotRequest> requests(2);
  for (std::size_t f = 0; f < requests.size(); ++f) {
    requests[f].farm_id = f;
    // ~45% of mean total compute demand: admission must actually choose.
    requests[f].problem = admission_problem(rng, 24, 0.45 * 0.55 * 24);
    requests[f].workers = 8;
    requests[f].worker_units = 1.0;
  }
  return requests;
}

TEST(FarmAdmission, AdmittedLoadRespectsCapacityAndIsEncoded) {
  const auto requests = two_farm_requests(3);
  const survey::AnxietyModel anxiety = survey::AnxietyModel::reference();
  const core::RunContext context(anxiety);
  const core::LpvsScheduler scheduler;
  core::BatchScheduler batch(core::BatchScheduler::Options{1});

  const auto results = admit_and_encode(requests, scheduler, context, batch);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t f = 0; f < results.size(); ++f) {
    const auto& result = results[f];
    // The admitted index list mirrors the schedule's selection vector.
    ASSERT_EQ(result.schedule.x.size(), requests[f].problem.devices.size());
    EXPECT_EQ(static_cast<int>(result.admitted.size()),
              result.schedule.selected_count());
    EXPECT_GT(result.admitted.size(), 0u);
    EXPECT_LT(result.admitted.size(), requests[f].problem.devices.size());
    double compute = 0.0;
    for (std::uint32_t d : result.admitted) {
      compute += requests[f].problem.devices[d].compute_cost;
    }
    EXPECT_LE(compute, requests[f].problem.compute_capacity + 1e-9);
    // Every admitted device's chunks went through the encoder queue.
    EXPECT_EQ(result.farm.jobs_completed,
              static_cast<long>(result.admitted.size()) *
                  requests[f].chunks_per_slot);
  }
}

TEST(FarmAdmission, ResubmittedSlotExactHitsPerFarm) {
  const auto requests = two_farm_requests(4);
  const survey::AnxietyModel anxiety = survey::AnxietyModel::reference();
  const core::RunContext context(anxiety);
  const core::LpvsScheduler scheduler;
  core::BatchScheduler batch(core::BatchScheduler::Options{1});

  const auto first = admit_and_encode(requests, scheduler, context, batch);
  const auto second = admit_and_encode(requests, scheduler, context, batch);
  // Identical problems under the same farm ids: the second batch is pure
  // cache replay, and the decisions are unchanged.
  EXPECT_EQ(batch.cache().stats().exact_hits,
            static_cast<long>(requests.size()));
  for (std::size_t f = 0; f < first.size(); ++f) {
    EXPECT_EQ(first[f].admitted, second[f].admitted);
    EXPECT_EQ(first[f].schedule.objective, second[f].schedule.objective);
  }
}

TEST(FarmAdmission, ThreadCountDoesNotChangeDecisions) {
  const survey::AnxietyModel anxiety = survey::AnxietyModel::reference();
  const core::RunContext context(anxiety);
  const core::LpvsScheduler scheduler;

  std::vector<std::vector<std::uint32_t>> admitted_by_threads;
  for (const unsigned threads : {1u, 2u, 8u}) {
    core::BatchScheduler batch(
        core::BatchScheduler::Options{threads});
    std::vector<std::uint32_t> admitted;
    // Two consecutive slots so the warm-start path is exercised too.
    for (const std::uint64_t seed : {10, 11}) {
      const auto results = admit_and_encode(two_farm_requests(seed),
                                            scheduler, context, batch);
      for (const auto& result : results) {
        admitted.insert(admitted.end(), result.admitted.begin(),
                        result.admitted.end());
      }
    }
    admitted_by_threads.push_back(std::move(admitted));
  }
  EXPECT_EQ(admitted_by_threads[0], admitted_by_threads[1]);
  EXPECT_EQ(admitted_by_threads[0], admitted_by_threads[2]);
}

}  // namespace
}  // namespace lpvs::streaming
