// Elastic WFS (Algorithm 1) and the static priority baseline.
#include <gtest/gtest.h>

#include "sched/simulator.h"
#include "sched/wfs.h"
#include "util/common.h"
#include "workloads/profiles.h"

namespace vf {
namespace {

JobSpec job(std::int64_t id, double arrival, std::int64_t steps, std::int64_t demand,
            double priority) {
  JobSpec j;
  j.id = id;
  j.arrival_s = arrival;
  j.priority = priority;
  j.workload = "resnet56";
  j.profile = model_profile("resnet56");
  j.global_batch = 128;
  j.total_steps = steps;
  j.demand_gpus = demand;
  return j;
}

/// Job sized to run for ~duration_s at its full demand.
JobSpec job_lasting(std::int64_t id, double arrival, double duration_s,
                    std::int64_t demand, double priority) {
  JobSpec j = job(id, arrival, 1, demand, priority);
  const double st = allocation_step_time_s(j.profile, j.global_batch,
                                           Allocation::of(DeviceType::kV100, demand));
  j.total_steps = std::max<std::int64_t>(1, static_cast<std::int64_t>(duration_s / st));
  return j;
}

JobState state_of(const JobSpec& spec) {
  JobState s;
  s.spec = spec;
  s.remaining_steps = static_cast<double>(spec.total_steps);
  return s;
}

ClusterInventory v100s(std::int64_t n) {
  ClusterInventory c;
  c.per_type[DeviceType::kV100] = n;
  return c;
}

TEST(WeightedFairShares, EqualWeightsEqualShares) {
  auto a = state_of(job(0, 0, 10, 4, 1.0));
  auto b = state_of(job(1, 0, 10, 4, 1.0));
  const auto shares = weighted_fair_shares(8, {&a, &b});
  EXPECT_EQ(shares.at(0), 4);
  EXPECT_EQ(shares.at(1), 4);
}

TEST(WeightedFairShares, ProportionalToWeights) {
  auto a = state_of(job(0, 0, 10, 8, 1.0));
  auto b = state_of(job(1, 0, 10, 8, 3.0));
  const auto shares = weighted_fair_shares(8, {&a, &b});
  EXPECT_EQ(shares.at(0), 2);
  EXPECT_EQ(shares.at(1), 6);
}

TEST(WeightedFairShares, CappedAtDemandWithRedistribution) {
  // Job 1's fair share exceeds its demand of 2; the excess flows to job 0.
  auto a = state_of(job(0, 0, 10, 8, 1.0));
  auto b = state_of(job(1, 0, 10, 2, 3.0));
  const auto shares = weighted_fair_shares(8, {&a, &b});
  EXPECT_EQ(shares.at(1), 2);
  EXPECT_EQ(shares.at(0), 6);
}

TEST(WeightedFairShares, IntegerizationConservesTotal) {
  auto a = state_of(job(0, 0, 10, 8, 1.0));
  auto b = state_of(job(1, 0, 10, 8, 1.0));
  auto c = state_of(job(2, 0, 10, 8, 1.0));
  const auto shares = weighted_fair_shares(8, {&a, &b, &c});
  std::int64_t total = 0;
  for (const auto& [id, s] : shares) total += s;
  EXPECT_EQ(total, 8);
  for (const auto& [id, s] : shares) EXPECT_GE(s, 2);
}

TEST(WeightedFairShares, NeverExceedsDemand) {
  auto a = state_of(job(0, 0, 10, 1, 10.0));
  auto b = state_of(job(1, 0, 10, 1, 1.0));
  const auto shares = weighted_fair_shares(8, {&a, &b});
  EXPECT_EQ(shares.at(0), 1);
  EXPECT_EQ(shares.at(1), 1);
}

TEST(WeightedFairShares, EmptyJobs) {
  EXPECT_TRUE(weighted_fair_shares(8, {}).empty());
}

TEST(ElasticWfs, HighPriorityArrivalDownsizesLowerPriority) {
  // Fig 10a: when the high-priority job arrives, running jobs shrink
  // immediately instead of blocking it.
  ElasticWfsScheduler wfs;
  auto res = simulate(v100s(4),
                      {job_lasting(0, 0.0, 300.0, 4, 1.0),
                       job_lasting(1, 30.0, 300.0, 4, 10.0)},
                      wfs);
  const JobState& high = res.jobs[1];
  EXPECT_LT(high.first_start_s - high.spec.arrival_s, 1.0)
      << "high-priority job should start almost immediately";
  // Job 0 must have been resized down at the arrival.
  EXPECT_GE(res.jobs[0].resizes, 1);
}

TEST(ElasticWfs, BeatsPriorityOnMakespanForFig10Shape) {
  // Three jobs on 4 GPUs in the paper's arrival pattern: elastic WFS
  // should cut both makespan and the high-priority job's JCT.
  const std::vector<JobSpec> trace = {
      job_lasting(0, 0.0, 500.0, 4, 1.0),    // BERT-SST2-like
      job_lasting(1, 60.0, 700.0, 2, 5.0),   // ResNet-56-like
      job_lasting(2, 540.0, 800.0, 4, 10.0), // BERT-QNLI-like, highest priority
  };
  ElasticWfsScheduler wfs;
  PriorityScheduler prio;
  const auto elastic = simulate(v100s(4), trace, wfs);
  const auto fixed = simulate(v100s(4), trace, prio);

  EXPECT_LT(elastic.makespan_s, fixed.makespan_s);
  const double jct_high_elastic = elastic.jobs[2].completion_s - elastic.jobs[2].spec.arrival_s;
  const double jct_high_fixed = fixed.jobs[2].completion_s - fixed.jobs[2].spec.arrival_s;
  EXPECT_LT(jct_high_elastic, jct_high_fixed);
  EXPECT_GT(elastic.avg_utilization, fixed.avg_utilization);
}

TEST(ElasticWfs, NoHigherPriorityJobHurtByAdmission) {
  // Admission control (Algorithm 1 lines 5-9): admitting a low-priority
  // job must not shrink a higher-priority job below its fair share.
  ElasticWfsScheduler wfs;
  auto res = simulate(v100s(4),
                      {job_lasting(0, 0.0, 400.0, 4, 10.0),
                       job_lasting(1, 10.0, 100.0, 4, 1.0)},
                      wfs);
  // The high-priority job holds 3+ GPUs throughout (fair share with the
  // 1:10 weights is > 3.6 -> integerized 4).
  for (const AllocSegment& seg : res.jobs[0].timeline)
    EXPECT_GE(seg.alloc.total(), 3) << "high-priority job squeezed at t=" << seg.t0;
}

TEST(PriorityStatic, NoBackfillBehindBlockedHighPriorityJob) {
  // Fig 10b's pathology: a blocked high-priority job leaves GPUs idle.
  PriorityScheduler prio;
  const std::vector<JobSpec> trace = {
      job_lasting(0, 0.0, 200.0, 4, 1.0),   // occupies everything
      job_lasting(1, 10.0, 200.0, 4, 10.0), // high priority, blocked
      job_lasting(2, 20.0, 200.0, 2, 1.0),  // low priority, must wait
  };
  auto res = simulate(v100s(4), trace, prio);
  // Job 1 starts exactly when job 0 finishes; job 2 cannot jump ahead of
  // job 1 even when 2 GPUs are idle... there are no idle GPUs while 0
  // runs, but after 0 completes, 1 takes all 4, and 2 waits for 1.
  EXPECT_NEAR(res.jobs[1].first_start_s, res.jobs[0].completion_s, 1e-6);
  EXPECT_GE(res.jobs[2].first_start_s, res.jobs[1].completion_s - 1e-6);
}

TEST(PriorityStatic, ServingGrowsOnlyIntoDevicesRunningJobsLeaveIdle) {
  // A training job holds 4 of 6 devices while serving wants 8: the job
  // keeps its full demand and serving grows from its minimum into the 2
  // idle devices only, instead of carving the whole pool first and
  // leaving the running job's demand over-committed.
  PriorityScheduler prio;
  JobState train = state_of(job(0, 0.0, 100, 4, 1.0));
  train.alloc = Allocation::of(DeviceType::kV100, 4);
  JobSpec serve_spec = job(1, 0.0, 1, 1, 10.0);
  serve_spec.kind = JobKind::kServe;
  JobState serve = state_of(serve_spec);
  serve.live_min_gpus = 1;
  serve.live_max_gpus = 8;
  serve.desired_gpus = 8;
  const auto out = prio.schedule(v100s(6), {&train, &serve}, 0.0);
  EXPECT_EQ(out.at(0).total(), 4);
  EXPECT_EQ(out.at(1).total(), 2);
}

TEST(PriorityStatic, NeverResizes) {
  PriorityScheduler prio;
  auto res = simulate(v100s(4),
                      {job(0, 0.0, 500, 2, 1.0), job(1, 5.0, 500, 2, 5.0)}, prio);
  for (const JobState& j : res.jobs) EXPECT_EQ(j.resizes, 0);
}

}  // namespace
}  // namespace vf
