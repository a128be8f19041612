// Event-driven cluster simulator: conservation laws, timing identities,
// and a golden pin of the paper-figure schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sched/gavel.h"
#include "sched/simulator.h"
#include "sched/trace.h"
#include "sched/wfs.h"
#include "serve/digest.h"
#include "util/common.h"
#include "workloads/profiles.h"

namespace vf {
namespace {

JobSpec basic_job(std::int64_t id, double arrival, std::int64_t steps,
                  std::int64_t demand, double priority = 1.0) {
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

ClusterInventory v100s(std::int64_t n) {
  ClusterInventory c;
  c.per_type[DeviceType::kV100] = n;
  return c;
}

TEST(Simulator, SingleJobRunsToCompletion) {
  PriorityScheduler policy;
  const auto res = simulate(v100s(4), {basic_job(0, 0.0, 500, 2)}, policy);
  ASSERT_EQ(res.jobs.size(), 1u);
  const JobState& j = res.jobs[0];
  EXPECT_TRUE(j.finished());
  EXPECT_DOUBLE_EQ(j.first_start_s, 0.0);
  // Completion = steps x step_time at 2 GPUs.
  const double expect = 500.0 * allocation_step_time_s(j.spec.profile, 128,
                                                       Allocation::of(DeviceType::kV100, 2));
  EXPECT_NEAR(j.completion_s, expect, 1e-6);
  EXPECT_NEAR(res.makespan_s, expect, 1e-6);
}

TEST(Simulator, TimelineCoversRunDuration) {
  PriorityScheduler policy;
  const auto res = simulate(v100s(2), {basic_job(0, 10.0, 200, 2)}, policy);
  const JobState& j = res.jobs[0];
  ASSERT_EQ(j.timeline.size(), 1u);
  EXPECT_DOUBLE_EQ(j.timeline[0].t0, 10.0);
  EXPECT_DOUBLE_EQ(j.timeline[0].t1, j.completion_s);
  EXPECT_EQ(j.timeline[0].alloc.total(), 2);
}

TEST(Simulator, QueuedJobWaitsForFreeGpus) {
  PriorityScheduler policy;
  auto res = simulate(v100s(2),
                      {basic_job(0, 0.0, 300, 2), basic_job(1, 1.0, 300, 2)}, policy);
  const JobState& j0 = res.jobs[0];
  const JobState& j1 = res.jobs[1];
  EXPECT_NEAR(j1.first_start_s, j0.completion_s, 1e-6);
  EXPECT_GT(j1.first_start_s - j1.spec.arrival_s, 0.0);  // queueing delay
}

TEST(Simulator, ArrivalJustAfterAnEventStartsImmediately) {
  // Job 1 lands 0.5 ns after job 0. Both fit on the 4 GPUs at once, so
  // job 1 must start at its own arrival, not wait for a later event.
  PriorityScheduler policy;
  const auto res = simulate(
      v100s(4), {basic_job(0, 0.0, 500, 2), basic_job(1, 5e-10, 500, 2)}, policy);
  const JobState& j0 = res.jobs[0];
  const JobState& j1 = res.jobs[1];
  EXPECT_EQ(j1.first_start_s, 5e-10);
  EXPECT_LT(j1.first_start_s, j0.completion_s);
  ASSERT_EQ(j1.timeline.size(), 1u);
  EXPECT_EQ(j1.timeline[0].alloc.total(), 2);
}

TEST(Simulator, ArrivalJustBeforeARoundBoundaryStartsThatRound) {
  // Gavel with 2 s rounds: job 0 fixes round 0's decision at t = 0, and
  // job 1 lands a few ns before the 2 s boundary with room to spare. The
  // controller ticks rounds and Gavel recomputes them by one rule
  // (round_index), so job 1 starts by 2 s whichever side of the
  // boundary's float slack it lands on; it must never wait for round 2.
  for (const double early : {0.5e-9, 1.5e-9, 3e-9}) {
    GavelOptions opt;
    opt.round_s = 2.0;
    GavelScheduler gavel(opt);
    const auto res = simulate(
        v100s(8), {basic_job(0, 0.0, 20000, 2), basic_job(1, 2.0 - early, 20000, 2)},
        gavel);
    const JobState& j1 = res.jobs[1];
    EXPECT_GE(j1.first_start_s, j1.spec.arrival_s) << early;
    EXPECT_LE(j1.first_start_s, 2.0) << "arrival " << early << " s before the boundary";
  }
}

TEST(Simulator, UtilizationBetweenZeroAndOne) {
  PriorityScheduler policy;
  const auto res = simulate(
      v100s(4), {basic_job(0, 0.0, 200, 2), basic_job(1, 5.0, 200, 4)}, policy);
  EXPECT_GT(res.avg_utilization, 0.0);
  EXPECT_LE(res.avg_utilization, 1.0 + 1e-9);
}

TEST(Simulator, JctAndQueueingDelayVectors) {
  PriorityScheduler policy;
  const auto res = simulate(v100s(2),
                            {basic_job(0, 0.0, 100, 2), basic_job(1, 0.0, 100, 2)},
                            policy);
  EXPECT_EQ(res.jcts().size(), 2u);
  EXPECT_EQ(res.queueing_delays().size(), 2u);
  for (double d : res.queueing_delays()) EXPECT_GE(d, -1e-9);
  for (double j : res.jcts()) EXPECT_GT(j, 0.0);
}

TEST(Simulator, ElasticResizePausesJob) {
  // With WFS, a second arrival forces a resize of the first job; the
  // resize costs ~1 s of paused progress. Jobs must be long enough to
  // still be running at the second arrival.
  ElasticWfsScheduler policy;
  auto res = simulate(v100s(4),
                      {basic_job(0, 0.0, 20000, 4), basic_job(1, 5.0, 20000, 4)},
                      policy);
  EXPECT_GE(res.jobs[0].resizes, 1);
  EXPECT_TRUE(res.jobs[0].finished());
  EXPECT_TRUE(res.jobs[1].finished());
}

TEST(Simulator, AttainedServiceAccumulates) {
  PriorityScheduler policy;
  const auto res = simulate(v100s(2), {basic_job(0, 0.0, 100, 2)}, policy);
  EXPECT_GT(res.jobs[0].attained_service, 0.0);
}

TEST(Simulator, ValidationErrors) {
  PriorityScheduler policy;
  EXPECT_THROW(simulate(v100s(0), {basic_job(0, 0.0, 100, 1)}, policy), VfError);
  EXPECT_THROW(simulate(v100s(2), {}, policy), VfError);
  EXPECT_THROW(simulate(v100s(2), {basic_job(0, 0.0, 0, 1)}, policy), VfError);
}

TEST(Simulator, OvercommittingPolicyRejected) {
  struct Greedy : Scheduler {
    std::map<std::int64_t, Allocation> schedule(const ClusterInventory&,
                                                const std::vector<const JobState*>& jobs,
                                                double) override {
      std::map<std::int64_t, Allocation> out;
      for (const JobState* j : jobs)
        out[j->spec.id] = Allocation::of(DeviceType::kV100, 100);
      return out;
    }
    std::string name() const override { return "greedy"; }
  } policy;
  EXPECT_THROW(simulate(v100s(2), {basic_job(0, 0.0, 10, 1)}, policy), VfError);
}

TEST(Simulator, StalledPolicyDetected) {
  struct Lazy : Scheduler {
    std::map<std::int64_t, Allocation> schedule(const ClusterInventory&,
                                                const std::vector<const JobState*>&,
                                                double) override {
      return {};  // never allocates anything
    }
    std::string name() const override { return "lazy"; }
  } policy;
  EXPECT_THROW(simulate(v100s(2), {basic_job(0, 0.0, 10, 1)}, policy), VfError);
}

// ---------------------------------------------------------------------------
// Golden pin: the exact traces and policies of bench_fig10_elastic3,
// bench_fig11_12_elastic20, bench_fig15_gavel and bench_fig16_gavel_trace,
// reduced to one FNV-1a hash per (trace, policy) over every bit of the
// resulting schedule.
// ---------------------------------------------------------------------------

// remaining_steps is deliberately not hashed: a finished job's residual is
// a sub-epsilon leftover of the advancement arithmetic (any value <= 1e-6
// means "done"), not part of the schedule, and nothing downstream reads it.
std::uint64_t schedule_hash(const SimResult& res) {
  Fnv1a f;
  f.add(static_cast<std::int64_t>(res.jobs.size()));
  for (const JobState& j : res.jobs) {
    f.add(j.spec.id);
    f.add(j.first_start_s);
    f.add(j.completion_s);
    f.add(j.pause_until_s);
    f.add(j.attained_service);
    f.add(j.resizes);
    serve::add_allocation(f, j.alloc);
    f.add(static_cast<std::int64_t>(j.timeline.size()));
    for (const AllocSegment& s : j.timeline) {
      f.add(s.t0);
      f.add(s.t1);
      serve::add_allocation(f, s.alloc);
    }
  }
  f.add(res.makespan_s);
  f.add(res.avg_utilization);
  return f.h;
}

// bench_fig10_elastic3's make_job: length given as seconds at full demand.
JobSpec fig10_job(std::int64_t id, double arrival, double priority,
                  const std::string& workload, std::int64_t batch,
                  std::int64_t demand, double duration_s) {
  JobSpec j;
  j.id = id;
  j.arrival_s = arrival;
  j.priority = priority;
  j.workload = workload;
  j.profile = model_profile(workload);
  j.global_batch = batch;
  j.demand_gpus = demand;
  const double st = allocation_step_time_s(j.profile, batch,
                                           Allocation::of(DeviceType::kV100, demand));
  j.total_steps = std::max<std::int64_t>(1, static_cast<std::int64_t>(duration_s / st));
  return j;
}

ClusterInventory gavel_cluster() {
  ClusterInventory c;
  c.per_type[DeviceType::kV100] = 4;
  c.per_type[DeviceType::kP100] = 8;
  c.per_type[DeviceType::kK80] = 16;
  return c;
}

std::vector<JobSpec> gavel_trace(std::int64_t jobs, double rate, std::uint64_t seed) {
  TraceOptions opt;
  opt.num_jobs = jobs;
  opt.jobs_per_hour = rate;
  opt.seed = seed;
  opt.steps_scale = 0.5;
  opt.workloads = {"resnet50", "transformer"};
  return poisson_trace(opt);
}

struct GoldenCase {
  std::string name;
  std::uint64_t expected;
};

/// Hashes of the schedules simulate() produced when this pin was taken.
/// A change here means a paper figure's schedule moved.
const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"fig10/wfs", 0x27cf75a5a4acd5c9ull},
      {"fig10/priority", 0x75f3ac72a854ce0cull},
      {"fig11_12/wfs", 0x7dda21a5d75133e2ull},
      {"fig11_12/priority", 0x258b88163eac8376ull},
      {"fig15/r2/gavel", 0xbef07506b5188178ull},
      {"fig15/r2/gavel+ht", 0x08058b859d119c84ull},
      {"fig15/r4/gavel", 0x7397ed691ece54b6ull},
      {"fig15/r4/gavel+ht", 0xb0ad9898ba7d2022ull},
      {"fig15/r6/gavel", 0x143fb3174a8001aaull},
      {"fig15/r6/gavel+ht", 0xa29af1769e54e276ull},
      {"fig15/r8/gavel", 0xa00a758d97adf774ull},
      {"fig15/r8/gavel+ht", 0x4e6c7a3a1324b3b6ull},
      {"fig15/r10/gavel", 0xf7341360baf4cd0bull},
      {"fig15/r10/gavel+ht", 0x6e871b7f475b0407ull},
      {"fig15/r12/gavel", 0x01d1e7b04eef86efull},
      {"fig15/r12/gavel+ht", 0xa454d634dd53adecull},
      {"fig16/gavel", 0x41e34e52a1764a0dull},
      {"fig16/gavel+ht", 0xc11cb19169413e6cull},
  };
  return cases;
}

TEST(Simulator, GoldenPaperFigureSchedules) {
  std::vector<std::pair<std::string, std::uint64_t>> got;
  auto run = [&](const std::string& name, const ClusterInventory& cluster,
                 const std::vector<JobSpec>& trace, Scheduler& policy) {
    got.emplace_back(name, schedule_hash(simulate(cluster, trace, policy)));
  };

  {  // Fig 10: three jobs on 4 V100s.
    const std::vector<JobSpec> trace = {
        fig10_job(0, 0.0, 1.0, "bert-base", 64, 4, 500.0),
        fig10_job(1, 60.0, 5.0, "resnet56", 128, 2, 700.0),
        fig10_job(2, 540.0, 10.0, "bert-base", 64, 4, 800.0),
    };
    ElasticWfsScheduler wfs;
    PriorityScheduler prio;
    run("fig10/wfs", v100s(4), trace, wfs);
    run("fig10/priority", v100s(4), trace, prio);
  }
  {  // Figs 11-12: 20-job Poisson trace on 8 V100s.
    TraceOptions opt;
    opt.num_jobs = 20;
    opt.jobs_per_hour = 12.0;
    opt.seed = 1;
    opt.steps_scale = 1.0;
    auto trace = poisson_trace(opt);
    for (auto& j : trace) j.demand_gpus = std::min<std::int64_t>(j.demand_gpus, 8);
    ElasticWfsScheduler wfs;
    PriorityScheduler prio;
    run("fig11_12/wfs", v100s(8), trace, wfs);
    run("fig11_12/priority", v100s(8), trace, prio);
  }
  GavelOptions ht;
  ht.heterogeneous_allocations = true;
  for (const int rate : {2, 4, 6, 8, 10, 12}) {  // Fig 15: the rate sweep.
    const auto trace = gavel_trace(20, rate, 1);
    GavelScheduler gavel({});
    GavelScheduler gavel_ht(ht);
    const std::string prefix = "fig15/r" + std::to_string(rate) + "/";
    run(prefix + "gavel", gavel_cluster(), trace, gavel);
    run(prefix + "gavel+ht", gavel_cluster(), trace, gavel_ht);
  }
  {  // Fig 16: one 8 jobs/hour trace.
    const auto trace = gavel_trace(12, 8.0, 11);
    GavelScheduler gavel({});
    GavelScheduler gavel_ht(ht);
    run("fig16/gavel", gavel_cluster(), trace, gavel);
    run("fig16/gavel+ht", gavel_cluster(), trace, gavel_ht);
  }

  const auto& want = golden_cases();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].name);
    EXPECT_EQ(hex(got[i].second), hex(want[i].expected)) << want[i].name;
  }
}

}  // namespace
}  // namespace vf
