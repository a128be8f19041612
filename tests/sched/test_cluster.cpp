// ClusterController: the one device economy. Covers the grant/lease
// protocol (fake + real holders), the defensive over-commit and
// serve-band checks, the static-partition baseline, fault-driven
// re-grants with zero loss, bit-identical replay across host worker
// counts, and a golden hash of one mixed-tenant run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "sched/cluster.h"
#include "sched/gavel.h"
#include "sched/wfs.h"
#include "serve/arrival.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

constexpr std::uint64_t kSeed = 42;

ClusterInventory v100s(std::int64_t n) {
  ClusterInventory c;
  c.per_type[DeviceType::kV100] = n;
  return c;
}

JobSpec train_spec(std::int64_t id, double arrival, std::int64_t steps,
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

JobSpec serve_spec(std::int64_t id, std::int64_t demand, std::int64_t min_gpus,
                   std::int64_t max_gpus, double priority = 10.0) {
  JobSpec j;
  j.id = id;
  j.kind = JobKind::kServe;
  j.priority = priority;
  j.demand_gpus = demand;
  j.min_gpus = min_gpus;
  j.max_gpus = max_gpus;
  return j;
}

/// Minimal scripted lease: reports a fixed backlog from `burst_from_s`
/// until `busy_until_s`, then drains. While busy it ticks every `tick_s`,
/// the way a real lease reports its slice events, so the controller
/// re-reads its load. An optional fault at `kill_at_s` (a tick stamp)
/// lowers the ceiling to `max_after_kill` and, with `kill_sheds`, takes
/// one held device. Lets the contract tests run without a full serving
/// rig.
struct FakeServeLease : sched::DeviceLease {
  double busy_until_s = 2.0;
  double tick_s = 0.25;
  double burst_from_s = 0.0;
  std::int64_t queue_depth = 100;
  std::int64_t max_devices = 8;
  double kill_at_s = std::numeric_limits<double>::infinity();
  std::int64_t max_after_kill = 0;  ///< 0 = the kill leaves the ceiling
  bool kill_sheds = false;
  double clock_ = 0.0;
  std::int64_t devices_ = 1;
  std::vector<std::int64_t> grants_seen;

  bool killed() const { return clock_ >= kill_at_s; }
  double next_event_s() const override {
    if (clock_ >= busy_until_s) return std::numeric_limits<double>::infinity();
    return std::min(busy_until_s, (std::floor(clock_ / tick_s + 1e-9) + 1.0) * tick_s);
  }
  void pump(double horizon_s) override {
    const bool was_killed = killed();
    if (horizon_s < std::numeric_limits<double>::infinity())
      clock_ = std::max(clock_, horizon_s);
    if (!was_killed && killed() && kill_sheds) --devices_;
  }
  sched::LoadSignal load() const override {
    sched::LoadSignal s;
    s.queue_depth = clock_ >= burst_from_s && clock_ < busy_until_s ? queue_depth : 0;
    s.devices = devices_;
    s.min_devices = 1;
    s.max_devices = killed() && max_after_kill > 0 ? max_after_kill : max_devices;
    s.high_watermark = 8;
    s.low_watermark = 1;
    s.drained = clock_ >= busy_until_s;
    return s;
  }
  double apply_grant(std::int64_t devices) override {
    if (devices == devices_) return 0.0;
    devices_ = devices;
    grants_seen.push_back(devices);
    return 0.1;
  }
  bool drained() const override { return clock_ >= busy_until_s; }
};

TEST(ClusterController, ValidatesConstructionAndSpecs) {
  ElasticWfsScheduler wfs;
  EXPECT_THROW(ClusterController(v100s(0), wfs), VfError);

  ClusterController c(v100s(4), wfs);
  c.add_train_job(train_spec(0, 0.0, 10, 2));
  EXPECT_THROW(c.add_train_job(train_spec(0, 0.0, 10, 2)), VfError);  // dup id
  EXPECT_THROW(c.add_train_job(serve_spec(1, 2, 1, 4)), VfError);  // wrong kind

  FakeServeLease lease;
  EXPECT_THROW(c.add_serve_job(train_spec(2, 0.0, 10, 2), lease), VfError);
  JobSpec bad = serve_spec(3, 2, /*min=*/0, /*max=*/4);
  EXPECT_THROW(c.add_serve_job(bad, lease), VfError);  // min_gpus < 1

  ClusterController empty(v100s(4), wfs);
  EXPECT_THROW(empty.run(), VfError);  // no jobs
}

TEST(ClusterController, FinishedAnalyticJobReleasesItsAllocation) {
  // The short job completes long before the long one; its devices and its
  // timeline must close at its own completion stamp, not at the run's end.
  ElasticWfsScheduler wfs;
  ClusterController c(v100s(4), wfs);
  c.add_train_job(train_spec(0, 0.0, 100, 2));
  c.add_train_job(train_spec(1, 0.0, 2000, 2));
  const ClusterReport report = c.run();

  const JobState& short_job = report.jobs[0];
  const JobState& long_job = report.jobs[1];
  ASSERT_TRUE(short_job.finished());
  ASSERT_TRUE(long_job.finished());
  ASSERT_LT(short_job.completion_s, long_job.completion_s);
  ASSERT_FALSE(short_job.timeline.empty());
  EXPECT_EQ(short_job.timeline.back().t1, short_job.completion_s);
  EXPECT_TRUE(short_job.alloc.empty());
  EXPECT_EQ(long_job.timeline.back().t1, long_job.completion_s);
  EXPECT_TRUE(long_job.alloc.empty());
}

TEST(ClusterController, OverCommittingPolicyFailsLoudly) {
  struct Greedy : Scheduler {
    std::map<std::int64_t, Allocation> schedule(
        const ClusterInventory&, const std::vector<const JobState*>& jobs,
        double) override {
      std::map<std::int64_t, Allocation> out;
      for (const JobState* j : jobs)
        out[j->spec.id] = Allocation::of(DeviceType::kV100, 100);
      return out;
    }
    std::string name() const override { return "greedy"; }
  } policy;
  ClusterController c(v100s(4), policy);
  c.add_train_job(train_spec(0, 0.0, 10, 2));
  EXPECT_THROW(c.run(), VfError);
}

TEST(ClusterController, ServeGrantOutsideLiveBandFailsLoudly) {
  // A policy that ignores serving jobs entirely grants them 0 devices —
  // below the latency-critical floor. The controller must refuse to
  // forward that to the lease.
  struct TrainOnly : Scheduler {
    std::map<std::int64_t, Allocation> schedule(
        const ClusterInventory&, const std::vector<const JobState*>&,
        double) override {
      return {};
    }
    std::string name() const override { return "train-only"; }
  } policy;
  ClusterController c(v100s(8), policy);
  FakeServeLease lease;
  c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
  EXPECT_THROW(c.run(), VfError);
}

TEST(ClusterController, WfsGrowsBackloggedServingJob) {
  ElasticWfsScheduler wfs;
  ClusterController c(v100s(16), wfs);
  FakeServeLease lease;
  c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
  c.add_train_job(train_spec(1, 0.0, 2000, 8));
  const ClusterReport report = c.run();

  // Sustained backlog over the high watermark must have doubled the
  // serving device-set toward its ceiling, through grants only.
  EXPECT_FALSE(lease.grants_seen.empty());
  EXPECT_GT(*std::max_element(lease.grants_seen.begin(), lease.grants_seen.end()),
            1);
  for (const GrantRecord& g : report.grants) {
    if (report.jobs[0].spec.id != g.job_id) continue;
    EXPECT_GE(g.to_devices, 1);
    EXPECT_LE(g.to_devices, 8);
  }
  EXPECT_TRUE(report.jobs[0].finished());
  EXPECT_TRUE(report.jobs[1].finished());
  EXPECT_GT(report.train_makespan_s, 0.0);
}

TEST(ClusterController, StaticPartitionPinsServingAtProvisionedSize) {
  ElasticWfsScheduler wfs;
  StaticPartitionScheduler policy(wfs, DeviceType::kV100);
  EXPECT_EQ(policy.name(), "static(elastic-wfs)");

  ClusterController c(v100s(16), policy);
  FakeServeLease lease;  // backlog wants 8, partition pins 4
  c.add_serve_job(serve_spec(0, /*demand=*/4, 1, 8), lease);
  c.add_train_job(train_spec(1, 0.0, 500, 12));
  const ClusterReport report = c.run();

  ASSERT_FALSE(report.grants.empty());
  for (const GrantRecord& g : report.grants) {
    if (g.job_id == 0) {
      EXPECT_EQ(g.to_devices, 4) << "partition must pin serving";
    }
  }
  EXPECT_EQ(lease.devices_, 4);
  EXPECT_TRUE(report.jobs[1].finished());
}

// ---------------------------------------------------------------------------
// The consult rule: the controller skips the policy while its decision
// inputs hold, so each input must, on its own, bring the policy back. One
// case per input, each changing that input alone at a stamp where no other
// one moves.
// ---------------------------------------------------------------------------

/// Stamp of the first resize of `job` at or after `from_s` in the
/// direction `grow` (the initial placement from zero devices does not
/// count); +inf when there is none.
double first_grant_s(const ClusterReport& report, std::int64_t job, double from_s,
                     bool grow) {
  for (const GrantRecord& g : report.grants) {
    if (g.job_id != job || g.time_s < from_s || g.from_devices == 0) continue;
    if ((g.to_devices > g.from_devices) == grow) return g.time_s;
  }
  return std::numeric_limits<double>::infinity();
}

TEST(ClusterController, ConsultsWhenAnyDecisionInputChanges) {
  GavelOptions slow_rounds;
  slow_rounds.round_s = 10.0;
  slow_rounds.restart_penalty_s = 0.2;
  {
    SCOPED_TRACE("desire: a backlog arriving mid-round is granted at its stamp");
    GavelScheduler gavel(slow_rounds);
    ClusterController c(v100s(16), gavel);
    FakeServeLease lease;
    lease.burst_from_s = 3.0;
    lease.busy_until_s = 6.0;
    c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
    c.add_train_job(train_spec(1, 0.0, 20000, 4));
    const ClusterReport report = c.run();
    EXPECT_EQ(first_grant_s(report, 0, 0.0, /*grow=*/true), 3.0);
  }
  {
    SCOPED_TRACE("live band: a kill lowers the ceiling below the held set");
    // Static partition pins the lease at clamp(demand, live band) and
    // ignores its desire, which an empty queue holds at 3 either side of
    // the kill; the fake sheds nothing, so the band alone moves.
    GavelScheduler gavel(slow_rounds);
    StaticPartitionScheduler policy(gavel, DeviceType::kV100);
    ClusterController c(v100s(16), policy);
    FakeServeLease lease;
    lease.queue_depth = 0;
    lease.busy_until_s = 6.0;
    lease.kill_at_s = 3.0;
    lease.max_after_kill = 4;
    c.add_serve_job(serve_spec(0, /*demand=*/6, 1, 8), lease);
    c.add_train_job(train_spec(1, 0.0, 20000, 4));
    const ClusterReport report = c.run();
    EXPECT_EQ(first_grant_s(report, 0, 0.0, /*grow=*/false), 3.0);
    EXPECT_EQ(lease.grants_seen, (std::vector<std::int64_t>{6, 4}));
  }
  {
    SCOPED_TRACE("allocation: a kill takes one of the held devices");
    // The lease's own ceiling (16) sits above the spec's (8) and the
    // backlog keeps the desire at 8, so only the recorded allocation moves.
    GavelScheduler gavel(slow_rounds);
    ClusterController c(v100s(16), gavel);
    FakeServeLease lease;
    lease.busy_until_s = 6.0;
    lease.max_devices = 16;
    lease.kill_at_s = 3.0;
    lease.kill_sheds = true;
    c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
    c.add_train_job(train_spec(1, 0.0, 20000, 4));
    const ClusterReport report = c.run();
    const auto regrant =
        std::find_if(report.grants.begin(), report.grants.end(),
                     [](const GrantRecord& g) { return g.job_id == 0 && g.time_s >= 3.0; });
    ASSERT_NE(regrant, report.grants.end());
    EXPECT_EQ(regrant->time_s, 3.0);
    EXPECT_EQ(regrant->from_devices, 7);
    EXPECT_EQ(regrant->to_devices, 8);
  }
  {
    SCOPED_TRACE("active set: an arrival between lease ticks under WFS");
    ElasticWfsScheduler wfs;
    ClusterController c(v100s(16), wfs);
    FakeServeLease lease;
    lease.queue_depth = 0;
    lease.busy_until_s = 6.0;
    c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
    c.add_train_job(train_spec(1, 0.0, 20000, 8));
    c.add_train_job(train_spec(2, 1.3, 20000, 8));
    const ClusterReport report = c.run();
    EXPECT_EQ(report.jobs[2].first_start_s, 1.3);
  }
  {
    SCOPED_TRACE("round: a bare tick re-ranks by attained service");
    // Two jobs that each fill the training side: LAS hands it to the one
    // with less attained service at every boundary, so job 2 takes over
    // at the first tick. The idle lease's ticks before it change nothing.
    GavelOptions opt;
    opt.round_s = 2.0;
    opt.restart_penalty_s = 0.2;
    GavelScheduler gavel(opt);
    ClusterController c(v100s(5), gavel);
    FakeServeLease lease;
    lease.queue_depth = 0;
    lease.busy_until_s = 6.0;
    c.add_serve_job(serve_spec(0, 1, 1, 8), lease);
    c.add_train_job(train_spec(1, 0.0, 2000, 4));
    c.add_train_job(train_spec(2, 0.0, 2000, 4));
    const ClusterReport report = c.run();
    EXPECT_EQ(report.jobs[1].first_start_s, 0.0);
    EXPECT_EQ(report.jobs[2].first_start_s, 2.0);
  }
}

TEST(ClusterController, ExportsEventAndConsultCounts) {
  // "sched.events" counts loop iterations: the lease's 24 ticks up to 6 s
  // and the training job's completion. "sched.policy_calls" counts
  // consults: t = 0, the growth grants at 0.25 s and 0.5 s, the consult
  // after the last grant that finds nothing to move, and the lease's
  // retirement at 6 s. Every other tick skips the policy.
  struct Counting : ElasticWfsScheduler {
    std::int64_t calls = 0;
    std::map<std::int64_t, Allocation> schedule(
        const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
        double now) override {
      ++calls;
      return ElasticWfsScheduler::schedule(cluster, jobs, now);
    }
  } policy;
  obs::MetricsRegistry metrics;
  ClusterController c(v100s(16), policy);
  c.set_observability({nullptr, &metrics});
  FakeServeLease lease;
  lease.busy_until_s = 6.0;
  c.add_serve_job(serve_spec(0, 2, 1, 8), lease);
  c.add_train_job(train_spec(1, 0.0, 20000, 4));
  c.run();
  EXPECT_EQ(lease.grants_seen, (std::vector<std::int64_t>{2, 4, 8}));
  const obs::Counter* events = metrics.find_counter("sched.events");
  const obs::Counter* calls = metrics.find_counter("sched.policy_calls");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(events->value, 25);
  EXPECT_EQ(calls->value, 5);
  EXPECT_EQ(policy.calls, 5);
}

// ---------------------------------------------------------------------------
// Real serving rig (mrpc-sim proxy task, as tests/serve uses).
// ---------------------------------------------------------------------------

struct Rig {
  ProxyTask task;
  Sequential model;
  TrainRecipe recipe;
};

Rig make_rig() {
  return Rig{make_task("mrpc-sim", kSeed), make_proxy_model("mrpc-sim", kSeed),
             make_recipe("mrpc-sim")};
}

VirtualFlowEngine make_engine(Rig& rig, std::int64_t devices, std::int64_t workers,
                              std::int64_t vns = 8) {
  EngineConfig cfg;
  cfg.seed = kSeed;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  return VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                           *rig.task.train, model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, rig.recipe.global_batch),
                           cfg);
}

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.continuous = true;
  cfg.queue_capacity = 4096;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  cfg.deadline_s = 0.5;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

std::vector<serve::InferRequest> burst_trace(const Dataset& pool) {
  return serve::phased_poisson_trace(
      kSeed,
      {{/*rate_rps=*/300.0, /*duration_s=*/0.5},
       {/*rate_rps=*/2500.0, /*duration_s=*/1.0},
       {/*rate_rps=*/150.0, /*duration_s=*/2.0}},
      pool.size());
}

/// The serving lease's streams, with the whole controller report as its
/// lease stream.
serve::RunDigest run_cosched(std::int64_t workers) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, workers);
  serve::Server server(engine, *rig.task.val, serve_config());
  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);  // begin() keeps a pointer
  server.begin(trace);

  ElasticWfsScheduler wfs;
  ClusterController c(v100s(12), wfs);
  c.add_serve_job(serve_spec(0, /*demand=*/4, 1, 8), server);
  c.add_train_job(train_spec(1, 0.0, 1500, 4));
  const ClusterReport report = c.run();
  server.finish();

  EXPECT_GT(server.slo().completed(), 0);
  serve::RunDigest d = serve::digest(server);
  d.lease = serve::report_digest(report);
  return d;
}

TEST(ClusterController, ServerLeaseEndToEnd) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, /*workers=*/0);
  serve::Server server(engine, *rig.task.val, serve_config());
  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);
  ASSERT_GT(trace.size(), 100u);
  server.begin(trace);

  ElasticWfsScheduler wfs;
  ClusterController c(v100s(12), wfs);
  c.add_serve_job(serve_spec(0, 4, 1, 8), server);
  c.add_train_job(train_spec(1, 0.0, 1500, 4));
  const ClusterReport report = c.run();
  server.finish();

  // Conservation: every request was served or explicitly rejected, and
  // the lease drained before the controller retired it.
  EXPECT_EQ(server.slo().completed() + server.slo().rejected(),
            static_cast<std::int64_t>(trace.size()));
  EXPECT_GT(server.slo().completed(), 0);
  EXPECT_TRUE(server.drained());
  EXPECT_TRUE(report.jobs[0].finished());
  EXPECT_TRUE(report.jobs[1].finished());
  EXPECT_GT(report.train_makespan_s, 0.0);

  // Every grant stayed inside the serving band; the burst forced growth.
  bool grew = false;
  for (const GrantRecord& g : report.grants) {
    if (g.job_id != 0) continue;
    EXPECT_GE(g.to_devices, 1);
    EXPECT_LE(g.to_devices, 8);
    if (g.to_devices > g.from_devices) grew = true;
  }
  EXPECT_TRUE(grew) << "the burst must force at least one growth grant";
}

TEST(ClusterController, BitIdenticalAcrossWorkerCounts) {
  const serve::RunDigest base = run_cosched(/*workers=*/0);
  for (std::int64_t workers : {2, 8})
    EXPECT_EQ(serve::first_difference(base, run_cosched(workers)), nullptr)
        << "workers=" << workers;
}

TEST(ClusterController, FaultKillForcesRegrantWithZeroLoss) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  serve::Server server(engine, *rig.task.val, serve_config());

  fault::FaultPlan plan;
  plan.kill(/*time_s=*/0.8, /*device=*/0).recover(/*time_s=*/1.6);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);

  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);
  server.begin(trace);

  ElasticWfsScheduler wfs;
  ClusterController c(v100s(12), wfs);
  c.add_serve_job(serve_spec(0, 4, 1, 8), server);
  c.add_train_job(train_spec(1, 0.0, 1500, 4));
  const ClusterReport report = c.run();
  server.finish();

  // Zero loss: the kill evicted and requeued work, but every request is
  // accounted for and the trace fully drained.
  EXPECT_EQ(server.slo().completed() + server.slo().rejected(),
            static_cast<std::int64_t>(trace.size()));
  EXPECT_TRUE(server.drained());
  EXPECT_TRUE(report.jobs[1].finished()) << "training rides through the fault";

  // The policy re-granted after the kill: the controller saw the capped
  // ceiling / shrunk device-set through load() and kept governing.
  bool regranted = false;
  for (const GrantRecord& g : report.grants) {
    if (g.job_id == 0 && g.time_s > 0.8) regranted = true;
  }
  EXPECT_TRUE(regranted) << "no grant after the kill — controller stopped governing";
}

TEST(EngineTrainLease, RunsGrantedEngineToCompletion) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/2, /*workers=*/0);
  EXPECT_THROW(EngineTrainLease(engine, 25, DeviceType::kP100), VfError)
      << "grants are filled with pool_type devices, so the engine must start on them";
  EngineTrainLease lease(engine, /*total_steps=*/25, DeviceType::kV100);

  JobSpec spec = train_spec(0, 0.0, 25, 2);
  spec.workload = "bert-base";
  spec.profile = model_profile("bert-base");
  spec.global_batch = rig.recipe.global_batch;

  ElasticWfsScheduler wfs;
  ClusterController c(v100s(4), wfs);
  c.add_train_lease(spec, lease);
  const ClusterReport report = c.run();

  EXPECT_EQ(lease.steps_done(), 25);
  EXPECT_TRUE(lease.drained());
  EXPECT_TRUE(report.jobs[0].finished());
  EXPECT_NEAR(report.jobs[0].completion_s, engine.sim_time_s(), 1e-9)
      << "controller completion stamps at the engine's virtual clock";
  EXPECT_GT(report.train_makespan_s, 0.0);
}

TEST(EngineTrainLease, ZeroGlobalBatchRejectedAtAdd) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/2, /*workers=*/0);
  EngineTrainLease lease(engine, /*total_steps=*/25, DeviceType::kV100);
  JobSpec spec = train_spec(0, 0.0, 25, 2);
  spec.global_batch = 0;

  ElasticWfsScheduler wfs;
  ClusterController c(v100s(4), wfs);
  EXPECT_THROW(c.add_train_lease(spec, lease), VfError);
}

TEST(EngineTrainLease, FullPreemptionPausesAndResumes) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/2, /*workers=*/0);
  EngineTrainLease lease(engine, /*total_steps=*/40, DeviceType::kV100);

  JobSpec lease_spec = train_spec(0, 0.0, 40, 2, /*priority=*/1.0);
  lease_spec.workload = "bert-base";
  lease_spec.profile = model_profile("bert-base");
  lease_spec.global_batch = rig.recipe.global_batch;

  // A much heavier-weighted analytic job arrives mid-run; WFS water-fills
  // the 2-GPU cluster as 10:1 which rounds to 2/0 — the lease is fully
  // preempted (grant 0) and re-granted when the heavy job completes.
  ElasticWfsScheduler policy;
  ClusterController c(v100s(2), policy);
  c.add_train_lease(lease_spec, lease);
  c.add_train_job(train_spec(1, 0.5, 400, 2, /*priority=*/10.0));
  const ClusterReport report = c.run();

  EXPECT_EQ(lease.steps_done(), 40);
  EXPECT_TRUE(report.jobs[0].finished());
  EXPECT_TRUE(report.jobs[1].finished());
  EXPECT_GT(report.jobs[0].completion_s, report.jobs[1].completion_s)
      << "preempted lease finishes after the high-priority job";

  bool preempted = false, resumed = false;
  for (const GrantRecord& g : report.grants) {
    if (g.job_id != 0) continue;
    if (g.to_devices == 0) preempted = true;
    if (preempted && g.to_devices > 0) resumed = true;
  }
  EXPECT_TRUE(preempted) << "priority arrival must fully preempt the lease";
  EXPECT_TRUE(resumed) << "lease must be re-granted after the job completes";
}

/// Counts every lease call the controller makes, and the pumps it issues
/// below the stamp its latest next_event_s() read returned.
struct CountingLease : sched::DeviceLease {
  explicit CountingLease(sched::DeviceLease& inner) : inner(inner) {}
  sched::DeviceLease& inner;
  mutable std::int64_t calls = 0;
  mutable double last_next_s = -std::numeric_limits<double>::infinity();
  std::int64_t pumps = 0;
  std::int64_t idle = 0;

  double next_event_s() const override {
    ++calls;
    return last_next_s = inner.next_event_s();
  }
  void pump(double horizon_s) override {
    ++calls;
    ++pumps;
    if (last_next_s > horizon_s) ++idle;
    inner.pump(horizon_s);
  }
  sched::LoadSignal load() const override {
    ++calls;
    return inner.load();
  }
  double apply_grant(std::int64_t devices) override {
    ++calls;
    return inner.apply_grant(devices);
  }
  bool drained() const override {
    ++calls;
    return inner.drained();
  }
};

TEST(ClusterController, CountsIdlePumpsWithoutExtraLeaseCalls) {
  // "sched.idle_pumps" counts the pumps issued to a lease whose next
  // event, as the event's own next_event_s() read returned it, lies past
  // the horizon. It takes that stamp from the read the loop already made,
  // so attaching metrics adds no lease call and moves no decision.
  struct Counts {
    std::int64_t calls = 0, pumps = 0, idle = 0, counted = -1;
    std::uint64_t report = 0;
  };
  const auto run = [](bool attach) {
    Rig rig = make_rig();
    VirtualFlowEngine engine = make_engine(rig, 1, /*workers=*/0);
    serve::Server server(engine, *rig.task.val, serve_config());
    server.set_cluster_governed();
    const auto trace = burst_trace(*rig.task.val);
    server.begin(trace);
    CountingLease lease(server);
    ElasticWfsScheduler wfs;
    obs::MetricsRegistry metrics;
    ClusterController c(v100s(16), wfs);
    if (attach) c.set_observability({nullptr, &metrics});
    c.add_serve_job(serve_spec(0, 4, 1, 8), lease);
    // Jobs arriving mid-burst: their arrival events pump the lease between
    // its own events.
    for (std::int64_t i = 0; i < 3; ++i)
      c.add_train_job(train_spec(1 + i, 0.35 * static_cast<double>(i), 500, 2));
    const ClusterReport report = c.run();
    EXPECT_TRUE(server.drained());
    Counts out{lease.calls, lease.pumps, lease.idle};
    if (const obs::Counter* idle = metrics.find_counter("sched.idle_pumps"))
      out.counted = idle->value;
    out.report = serve::report_digest(report);
    return out;
  };
  const Counts on = run(true);
  const Counts off = run(false);
  EXPECT_GT(on.idle, 0);
  EXPECT_LT(on.idle, on.pumps);
  EXPECT_EQ(on.counted, on.idle);
  EXPECT_EQ(off.counted, -1) << "no registry, no counter";
  EXPECT_EQ(on.calls, off.calls) << "counting makes no lease call";
  EXPECT_EQ(on.idle, off.idle);
  EXPECT_EQ(on.report, off.report);
}

// ---------------------------------------------------------------------------
// Golden pin: one mixed run — a real serving lease, a real EngineTrainLease
// and analytic jobs under Gavel's LAS rounds — reduced to the report
// digest (serve/digest.h): an FNV-1a hash over every JobState field, every
// grant and the final clock. Gavel ranks by attained_service, so both
// attained-service formulas (analytic and train lease) feed its decisions
// as well as the hash.
// ---------------------------------------------------------------------------

TEST(ClusterController, GoldenMixedTenantRun) {
  Rig serve_rig = make_rig();
  VirtualFlowEngine serve_engine = make_engine(serve_rig, 1, /*workers=*/0);
  serve::Server server(serve_engine, *serve_rig.task.val, serve_config());
  server.set_cluster_governed();
  const auto trace = burst_trace(*serve_rig.task.val);
  server.begin(trace);

  Rig train_rig = make_rig();
  VirtualFlowEngine train_engine = make_engine(train_rig, /*devices=*/2, /*workers=*/0);
  EngineTrainLease lease(train_engine, /*total_steps=*/30, DeviceType::kV100);
  JobSpec lease_spec = train_spec(1, 0.0, 30, 2);
  lease_spec.workload = "bert-base";
  lease_spec.profile = model_profile("bert-base");
  lease_spec.global_batch = train_rig.recipe.global_batch;

  GavelOptions gopt;
  gopt.round_s = 0.5;
  gopt.restart_penalty_s = 0.2;
  GavelScheduler gavel(gopt);
  ClusterController c(v100s(16), gavel);
  c.add_serve_job(serve_spec(0, 4, 1, 8), server);
  c.add_train_lease(lease_spec, lease);
  for (std::int64_t i = 0; i < 6; ++i) {
    c.add_train_job(train_spec(10 + i, 0.3 * static_cast<double>(i), 400 + 150 * i,
                               2 + 2 * (i % 3)));
  }
  const ClusterReport report = c.run();
  server.finish();

  ASSERT_TRUE(server.drained());
  ASSERT_EQ(lease.steps_done(), 30);
  for (const JobState& j : report.jobs) ASSERT_TRUE(j.finished()) << j.spec.id;
  EXPECT_GT(report.jobs[1].attained_service, 0.0) << "the train lease accrued service";
  // The hash of this run when the pin was taken. A change here means a
  // controller decision or an attained-service bit moved.
  EXPECT_EQ(hex(serve::report_digest(report)), hex(0x7748c08c880d0acfull));
}

}  // namespace
}  // namespace vf
