// Legacy-policy regression net for the co-scheduling refactor: the mixed
// train+serve code paths (serving carve-outs, mid-round cache rebuilds)
// must leave pure-training behavior exactly where it was — round
// quantization, weighted fairness, resize-penalty accounting, and
// bit-identical policy output across repeated runs of the same trace seed.
// Every built-in policy must also answer the same inputs the same way
// twice, which is what lets the controller skip unchanged consults.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/cluster.h"
#include "sched/gavel.h"
#include "sched/simulator.h"
#include "sched/trace.h"
#include "sched/wfs.h"
#include "serve/arrival.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

JobSpec train_job(std::int64_t id, double arrival, std::int64_t steps,
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

std::vector<JobSpec> seeded_trace(std::uint64_t seed) {
  TraceOptions opt;
  opt.num_jobs = 8;
  opt.jobs_per_hour = 240.0;  // compress arrivals so jobs overlap
  opt.seed = seed;
  opt.steps_scale = 0.05;
  return poisson_trace(opt);
}

TEST(PolicyRegression, GavelQuantizesMidRoundArrivalsToRoundBoundaries) {
  GavelOptions opt;
  opt.round_s = 360.0;
  GavelScheduler gavel(opt);
  // Three staggered mid-round arrivals on a contended cluster: none may
  // start (or be resized) anywhere but a round boundary.
  const auto res = simulate(
      v100s(4),
      {train_job(0, 0.0, 4000, 2), train_job(1, 100.0, 4000, 2),
       train_job(2, 500.0, 4000, 2)},
      gavel);
  for (const JobState& j : res.jobs) {
    EXPECT_TRUE(j.finished()) << "job " << j.spec.id;
    const double frac =
        std::fmod(j.first_start_s, opt.round_s) / opt.round_s;
    EXPECT_TRUE(frac < 1e-6 || frac > 1.0 - 1e-6)
        << "job " << j.spec.id << " started mid-round at " << j.first_start_s;
    for (const AllocSegment& seg : j.timeline) {
      const double f = std::fmod(seg.t0, opt.round_s) / opt.round_s;
      EXPECT_TRUE(f < 1e-6 || f > 1.0 - 1e-6)
          << "job " << j.spec.id << " reallocated mid-round at " << seg.t0;
    }
  }
}

TEST(PolicyRegression, WfsSharesTrackWeightsUnderContention) {
  ElasticWfsScheduler wfs;
  // Equal weights, saturated cluster: three jobs demanding all 8 GPUs
  // settle at the integerized equal split 3/3/2 (ties broken by id).
  const auto equal = simulate(v100s(8),
                              {train_job(0, 0.0, 3000, 8, 1.0),
                               train_job(1, 0.0, 3000, 8, 1.0),
                               train_job(2, 0.0, 3000, 8, 1.0)},
                              wfs);
  ASSERT_FALSE(equal.jobs[0].timeline.empty());
  EXPECT_EQ(equal.jobs[0].timeline[0].alloc.total(), 3);
  EXPECT_EQ(equal.jobs[1].timeline[0].alloc.total(), 3);
  EXPECT_EQ(equal.jobs[2].timeline[0].alloc.total(), 2);

  // Weighted contention: a weight-5 job arriving against a running
  // weight-1 job water-fills 8 GPUs as 8 * 5/6 -> 7 vs 1, shrinking the
  // incumbent (lower priority may be hurt; the reverse never happens).
  ElasticWfsScheduler wfs2;
  const auto weighted = simulate(v100s(8),
                                 {train_job(0, 0.0, 20000, 8, 1.0),
                                  train_job(1, 10.0, 3000, 8, 5.0)},
                                 wfs2);
  const JobState& light = weighted.jobs[0];
  const JobState& heavy = weighted.jobs[1];
  ASSERT_GE(light.timeline.size(), 2u);
  EXPECT_EQ(light.timeline[0].alloc.total(), 8) << "sole job holds the cluster";
  EXPECT_EQ(light.timeline[1].alloc.total(), 1) << "weighted share after arrival";
  ASSERT_FALSE(heavy.timeline.empty());
  EXPECT_EQ(heavy.timeline[0].alloc.total(), 7);
  EXPECT_NEAR(heavy.first_start_s, 10.0, 1e-9) << "WFS consults at arrivals";
  EXPECT_GE(light.resizes, 1);
}

TEST(PolicyRegression, ResizePenaltyChargesPausedProgress) {
  // The same trace under two penalty settings: each resize of job 0 must
  // push its completion out by exactly the penalty difference.
  struct PenaltyWfs : ElasticWfsScheduler {
    double penalty;
    explicit PenaltyWfs(double p) : penalty(p) {}
    double resize_penalty_s() const override { return penalty; }
  };
  // Job 1 outlives job 0, so job 0 resizes exactly once (the shrink at
  // job 1's arrival) and runs at the same allocation either side of the
  // pause — the completion delta is purely the penalty delta.
  const std::vector<JobSpec> trace = {train_job(0, 0.0, 20000, 4),
                                      train_job(1, 5.0, 200000, 2)};
  PenaltyWfs cheap(1.0), dear(5.0);
  const auto res_cheap = simulate(v100s(4), trace, cheap);
  const auto res_dear = simulate(v100s(4), trace, dear);

  ASSERT_EQ(res_cheap.jobs[0].resizes, 1);
  ASSERT_EQ(res_cheap.jobs[0].resizes, res_dear.jobs[0].resizes);
  const double extra =
      (dear.penalty - cheap.penalty) * static_cast<double>(res_cheap.jobs[0].resizes);
  EXPECT_NEAR(res_dear.jobs[0].completion_s - res_cheap.jobs[0].completion_s,
              extra, 1e-6)
      << "resize pauses must be charged once per resize, nothing more";
}

TEST(PolicyRegression, PolicyOutputDeterministicAcrossRepeatedRuns) {
  const auto trace = seeded_trace(7);
  ASSERT_EQ(trace.size(), 8u);

  // Same seed, same policy, run twice: every stamp bit-identical.
  for (int variant = 0; variant < 2; ++variant) {
    auto make_policy = [&]() -> std::unique_ptr<Scheduler> {
      if (variant == 0) return std::make_unique<ElasticWfsScheduler>();
      GavelOptions opt;
      opt.round_s = 60.0;
      return std::make_unique<GavelScheduler>(opt);
    };
    auto p1 = make_policy();
    auto p2 = make_policy();
    const auto a = simulate(v100s(8), trace, *p1);
    const auto b = simulate(v100s(8), trace, *p2);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.makespan_s, b.makespan_s) << p1->name();
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      const JobState& ja = a.jobs[i];
      const JobState& jb = b.jobs[i];
      EXPECT_EQ(ja.completion_s, jb.completion_s) << p1->name() << " job " << i;
      EXPECT_EQ(ja.first_start_s, jb.first_start_s) << p1->name() << " job " << i;
      EXPECT_EQ(ja.resizes, jb.resizes) << p1->name() << " job " << i;
      EXPECT_EQ(ja.attained_service, jb.attained_service)
          << p1->name() << " job " << i;
      ASSERT_EQ(ja.timeline.size(), jb.timeline.size());
      for (std::size_t s = 0; s < ja.timeline.size(); ++s) {
        EXPECT_EQ(ja.timeline[s].t0, jb.timeline[s].t0);
        EXPECT_EQ(ja.timeline[s].t1, jb.timeline[s].t1);
        EXPECT_TRUE(ja.timeline[s].alloc == jb.timeline[s].alloc);
      }
    }
  }
}

/// Asks the inner policy twice per consult with the same inputs and
/// expects the same answer both times. The controller's consult skipping
/// rests on this: a policy whose answer or state moved on a repeat would
/// need every consult the controller skips.
class AskTwice : public Scheduler {
 public:
  explicit AskTwice(Scheduler& inner) : inner_(inner) {}

  std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) override {
    const std::map<std::int64_t, Allocation> first = inner_.schedule(cluster, jobs, now);
    std::map<std::int64_t, Allocation> second = inner_.schedule(cluster, jobs, now);
    EXPECT_TRUE(first == second) << inner_.name() << " changed its answer at t=" << now;
    ++consults;
    return second;
  }
  double round_interval_s() const override { return inner_.round_interval_s(); }
  double resize_penalty_s() const override { return inner_.resize_penalty_s(); }
  std::string name() const override { return inner_.name(); }

  std::int64_t consults = 0;

 private:
  Scheduler& inner_;
};

enum class Policy { kGavel, kWfs, kPriority, kStaticGavel };

/// One mixed run: a Server lease under a burst, an EngineTrainLease and
/// four analytic jobs arriving mid-round (Gavel rounds are 0.5 s), on
/// 12 V100s, reduced to its report digest. With `ask_twice`, the
/// policy sits behind AskTwice.
std::uint64_t mixed_run(Policy which, bool ask_twice) {
  constexpr std::uint64_t kSeed = 42;
  const TrainRecipe serve_recipe = make_recipe("mrpc-sim");
  ProxyTask serve_task = make_task("mrpc-sim", kSeed);
  Sequential serve_model = make_proxy_model("mrpc-sim", kSeed);
  ProxyTask train_task = make_task("mrpc-sim", kSeed);
  Sequential train_model = make_proxy_model("mrpc-sim", kSeed);
  const TrainRecipe train_recipe = make_recipe("mrpc-sim");
  EngineConfig ecfg;
  ecfg.seed = kSeed;
  ecfg.enforce_memory = false;
  VirtualFlowEngine serve_engine(
      serve_model, *serve_recipe.optimizer, *serve_recipe.schedule, *serve_task.train,
      model_profile("bert-base"), make_devices(DeviceType::kV100, 1),
      VnMapping::even(8, 1, serve_recipe.global_batch), ecfg);
  VirtualFlowEngine train_engine(
      train_model, *train_recipe.optimizer, *train_recipe.schedule, *train_task.train,
      model_profile("bert-base"), make_devices(DeviceType::kV100, 2),
      VnMapping::even(8, 2, train_recipe.global_batch), ecfg);

  serve::ServerConfig scfg;
  scfg.continuous = true;
  scfg.queue_capacity = 4096;
  scfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  scfg.deadline_s = 0.5;
  scfg.elastic.enabled = true;
  scfg.elastic.high_watermark = 48;
  scfg.elastic.low_watermark = 4;
  scfg.elastic.min_devices = 1;
  scfg.elastic.max_devices = 8;
  scfg.elastic.cooldown_batches = 1;
  serve::Server server(serve_engine, *serve_task.val, scfg);
  server.set_cluster_governed();
  const auto trace = serve::phased_poisson_trace(
      kSeed, {{300.0, 0.5}, {2500.0, 1.0}, {150.0, 2.0}}, serve_task.val->size());
  server.begin(trace);
  EngineTrainLease lease(train_engine, /*total_steps=*/30, DeviceType::kV100);

  GavelOptions gopt;
  gopt.round_s = 0.5;
  gopt.restart_penalty_s = 0.2;
  GavelScheduler gavel(gopt);
  ElasticWfsScheduler wfs;
  PriorityScheduler priority;
  StaticPartitionScheduler static_gavel(gavel, DeviceType::kV100);
  Scheduler* inner = &gavel;
  if (which == Policy::kWfs) inner = &wfs;
  if (which == Policy::kPriority) inner = &priority;
  if (which == Policy::kStaticGavel) inner = &static_gavel;
  AskTwice twice(*inner);

  ClusterController c(v100s(12), ask_twice ? twice : *inner);
  JobSpec serve_spec;
  serve_spec.id = 0;
  serve_spec.kind = JobKind::kServe;
  serve_spec.priority = 10.0;
  serve_spec.demand_gpus = 4;
  serve_spec.min_gpus = 1;
  serve_spec.max_gpus = 8;
  c.add_serve_job(serve_spec, server);
  JobSpec lease_spec = train_job(1, 0.0, 30, 2);
  lease_spec.workload = "bert-base";
  lease_spec.profile = model_profile("bert-base");
  lease_spec.global_batch = train_recipe.global_batch;
  c.add_train_lease(lease_spec, lease);
  for (std::int64_t i = 0; i < 4; ++i)
    c.add_train_job(train_job(10 + i, 0.1 + 0.35 * static_cast<double>(i),
                              400 + 150 * i, 2 + 2 * (i % 2)));
  const ClusterReport report = c.run();
  server.finish();
  EXPECT_TRUE(server.drained());
  for (const JobState& j : report.jobs) EXPECT_TRUE(j.finished()) << j.spec.id;
  if (ask_twice) {
    EXPECT_GT(twice.consults, 0);
  }
  return serve::report_digest(report);
}

TEST(PolicyRegression, BuiltInPoliciesAreIdempotent) {
  const struct {
    const char* name;
    Policy policy;
  } cases[] = {{"gavel", Policy::kGavel},
               {"elastic-wfs", Policy::kWfs},
               {"priority-static", Policy::kPriority},
               {"static(gavel)", Policy::kStaticGavel}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(hex(mixed_run(c.policy, /*ask_twice=*/true)),
              hex(mixed_run(c.policy, /*ask_twice=*/false)));
  }
}

}  // namespace
}  // namespace vf
