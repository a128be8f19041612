// Governed pumping: a serving lease's outputs do not depend on where the
// controller pumps it. A pump before the lease's next event finds nothing
// due, so the loop only moves its clock (serve/colocation.h, pump()). These
// cases pin that property for a one-model Server and a two-model
// ColocatedServer with token streams: pumped only at their own
// next_event_s() stamps, or on a fine grid that also lands inside rolling
// cutover windows, both runs take the same grants at the same stamps and
// must produce the same records, resizes, batches, faults, trace and
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "serve/arrival.h"
#include "serve/colocation.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf::serve {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Rig {
  ProxyTask task;
  Sequential model;
  TrainRecipe recipe;
};

Rig make_rig(const std::string& task) {
  return Rig{make_task(task, kSeed), make_proxy_model(task, kSeed), make_recipe(task)};
}

VirtualFlowEngine make_engine(Rig& rig, std::int64_t devices) {
  EngineConfig cfg;
  cfg.seed = kSeed;
  cfg.enforce_memory = false;
  return VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                           *rig.task.train, model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(8, devices, rig.recipe.global_batch), cfg);
}

ElasticPolicy band() {
  ElasticPolicy e;
  e.high_watermark = 48;
  e.low_watermark = 4;
  e.min_devices = 1;
  e.max_devices = 8;
  e.cooldown_batches = 1;
  return e;
}

ServerConfig server_config() {
  ServerConfig cfg;
  cfg.continuous = true;
  cfg.queue_capacity = 2048;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  cfg.deadline_s = 0.5;
  cfg.elastic = band();
  return cfg;
}

ModelConfig model_config(const std::string& name) {
  ModelConfig mc;
  mc.name = name;
  mc.queue_capacity = 2048;
  mc.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  mc.deadline_s = 0.5;
  return mc;
}

std::vector<InferRequest> burst_trace(const Dataset& pool) {
  return phased_poisson_trace(kSeed, {{300.0, 0.5}, {2500.0, 1.0}, {150.0, 1.5}},
                              pool.size());
}

/// A device grant the script applies at a stamp.
struct ScriptedGrant {
  double at_s = 0.0;
  std::int64_t devices = 0;
};

/// Pumps a governed, begun lease until it has no event left, applying
/// `grants` (ascending stamps) where they fall. It pumps at the grant
/// stamps and the lease's own next_event_s() stamps and, when `grid_s` >
/// 0, also every `grid_s` seconds and halfway through each cutover
/// window. Returns how many pumps landed strictly inside a cutover window.
std::int64_t drive(sched::DeviceLease& lease, const std::vector<ScriptedGrant>& grants,
                   double grid_s) {
  std::size_t g = 0;
  double next_grid = grid_s > 0.0 ? grid_s : kInf;
  double mid_cutover = kInf;
  double window_from = 0.0;
  double window_to = 0.0;
  std::int64_t inside = 0;
  for (;;) {
    const double own = lease.next_event_s();
    const double grant_at = g < grants.size() ? grants[g].at_s : kInf;
    if (own == kInf && grant_at == kInf) return inside;
    const double t = std::min({own, grant_at, next_grid, mid_cutover});
    lease.pump(t);
    if (t > window_from && t < window_to) ++inside;
    if (t == next_grid) next_grid += grid_s;
    if (t == mid_cutover) mid_cutover = kInf;
    if (t == grant_at) {
      const double migration = lease.apply_grant(grants[g++].devices);
      window_from = t;
      window_to = t + migration;
      if (grid_s > 0.0) mid_cutover = t + 0.5 * migration;
    }
  }
}

struct Driven {
  RunDigest digest;
  std::int64_t inside = 0;  ///< pumps strictly inside a cutover window
  std::int64_t resizes = 0;
  std::int64_t faults = 0;
};

/// A governed one-model Server through three grants (grow mid-burst, grow
/// again, shrink in the tail); `kill` adds a device kill and its recover.
Driven drive_server(double grid_s, bool kill) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  fault::FaultPlan plan;
  plan.kill(1.1, 0).recover(1.9);
  fault::FaultInjector injector(std::move(plan));
  Server server(engine, *rig.task.val, server_config());
  server.set_observability({&trace_rec, &metrics});
  if (kill) server.set_fault_injector(&injector);
  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);
  server.begin(trace);
  Driven out;
  out.inside = drive(server, {{0.6, 4}, {1.4, 8}, {2.3, 2}}, grid_s);
  server.finish();
  EXPECT_TRUE(server.drained());
  out.digest = digest(server, {&trace_rec, &metrics});
  out.resizes = static_cast<std::int64_t>(server.resizes().size());
  out.faults = static_cast<std::int64_t>(server.faults().size());
  return out;
}

/// Two co-located models with token streams (prefill/decode
/// disaggregation, so chains park, preempt and wait out cutovers) through
/// three grants.
Driven drive_colocated(double grid_s) {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
  registry.add(eng_b, *rig_b.task.val, model_config("cola"));
  ColocationConfig cfg;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.elastic = band();
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  ColocatedServer server(registry, cfg);
  server.set_observability({&trace_rec, &metrics});
  server.set_cluster_governed();
  StreamShape shape;
  shape.stream_fraction = 0.6;
  shape.tokens_min = 3;
  shape.tokens_max = 8;
  const std::vector<TracePhase> phases = {{60.0, 0.4}, {300.0, 0.8}, {40.0, 0.8}};
  const std::vector<std::vector<InferRequest>> traces = {
      streaming_trace(kSeed, phases, rig_a.task.val->size(), shape),
      streaming_trace(kSeed + 1, phases, rig_b.task.val->size(), shape)};
  server.begin(traces);
  Driven out;
  out.inside = drive(server, {{0.5, 4}, {1.0, 8}, {1.6, 2}}, grid_s);
  server.finish();
  EXPECT_TRUE(server.drained());
  out.digest = digest(server, {&trace_rec, &metrics});
  out.resizes = static_cast<std::int64_t>(server.resizes().size());
  return out;
}

TEST(GovernedPump, ServerOutputsDoNotDependOnWherePumpsLand) {
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "with a device kill" : "no faults");
    const Driven own = drive_server(/*grid_s=*/0.0, kill);
    const Driven grid = drive_server(/*grid_s=*/0.002, kill);
    EXPECT_EQ(own.resizes, kill ? 4 : 3) << "three grants, plus the kill's remap";
    EXPECT_EQ(own.faults, kill ? 2 : 0);
    EXPECT_GT(grid.inside, 0) << "the grid must pump inside a cutover window";
    EXPECT_EQ(first_difference(own.digest, grid.digest), nullptr);
  }
}

TEST(GovernedPump, ColocatedStreamsDoNotDependOnWherePumpsLand) {
  const Driven own = drive_colocated(/*grid_s=*/0.0);
  const Driven grid = drive_colocated(/*grid_s=*/0.002);
  EXPECT_EQ(own.resizes, 3);
  EXPECT_GT(grid.inside, 0) << "the grid must pump inside a cutover window";
  EXPECT_EQ(first_difference(own.digest, grid.digest), nullptr);
}

TEST(GovernedPump, PumpBeforeTheNextEventOnlyMovesTheClock) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  Server server(engine, *rig.task.val, server_config());
  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);
  server.begin(trace);
  // Mid-burst on one device: every slot is busy and requests queue.
  server.pump(0.8);
  ASSERT_GT(server.load().queue_depth, 0);

  const double next = server.next_event_s();
  ASSERT_GT(next, server.now_s());
  const std::size_t batches = server.batches().size();
  const std::int64_t completed = server.slo().completed();
  const sched::LoadSignal before = server.load();
  const double t = server.now_s();
  for (const double h : {t + 0.25 * (next - t), t + 0.75 * (next - t)}) {
    server.pump(h);
    EXPECT_EQ(server.now_s(), h);
    const sched::LoadSignal after = server.load();
    EXPECT_EQ(after.oldest_wait_s, h - server.queue().front().enqueued_s())
        << "the oldest wait moves with the clock";
    EXPECT_GT(after.oldest_wait_s, before.oldest_wait_s);
    EXPECT_EQ(after.queue_depth, before.queue_depth);
    EXPECT_EQ(after.inflight, before.inflight);
    EXPECT_EQ(server.batches().size(), batches);
    EXPECT_EQ(server.slo().completed(), completed);
    EXPECT_EQ(server.next_event_s(), next);
  }
  server.pump(next);
  EXPECT_GT(server.next_event_s(), next) << "the pump that reaches the stamp runs it";
}

TEST(GovernedPump, PumpBeforeTheNextEventStillShedsAtTheClock) {
  // A shedding model with queued requests keeps iterating at every pump:
  // a pump's first iteration runs at the clock the previous pump left, and
  // its shedding reads that clock, so the requests that expired by then
  // are dropped there, stamped with it, before the next event comes.
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  ServerConfig cfg = server_config();
  cfg.deadline_s = 1e-4;
  cfg.shed_expired = true;
  Server server(engine, *rig.task.val, cfg);
  server.set_cluster_governed();
  std::vector<InferRequest> trace(512);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<std::int64_t>(i);
    trace[i].example_index = static_cast<std::int64_t>(i) % rig.task.val->size();
  }
  server.begin(trace);
  server.pump(0.0);  // admits all 512 at once; the slots take what they can
  const std::int64_t queued = server.load().queue_depth;
  ASSERT_GT(queued, 0);
  const double next = server.next_event_s();
  ASSERT_GT(next, 4.0 * cfg.deadline_s) << "the queue must expire before the next event";

  const double first = 0.25 * next;
  server.pump(first);  // iterates at 0, where nothing has expired yet
  ASSERT_EQ(server.load().queue_depth, queued);
  server.pump(0.5 * next);  // iterates at `first`, past every deadline
  EXPECT_EQ(server.load().queue_depth, 0);
  EXPECT_EQ(server.slo().rejected(), queued);
  EXPECT_EQ(server.queue().shed(), queued);
  for (const RequestRecord& r : server.slo().records()) {
    if (!r.rejected) continue;
    EXPECT_EQ(r.finish_s, first) << "request " << r.id;
  }
  server.pump(kInf);
  EXPECT_TRUE(server.drained());
}

TEST(GovernedPump, FiniteHorizonNeedsClusterGovernance) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  Server server(engine, *rig.task.val, server_config());
  const auto trace = burst_trace(*rig.task.val);
  server.begin(trace);
  EXPECT_THROW(server.pump(0.5), VfError);
  server.pump(kInf);
  EXPECT_TRUE(server.drained());
}

}  // namespace
}  // namespace vf::serve
