// Fault injection through the serving loops: zero-loss re-dispatch on
// device kills, streaming chains resuming from their last landed token,
// honest retry/queue-wait accounting, graceful shedding, and the
// determinism contract for faulted replays — single-model Server and the
// co-located multi-model server, including the reconfigure-under-load
// edge cases (kill during a rolling migration, kill of a device hosting a
// parked stream, kill at minimum device-set size).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
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

struct Rig {
  ProxyTask task;
  Sequential model;
  TrainRecipe recipe;
};

Rig make_rig(const std::string& task = "mrpc-sim") {
  return Rig{make_task(task, kSeed), make_proxy_model(task, kSeed),
             make_recipe(task)};
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
                           VnMapping::even(vns, devices, rig.recipe.global_batch), cfg);
}

ServerConfig fault_config() {
  ServerConfig cfg;
  cfg.queue_capacity = 2048;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  cfg.deadline_s = 0.5;
  cfg.continuous = true;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

std::vector<InferRequest> burst_trace(const Dataset& pool) {
  return phased_poisson_trace(
      kSeed, {{300.0, 0.4}, {3000.0, 1.0}, {150.0, 1.6}}, pool.size());
}

/// Zero-loss invariant: every trace request leaves the replay exactly once
/// — served or rejected, never lost, never duplicated.
void expect_zero_loss(const SloTracker& slo, std::size_t trace_size) {
  EXPECT_EQ(slo.completed() + slo.rejected(),
            static_cast<std::int64_t>(trace_size));
  std::set<std::int64_t> ids;
  for (const RequestRecord& r : slo.records()) ids.insert(r.id);
  EXPECT_EQ(ids.size(), slo.records().size()) << "a request recorded twice";
  EXPECT_EQ(ids.size(), trace_size);
}

TEST(FaultRecovery, KillUnderLoadLosesAndDuplicatesNothing) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/4, /*workers=*/0);
  Server server(engine, *rig.task.val, fault_config());

  fault::FaultPlan plan;
  plan.kill(0.5, 1).kill(0.8, 2).recover(1.6).recover(1.9);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);

  const auto trace = burst_trace(*rig.task.val);
  server.replay(trace);

  expect_zero_loss(server.slo(), trace.size());
  EXPECT_TRUE(server.queue().empty());

  // Both kills were honored (4 devices, never at minimum) and evicted
  // mid-burst in-flight work.
  ASSERT_EQ(server.faults().size(), 4u);
  std::int64_t evicted = 0;
  for (const FaultRecord& f : server.faults()) {
    if (f.kind != fault::FaultKind::kKill) continue;
    EXPECT_FALSE(f.skipped);
    EXPECT_GT(f.migration_s, 0.0) << "a kill charges a VN-remap migration";
    evicted += f.evicted_slices;
  }
  EXPECT_GT(evicted, 0) << "kills during a 3000 rps burst must hit slices";
  EXPECT_EQ(server.queue().requeued(), server.slo().summary().retries)
      << "every fault requeue surfaces as a recorded retry";
  EXPECT_GT(server.slo().summary().retried, 0);
}

TEST(FaultRecovery, RetryStampsKeepQueueWaitHonest) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/4, /*workers=*/0);
  Server server(engine, *rig.task.val, fault_config());

  // The kill lands after the 4 -> 8 growth has cut over (a kill inside a
  // cutover window finds nothing in flight: dispatch is gated there).
  fault::FaultPlan plan;
  plan.kill(0.7, 0);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);
  const auto trace = burst_trace(*rig.task.val);
  server.replay(trace);
  ASSERT_EQ(server.faults().size(), 1u);
  ASSERT_GE(server.faults()[0].evicted_slices, 1) << "the kill must hit a slice";
  ASSERT_GE(server.faults()[0].requeued_requests, 1) << "and requeue its requests";

  bool saw_retry = false;
  for (const RequestRecord& r : server.slo().records()) {
    if (r.rejected) continue;
    EXPECT_GE(r.queue_wait_s, 0.0) << r.id;
    EXPECT_LE(r.queue_wait_s, r.latency_s() + 1e-12) << r.id;
    if (r.retries > 0) {
      saw_retry = true;
      // An evicted request waited, dispatched, was evicted, and waited
      // again: its honest queue wait spans both stints, so it can exceed
      // dispatch_s - arrival_s of the final dispatch alone but never the
      // whole latency.
      EXPECT_GT(r.queue_wait_s, 0.0) << r.id;
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(FaultRecovery, StreamsResumeFromLastLandedToken) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/4, /*workers=*/0);
  ServerConfig cfg = fault_config();
  cfg.stream.disaggregate = true;
  Server server(engine, *rig.task.val, cfg);

  fault::FaultPlan plan;
  plan.kill(0.5, 1).kill(0.9, 0).recover(1.8).recover(2.1);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);

  StreamShape shape;
  shape.stream_fraction = 0.5;
  const auto trace = streaming_trace(
      kSeed, {{200.0, 0.4}, {1500.0, 1.0}, {100.0, 1.6}}, rig.task.val->size(),
      shape);
  server.replay(trace);

  expect_zero_loss(server.slo(), trace.size());
  std::vector<std::int64_t> requested(trace.size(), 0);
  for (const InferRequest& r : trace)
    requested[static_cast<std::size_t>(r.id)] = r.stream_tokens;
  bool saw_stream_retry = false;
  for (const RequestRecord& r : server.slo().records()) {
    if (r.rejected || !r.streamed()) continue;
    // A stream completes with exactly its requested tokens, stamped
    // monotonically — an eviction re-dispatches only the lost token,
    // never rewinds landed ones.
    EXPECT_EQ(static_cast<std::int64_t>(r.tokens.size()),
              requested[static_cast<std::size_t>(r.id)])
        << r.id;
    for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
      EXPECT_GT(r.token_stamps[i], r.token_stamps[i - 1]) << r.id;
    if (r.retries > 0) saw_stream_retry = true;
  }
  EXPECT_TRUE(saw_stream_retry)
      << "kills during a streaming burst must catch live chains";
}

TEST(FaultRecovery, KillAtMinimumSizeIsSkippedAndRecoveryRegrows) {
  // Edge case: the device set is already at one device when the kill
  // fires — the kill is skipped (recorded as such, capacity loss
  // reverted) and the replay continues unharmed; the paired recover
  // leaves the budget whole so the burst can still grow the set.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  Server server(engine, *rig.task.val, fault_config());

  fault::FaultPlan plan;
  plan.kill(0.05, 0).recover(0.2);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);

  const auto trace = burst_trace(*rig.task.val);
  server.replay(trace);

  expect_zero_loss(server.slo(), trace.size());
  ASSERT_GE(server.faults().size(), 1u);
  EXPECT_EQ(server.faults()[0].kind, fault::FaultKind::kKill);
  EXPECT_TRUE(server.faults()[0].skipped);
  EXPECT_EQ(server.faults()[0].evicted_slices, 0);
  bool grew = false;
  for (const ResizeEvent& e : server.resizes())
    if (e.to_devices > e.from_devices) grew = true;
  EXPECT_TRUE(grew) << "a skipped kill must not poison the elastic budget";
}

TEST(FaultRecovery, CapacityCapHoldsTheSetDownUntilRecovery) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/4, /*workers=*/0);
  ServerConfig cfg = fault_config();
  cfg.elastic.max_devices = 4;
  Server server(engine, *rig.task.val, cfg);

  // Two kills, no recovery: the budget is capped at 2 for the rest of the
  // replay, so no resize may ever land above it.
  fault::FaultPlan plan;
  plan.kill(0.5, 0).kill(0.7, 0);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);
  server.replay(burst_trace(*rig.task.val));

  // Locate the second kill's own shrink event in the resize stream (its
  // stamp is the kill's processing clock plus its migration); every
  // elastic decision after it sees the capped budget of 2.
  ASSERT_EQ(server.faults().size(), 2u);
  const FaultRecord& last_kill = server.faults()[1];
  EXPECT_FALSE(last_kill.skipped);
  std::size_t cap_from = server.resizes().size();
  for (std::size_t i = 0; i < server.resizes().size(); ++i) {
    const ResizeEvent& e = server.resizes()[i];
    if (e.from_devices - e.to_devices == 1 &&
        e.time_s == last_kill.time_s + last_kill.migration_s)
      cap_from = i;
  }
  ASSERT_LT(cap_from, server.resizes().size()) << "kill shrink event missing";
  for (std::size_t i = cap_from; i < server.resizes().size(); ++i)
    EXPECT_LE(server.resizes()[i].to_devices, 2)
        << "growth above the post-kill budget (resize " << i << ")";
  EXPECT_LE(static_cast<std::int64_t>(engine.devices().size()), 2);
}

TEST(FaultRecovery, CapacityCapBelowTheElasticFloorStillHoldsUntilRecovery) {
  // min = max = 3: two kills cap the budget at one device, below the
  // elastic floor. The floor must yield to the cap — growth may not
  // resurrect a killed device before a recover.
  Rig rig = make_rig("qnli-sim");
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/3, /*workers=*/0);
  ServerConfig cfg = fault_config();
  cfg.elastic.min_devices = 3;
  cfg.elastic.max_devices = 3;
  Server server(engine, *rig.task.val, cfg);

  fault::FaultPlan plan;
  plan.kill(0.30, 0).kill(0.35, 0).recover(2.5).recover(2.6);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);
  const auto trace = phased_poisson_trace(
      kSeed, {{300.0, 0.3}, {3000.0, 1.5}, {150.0, 1.5}}, rig.task.val->size());
  server.replay(trace);

  expect_zero_loss(server.slo(), trace.size());
  ASSERT_EQ(server.faults().size(), 4u);
  EXPECT_FALSE(server.faults()[0].skipped);
  EXPECT_FALSE(server.faults()[1].skipped);
  ASSERT_EQ(server.faults()[2].kind, fault::FaultKind::kRecover);
  const double first_recover = server.faults()[2].time_s;
  bool regrew = false;
  for (const ResizeEvent& e : server.resizes()) {
    if (e.to_devices <= e.from_devices) continue;
    // One model: the migration starts at the decision stamp, so the
    // decision is time_s - migration_s (compared without cancellation).
    EXPECT_GE(e.time_s, first_recover + e.migration_s)
        << "grew " << e.from_devices << " -> " << e.to_devices
        << " while both kills were outstanding";
    regrew = true;
  }
  EXPECT_TRUE(regrew) << "the recovers must lift the cap again";
}

/// Head shedding's two guarantees for a model with deadline `deadline_s`:
/// every served request dispatched by arrival + deadline, and every shed
/// record stamped past it (a capacity bounce is stamped at its arrival).
/// A rejected record carries no queue wait credit: it was bounced, stamped
/// at the bounce. Returns the shed records seen.
std::int64_t expect_shed_guarantees(const SloTracker& slo, double deadline_s) {
  std::int64_t shed = 0;
  for (const RequestRecord& r : slo.records()) {
    if (!r.rejected) {
      EXPECT_LE(r.dispatch_s - r.arrival_s, deadline_s) << "served late: " << r.id;
      continue;
    }
    EXPECT_DOUBLE_EQ(r.finish_s, r.dispatch_s) << r.id;
    if (r.finish_s == r.arrival_s) continue;  // queue full at admission
    EXPECT_GT(r.finish_s - r.arrival_s, deadline_s) << "shed early: " << r.id;
    ++shed;
  }
  return shed;
}

TEST(FaultRecovery, ExpiredRequestsShedAtQueueHeadWhenOptedIn) {
  for (const double deadline : {0.01, 0.02, 0.05}) {
    Rig rig = make_rig();
    VirtualFlowEngine engine = make_engine(rig, /*devices=*/2, /*workers=*/0);
    ServerConfig cfg = fault_config();
    cfg.shed_expired = true;
    cfg.deadline_s = deadline;  // tight SLO + kill-induced backlog => sheds
    Server server(engine, *rig.task.val, cfg);

    fault::FaultPlan plan;
    plan.kill(0.5, 0);
    fault::FaultInjector injector(std::move(plan));
    server.set_fault_injector(&injector);
    const auto trace = burst_trace(*rig.task.val);
    server.replay(trace);

    expect_zero_loss(server.slo(), trace.size());
    EXPECT_GT(server.queue().shed(), 0) << deadline;
    EXPECT_LE(server.queue().shed(), server.queue().rejected())
        << "sheds are a subset of rejections";
    EXPECT_EQ(expect_shed_guarantees(server.slo(), deadline), server.queue().shed());
    EXPECT_EQ(server.queue().requeued(), server.slo().summary().retries)
        << "a shed requeue still counts its retry";
  }
}

TEST(FaultRecovery, FaultedReplayBitIdenticalAcrossWorkerCounts) {
  const auto run = [](std::int64_t workers) {
    Rig rig = make_rig();
    VirtualFlowEngine engine = make_engine(rig, /*devices=*/4, workers);
    ServerConfig cfg = fault_config();
    cfg.stream.disaggregate = true;
    Server server(engine, *rig.task.val, cfg);
    fault::ChaosConfig chaos;
    chaos.start_s = 0.4;
    chaos.duration_s = 1.2;
    chaos.max_device = 3;
    fault::FaultInjector injector(fault::FaultPlan::chaos(7, chaos));
    server.set_fault_injector(&injector);
    StreamShape shape;
    shape.stream_fraction = 0.3;
    server.replay(streaming_trace(
        kSeed, {{200.0, 0.4}, {1500.0, 1.0}, {100.0, 1.6}},
        rig.task.val->size(), shape));
    EXPECT_FALSE(server.slo().records().empty());
    EXPECT_FALSE(server.faults().empty());
    return digest(server);
  };

  const RunDigest serial = run(0);
  for (const std::int64_t workers : {2, 8})
    EXPECT_EQ(first_difference(serial, run(workers)), nullptr) << workers << "w";
}

TEST(FaultRecovery, InjectorRequiresContinuousModeAndPreReplayAttach) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 2, 0);
  ServerConfig cfg = fault_config();
  cfg.continuous = false;
  Server server(engine, *rig.task.val, cfg);
  fault::FaultInjector injector{fault::FaultPlan{}};
  EXPECT_THROW(server.set_fault_injector(&injector), VfError);
}

// ---- Co-located multi-model recovery ---------------------------------------

ModelConfig model_config(const std::string& name) {
  ModelConfig mc;
  mc.name = name;
  mc.queue_capacity = 2048;
  mc.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  mc.deadline_s = 0.5;
  return mc;
}

ColocationConfig colo_config() {
  ColocationConfig cfg;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

TEST(FaultRecovery, ColocatedKillDuringRollingMigrationKeepsEveryRequest) {
  // Edge case: staggered bursts keep elastic rolling migrations in flight
  // when the kills land; the kill's own rolling remap must stack its
  // cutover stamps past any still-pending ones, every model's in-flight
  // work on the dead slot must requeue/park, and the engines must end in
  // lockstep. Zero loss per model, as always.
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, /*devices=*/2, /*workers=*/0);
  VirtualFlowEngine eng_b = make_engine(rig_b, /*devices=*/2, /*workers=*/0);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
  registry.add(eng_b, *rig_b.task.val, model_config("cola"));
  ColocatedServer server(registry, colo_config());

  fault::FaultPlan plan;
  plan.kill(0.6, 1).kill(1.4, 0).recover(1.8).recover(2.2);
  fault::FaultInjector injector(std::move(plan));
  server.set_fault_injector(&injector);

  StreamShape shape;
  shape.stream_fraction = 0.4;
  const std::vector<std::vector<InferRequest>> traces = {
      streaming_trace(kSeed, {{250.0, 0.4}, {2000.0, 0.8}, {120.0, 1.6}},
                      rig_a.task.val->size(), shape),
      streaming_trace(kSeed + 1, {{200.0, 1.0}, {2000.0, 0.8}, {100.0, 1.2}},
                      rig_b.task.val->size(), shape)};
  server.replay(traces);

  for (std::int32_t m = 0; m < 2; ++m)
    expect_zero_loss(server.slo(m), traces[static_cast<std::size_t>(m)].size());
  EXPECT_EQ(
      static_cast<std::int64_t>(eng_a.devices().size()),
      static_cast<std::int64_t>(eng_b.devices().size()))
      << "engines must stay in lockstep through kills and resizes";

  std::int64_t honored_kills = 0;
  for (const FaultRecord& f : server.faults())
    if (f.kind == fault::FaultKind::kKill && !f.skipped) ++honored_kills;
  EXPECT_GT(honored_kills, 0);
  // A kill doubles as a shrink event in the resize stream.
  bool kill_resize = false;
  for (const ResizeEvent& e : server.resizes())
    if (e.to_devices == e.from_devices - 1) kill_resize = true;
  EXPECT_TRUE(kill_resize);
}

TEST(FaultRecovery, ColocatedExpiredRequestsShedAtQueueHead) {
  // The shedding test's setup with two co-located models, both shedding:
  // requests expire while they wait in the queue, and a fault-requeued
  // request can be shed too.
  bool saw_requeued_shed = false;
  for (const double deadline : {0.01, 0.02, 0.05}) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("mrpc-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, /*devices=*/2, /*workers=*/0);
    VirtualFlowEngine eng_b = make_engine(rig_b, /*devices=*/2, /*workers=*/0);
    ModelRegistry registry;
    for (auto [eng, rig, name] : {std::tuple{&eng_a, &rig_a, "mrpc_a"},
                                  std::tuple{&eng_b, &rig_b, "mrpc_b"}}) {
      ModelConfig mc = model_config(name);
      mc.deadline_s = deadline;
      mc.shed_expired = true;
      registry.add(*eng, *rig->task.val, mc);
    }
    ColocatedServer server(registry, colo_config());

    fault::FaultPlan plan;
    plan.kill(0.5, 0);
    fault::FaultInjector injector(std::move(plan));
    server.set_fault_injector(&injector);
    const std::vector<std::vector<InferRequest>> traces = {
        burst_trace(*rig_a.task.val),
        phased_poisson_trace(kSeed + 1, {{300.0, 0.4}, {3000.0, 1.0}, {150.0, 1.6}},
                             rig_b.task.val->size())};
    server.replay(traces);

    for (std::int32_t m = 0; m < 2; ++m) {
      const SloTracker& slo = server.slo(m);
      const RequestQueue& queue = server.queue(m);
      expect_zero_loss(slo, traces[static_cast<std::size_t>(m)].size());
      EXPECT_GT(queue.shed(), 0) << deadline << " model " << m;
      EXPECT_EQ(expect_shed_guarantees(slo, deadline), queue.shed());
      EXPECT_EQ(queue.requeued(), slo.summary().retries)
          << "a shed requeue still counts its retry";
      for (const RequestRecord& r : slo.records())
        if (r.rejected && r.retries > 0) saw_requeued_shed = true;
    }
  }
  EXPECT_TRUE(saw_requeued_shed);
}

TEST(FaultRecovery, ColocatedFaultedReplayBitIdenticalAcrossWorkerCounts) {
  const auto run = [](std::int64_t workers) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 2, workers);
    VirtualFlowEngine eng_b = make_engine(rig_b, 2, workers);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
    registry.add(eng_b, *rig_b.task.val, model_config("cola"));
    ColocatedServer server(registry, colo_config());
    fault::ChaosConfig chaos;
    chaos.start_s = 0.4;
    chaos.duration_s = 1.0;
    chaos.kills = 1;
    chaos.max_device = 1;
    fault::FaultInjector injector(fault::FaultPlan::chaos(11, chaos));
    server.set_fault_injector(&injector);
    StreamShape shape;
    shape.stream_fraction = 0.3;
    server.replay({streaming_trace(kSeed, {{250.0, 0.4}, {1500.0, 0.8}, {100.0, 1.4}},
                                   rig_a.task.val->size(), shape),
                   streaming_trace(kSeed + 1,
                                   {{200.0, 0.6}, {1500.0, 0.8}, {100.0, 1.2}},
                                   rig_b.task.val->size(), shape)});
    return digest(server);
  };

  const RunDigest serial = run(0);
  for (const std::int64_t workers : {2, 8})
    EXPECT_EQ(first_difference(serial, run(workers)), nullptr) << workers << "w";
}

}  // namespace
}  // namespace vf::serve
