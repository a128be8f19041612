// Multi-model co-location end-to-end: per-model SLO accounting, the
// deadline-aware arbiter, the shared elastic budget under staggered
// bursts, lockstep seamless resizes, and the bit-exactness contract
// across host worker counts in BOTH batching modes.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serve/arrival.h"
#include "serve/colocation.h"
#include "serve/digest.h"
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

Rig make_rig(const std::string& task) {
  return Rig{make_task(task, kSeed), make_proxy_model(task, kSeed),
             make_recipe(task)};
}

VirtualFlowEngine make_engine(Rig& rig, std::int64_t devices, std::int64_t workers,
                              std::int64_t vns = 8, DeviceType type = DeviceType::kV100) {
  EngineConfig cfg;
  cfg.seed = kSeed;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  return VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                           *rig.task.train, model_profile("bert-base"),
                           make_devices(type, devices),
                           VnMapping::even(vns, devices, rig.recipe.global_batch), cfg);
}

ModelConfig model_config(const std::string& name, double deadline_s = 0.5) {
  ModelConfig mc;
  mc.name = name;
  mc.queue_capacity = 512;
  mc.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  mc.deadline_s = deadline_s;
  return mc;
}

ColocationConfig colo_config(bool continuous) {
  ColocationConfig cfg;
  cfg.continuous = continuous;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

/// Staggered bursts: model 0 bursts early, model 1 bursts late — the
/// statistical-multiplexing shape co-location exists for.
std::vector<std::vector<InferRequest>> staggered_traces(const Dataset& pool_a,
                                                        const Dataset& pool_b) {
  return {phased_poisson_trace(kSeed,
                               {{300.0, 0.4}, {3000.0, 0.8}, {120.0, 1.8}},
                               pool_a.size()),
          phased_poisson_trace(kSeed + 1,
                               {{250.0, 1.2}, {3000.0, 0.8}, {100.0, 1.0}},
                               pool_b.size())};
}

struct ColoResult {
  RunDigest digest;  ///< every output stream, compared bit for bit
  std::vector<ResizeEvent> resizes;
  std::vector<SloSummary> summaries;
  std::int64_t final_devices = 0;
};

ColoResult run_colocated(bool continuous, std::int64_t workers,
                         double deadline_a = 0.5, double deadline_b = 0.5) {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, /*devices=*/1, workers);
  VirtualFlowEngine eng_b = make_engine(rig_b, /*devices=*/1, workers);

  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("mrpc", deadline_a));
  registry.add(eng_b, *rig_b.task.val, model_config("cola", deadline_b));

  ColocatedServer server(registry, colo_config(continuous));
  server.replay(staggered_traces(*rig_a.task.val, *rig_b.task.val));

  ColoResult out;
  out.digest = digest(server);
  for (std::int32_t m = 0; m < 2; ++m) out.summaries.push_back(server.slo(m).summary());
  out.resizes = server.resizes();
  out.final_devices = server.shared_devices();
  return out;
}

TEST(Colocation, PerModelSloAccountingCoversEveryRequest) {
  for (const bool continuous : {true, false}) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("mrpc", 0.5));
    registry.add(eng_b, *rig_b.task.val, model_config("cola", 0.25));
    ColocatedServer server(registry, colo_config(continuous));

    const auto traces = staggered_traces(*rig_a.task.val, *rig_b.task.val);
    ASSERT_GT(traces[0].size(), 100u);
    ASSERT_GT(traces[1].size(), 100u);
    server.replay(traces);

    for (std::int32_t m = 0; m < 2; ++m) {
      const SloTracker& slo = server.slo(m);
      EXPECT_EQ(slo.completed() + slo.rejected(),
                static_cast<std::int64_t>(traces[static_cast<std::size_t>(m)].size()))
          << "model " << m << " (continuous=" << continuous << ")";
      EXPECT_TRUE(server.queue(m).empty()) << "replay must drain every queue";
      ASSERT_GT(slo.completed(), 0) << "model " << m;
      for (const RequestRecord& r : slo.records()) {
        if (r.rejected) continue;
        EXPECT_GE(r.queue_wait_s, 0.0);
        EXPECT_GT(r.compute_s, 0.0);
        EXPECT_GE(r.prediction, 0);
      }
      // Deadline accounting uses the model's own SLO, not a global one.
      EXPECT_EQ(slo.deadline_s(), m == 0 ? 0.5 : 0.25);
    }
    // Work units are labelled with their model; both models executed work.
    bool saw[2] = {false, false};
    for (const BatchEvent& b : server.batches()) {
      ASSERT_GE(b.model, 0);
      ASSERT_LT(b.model, 2);
      saw[b.model] = true;
      if (continuous) {
        EXPECT_GE(b.vn, 0) << "continuous work units are per-VN slices";
      } else {
        EXPECT_EQ(b.vn, -1) << "batch-boundary work units are whole batches";
      }
    }
    EXPECT_TRUE(saw[0] && saw[1]);
  }
}

TEST(Colocation, ArbiterServesTheTighterDeadlineFirst) {
  // Both models present identical, simultaneously-arrived backlogs; model
  // 1's deadline is 10x tighter, so the arbiter must dispatch it first
  // even though model 0 has the lower id — slice by slice, and batch by
  // batch in batch-boundary mode.
  for (const bool continuous : {true, false}) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("lenient", 1.0));
    registry.add(eng_b, *rig_b.task.val, model_config("strict", 0.1));
    ColocationConfig cfg = colo_config(continuous);
    cfg.elastic.enabled = false;
    ColocatedServer server(registry, cfg);

    std::vector<std::vector<InferRequest>> traces(2);
    for (std::int64_t m = 0; m < 2; ++m) {
      for (std::int64_t i = 0; i < 64; ++i)
        traces[static_cast<std::size_t>(m)].push_back(
            InferRequest{/*id=*/i, /*arrival_s=*/0.0, /*example_index=*/i});
    }
    server.replay(traces);

    // Equal dispatch stamps, but the strict model's work must be placed
    // on the shared device first — its first completion precedes model 0's.
    const double first_strict = server.slo(1).records().front().finish_s;
    const double first_lenient = server.slo(0).records().front().finish_s;
    EXPECT_LT(first_strict, first_lenient)
        << "(earliest-deadline, model id, VN id) order must favour the "
           "tighter SLO (continuous=" << continuous << ")";
  }
}

TEST(Colocation, OneModelsBurstGrowsTheSharedSetAndDrainShrinksIt) {
  const ColoResult r = run_colocated(/*continuous=*/true, /*workers=*/0);
  ASSERT_GE(r.resizes.size(), 2u)
      << "a single model's burst must move the SHARED budget";
  EXPECT_GT(r.resizes.front().to_devices, r.resizes.front().from_devices);
  // Growth fires on the COMBINED system load — both models' queues plus
  // both models' in-flight requests — so the recorded queue depth at the
  // trigger sits below the watermark by at most the combined in-flight
  // capacity (each model's global batch across its full slots). The
  // pre-fix rule read queue depth alone and grew strictly later.
  EXPECT_GT(r.resizes.front().queue_depth, 0);
  EXPECT_LT(r.resizes.front().queue_depth, 48)
      << "continuous batching must grow before the queues alone hit the mark";
  EXPECT_GE(r.resizes.front().queue_depth + make_recipe("mrpc-sim").global_batch +
                make_recipe("cola-sim").global_batch,
            48);
  bool shrank = false;
  for (const ResizeEvent& e : r.resizes) {
    EXPECT_GT(e.migration_s, 0.0) << "lockstep seamless resize still all-gathers";
    if (e.to_devices < e.from_devices) shrank = true;
  }
  EXPECT_TRUE(shrank) << "post-burst drain must shrink the shared set back";
  // The set parks wherever the last decision left it once work stops
  // (rolling migrations advance no clock, so no trailing decision points
  // appear after the final completion) — but it must have come down from
  // the burst peak.
  EXPECT_LT(r.final_devices, colo_config(true).elastic.max_devices);
  EXPECT_GE(r.final_devices, colo_config(true).elastic.min_devices);
}

TEST(Colocation, EnginesStayInLockstepThroughResizes) {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
  registry.add(eng_b, *rig_b.task.val, model_config("cola"));
  ColocatedServer server(registry, colo_config(/*continuous=*/true));
  server.replay(staggered_traces(*rig_a.task.val, *rig_b.task.val));

  ASSERT_GE(server.resizes().size(), 1u);
  EXPECT_EQ(eng_a.devices().size(), eng_b.devices().size())
      << "co-located engines share one device set";
  // In-flight slices launched before a resize keep the completion times
  // the old mapping scheduled (seamless: compute is never interrupted) —
  // at least one slice dispatched before a migration began must still be
  // running when it begins. (e.time_s is the instant the
  // rolling migration completes; e.time_s - e.migration_s is the decision
  // instant that started it. System-load-triggered growth guarantees
  // in-flight work exists at that instant.)
  bool straddled = false;
  for (const BatchEvent& b : server.batches()) {
    for (const ResizeEvent& e : server.resizes()) {
      const double decision_s = e.time_s - e.migration_s;
      if (b.start_s < decision_s && b.finish_s > decision_s) straddled = true;
    }
  }
  EXPECT_TRUE(straddled) << "seamless resize must not quiesce in-flight slices";
}

/// Checks, from the trace's markers, that no formed batch of a model starts
/// between a resize decision (the "resize" marker's stamp) and that
/// model's cutover stamp (its "cutover" marker, emitted just before the
/// resize marker it belongs to). Returns the number of resize markers.
std::size_t expect_batches_wait_for_cutover(const obs::TraceRecorder& rec,
                                            const std::vector<BatchEvent>& batches) {
  std::size_t resizes = 0;
  std::vector<std::pair<std::int32_t, double>> cutovers;  // (model, stamp)
  for (const obs::TraceEvent& e : rec.events()) {
    if (!e.instant) continue;
    const std::string name = e.name;
    if (name == "cutover") cutovers.emplace_back(e.model, e.ts_s);
    if (name != "resize") continue;
    ++resizes;
    for (const auto& [model, cutover] : cutovers) {
      EXPECT_GT(cutover, e.ts_s) << "a migration takes time";
      for (const BatchEvent& b : batches) {
        if (b.model != model) continue;
        EXPECT_FALSE(b.start_s >= e.ts_s && b.start_s < cutover)
            << "model " << model << " formed a batch at " << b.start_s
            << ", inside its migration [" << e.ts_s << ", " << cutover << ")";
      }
    }
    cutovers.clear();
  }
  return resizes;
}

TEST(Colocation, BatchBoundaryBatchesWaitForTheirCutover) {
  // Batch-boundary mode gates dispatch on the same cutover stamps as
  // continuous mode, for one model and for two: the clock keeps running
  // through a migration, and each model's batches wait for its own stamp.
  for (const std::size_t models : {1u, 2u}) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
    if (models == 2) registry.add(eng_b, *rig_b.task.val, model_config("cola"));
    ColocatedServer server(registry, colo_config(/*continuous=*/false));
    obs::TraceRecorder rec;
    server.set_observability({&rec, nullptr});
    auto traces = staggered_traces(*rig_a.task.val, *rig_b.task.val);
    traces.resize(models);
    server.replay(traces);

    ASSERT_GE(server.resizes().size(), 1u) << "the burst must force a resize";
    EXPECT_EQ(expect_batches_wait_for_cutover(rec, server.batches()),
              server.resizes().size())
        << models << " model(s)";
  }
}

// ---- The share-weighted arbiter (the small-batch starvation fix).

/// `count` requests all arriving at t = 0: a sustained backlog that keeps
/// the model dispatchable for the whole replay — the contention shape the
/// share ledger governs.
std::vector<InferRequest> backlog_trace(std::int64_t count, const Dataset& pool) {
  std::vector<InferRequest> trace;
  for (std::int64_t i = 0; i < count; ++i)
    trace.push_back(InferRequest{/*id=*/i, /*arrival_s=*/0.0,
                                 /*example_index=*/i % pool.size()});
  return trace;
}

TEST(Colocation, WeightedSharesGovernDeviceTimeUnderContention) {
  // Two identical models, 3:1 share weights, demands matched 3:1 so both
  // stay backlogged until the end: the arbiter must split device time by
  // the configured weights, not by deadline urgency alone.
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("mrpc-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
  ModelRegistry registry;
  ModelConfig mc_a = model_config("heavy");
  mc_a.share = 3.0;
  ModelConfig mc_b = model_config("light");
  mc_b.share = 1.0;
  registry.add(eng_a, *rig_a.task.val, mc_a);
  registry.add(eng_b, *rig_b.task.val, mc_b);
  ColocationConfig cfg = colo_config(/*continuous=*/true);
  cfg.elastic.enabled = false;
  ColocatedServer server(registry, cfg);

  server.replay({backlog_trace(300, *rig_a.task.val),
                 backlog_trace(100, *rig_b.task.val)});

  const double used_a = server.device_time_used(0);
  const double used_b = server.device_time_used(1);
  ASSERT_GT(used_a, 0.0);
  ASSERT_GT(used_b, 0.0);
  const double frac_a = used_a / (used_a + used_b);
  EXPECT_NEAR(frac_a, 0.75, 0.075)
      << "device time must converge to share / sum(shares) within 10%";
}

TEST(Colocation, SmallBatchModelHoldsItsShareAgainstAggressiveCoTenant) {
  // The documented pre-fix starvation: a small-batch model's cheap slices
  // kept its deadline key looking less urgent than an aggressive
  // co-tenant's, and it fell arbitrarily far below any intended split.
  // With equal shares the ledger must hold it near half the device time —
  // regardless of the cost asymmetry. Demands are matched empirically so
  // both models stay backlogged for essentially the whole replay.
  Rig rig_a{make_task("mrpc-sim", kSeed), make_proxy_model("mrpc-sim", kSeed),
            make_recipe_with_batch("mrpc-sim", 64)};
  Rig rig_b{make_task("cola-sim", kSeed), make_proxy_model("cola-sim", kSeed),
            make_recipe_with_batch("cola-sim", 2)};
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0, /*vns=*/8);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0, /*vns=*/2);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("aggressive"));
  registry.add(eng_b, *rig_b.task.val, model_config("small-batch"));
  ColocationConfig cfg = colo_config(/*continuous=*/true);
  cfg.elastic.enabled = false;
  ColocatedServer server(registry, cfg);

  server.replay({backlog_trace(256, *rig_a.task.val),
                 backlog_trace(256, *rig_b.task.val)});

  const double used_a = server.device_time_used(0);
  const double used_b = server.device_time_used(1);
  ASSERT_GT(used_b, 0.0);
  const double frac_b = used_b / (used_a + used_b);
  EXPECT_GT(frac_b, 0.4)
      << "equal shares must keep the small-batch model near half the device "
         "time (deadline-only arbitration starved it)";
}

TEST(Colocation, StreamingChainsRideTheSharedArbiter) {
  // Token streams of two co-located models compete through the same
  // share-weighted arbiter: every requested token must be served, and the
  // per-token record streams must replay bit-identically across worker
  // counts (decode chains + rolling migrations + preemption included).
  const auto run = [](std::int64_t workers) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, workers);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, workers);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
    registry.add(eng_b, *rig_b.task.val, model_config("cola"));
    ColocatedServer server(registry, colo_config(/*continuous=*/true));
    StreamShape shape;
    shape.stream_fraction = 0.6;
    shape.tokens_min = 3;
    shape.tokens_max = 8;
    const std::vector<TracePhase> phases = {{60.0, 0.4}, {200.0, 0.8},
                                            {40.0, 0.8}};
    server.replay(
        {streaming_trace(kSeed, phases, rig_a.task.val->size(), shape),
         streaming_trace(kSeed + 1, phases, rig_b.task.val->size(), shape)});
    std::vector<std::vector<RequestRecord>> records;
    for (std::int32_t m = 0; m < 2; ++m) records.push_back(server.slo(m).records());
    return std::make_pair(records, digest(server));
  };

  const auto [serial, serial_digest] = run(0);
  for (std::size_t m = 0; m < 2; ++m) {
    std::int64_t streams = 0;
    for (const RequestRecord& r : serial[m]) {
      if (!r.streamed()) continue;
      ++streams;
      ASSERT_EQ(r.tokens.size(), r.token_stamps.size());
      EXPECT_EQ(r.prediction, r.tokens.back());
      for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
        EXPECT_GT(r.token_stamps[i], r.token_stamps[i - 1]);
    }
    EXPECT_GT(streams, 20) << "model " << m;
  }
  EXPECT_EQ(first_difference(serial_digest, run(8).second), nullptr);
}

TEST(Colocation, ShareWeightMustBePositive) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine eng = make_engine(rig, 1, 0);
  ModelRegistry registry;
  ModelConfig mc = model_config("bad");
  mc.share = 0.0;
  EXPECT_THROW(registry.add(eng, *rig.task.val, mc), VfError);
}

// ---- The acceptance-criteria property: per-model record streams are
// bit-identical across host worker counts, in both batching modes.

TEST(Colocation, ReplayBitIdenticalAcrossWorkerCountsBothModes) {
  for (const bool continuous : {true, false}) {
    const ColoResult serial = run_colocated(continuous, 0);
    ASSERT_GT(serial.summaries[0].completed, 0);
    ASSERT_GT(serial.summaries[1].completed, 0);
    for (const std::int64_t workers : {2, 8})
      EXPECT_EQ(first_difference(serial.digest, run_colocated(continuous, workers).digest),
                nullptr)
          << workers << "w continuous=" << continuous;
  }
}

TEST(Colocation, ValidatesConstruction) {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");

  {
    // Mismatched starting device counts: no shared set to multiplex.
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 2, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    registry.add(eng_b, *rig_b.task.val, model_config("b"));
    EXPECT_THROW(ColocatedServer(registry, colo_config(true)), VfError);
  }
  {
    // Mismatched device types: one shared set runs one type.
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0, /*vns=*/8, DeviceType::kP100);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    registry.add(eng_b, *rig_b.task.val, model_config("b"));
    EXPECT_THROW(ColocatedServer(registry, colo_config(true)), VfError);
  }
  {
    // A model with fewer VNs than the elastic ceiling could never use the
    // grown set.
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0, /*vns=*/4);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    registry.add(eng_b, *rig_b.task.val, model_config("b"));
    EXPECT_THROW(ColocatedServer(registry, colo_config(true)), VfError);
  }
  {
    // One engine is one model: double registration is a bug.
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    EXPECT_THROW(registry.add(eng_a, *rig_a.task.val, model_config("dup")), VfError);
  }
  {
    // Trace count must match the registry.
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    registry.add(eng_b, *rig_b.task.val, model_config("b"));
    ColocatedServer server(registry, colo_config(true));
    EXPECT_THROW(server.replay({poisson_trace(kSeed, 100.0, 10,
                                              rig_a.task.val->size())}),
                 VfError);
  }
}

TEST(Colocation, GrantsKeepTheEnginesDeviceType) {
  // A cluster grant sizes the shared set; the hardware stays the engines'
  // own, whatever the controller's pool holds.
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0, /*vns=*/8, DeviceType::kP100);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0, /*vns=*/8, DeviceType::kP100);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("a"));
  registry.add(eng_b, *rig_b.task.val, model_config("b"));
  ColocatedServer server(registry, colo_config(true));
  server.set_cluster_governed();
  const auto traces = staggered_traces(*rig_a.task.val, *rig_b.task.val);
  server.begin(traces);

  double t = 0.3;
  for (const std::int64_t grant : {4, 2}) {
    server.pump(t);
    ASSERT_GT(server.apply_grant(grant), 0.0);
    t = server.resizes().back().time_s + 0.1;  // past the rolling cutover
    for (const VirtualFlowEngine* eng : {&eng_a, &eng_b}) {
      ASSERT_EQ(static_cast<std::int64_t>(eng->devices().size()), grant);
      for (const Device& d : eng->devices())
        EXPECT_STREQ(device_type_name(d.type), "P100") << "grant " << grant;
    }
  }
  server.pump(std::numeric_limits<double>::infinity());
  server.finish();
  EXPECT_TRUE(server.drained());
}

TEST(Colocation, RejectsRegistryGrowthAfterConstruction) {
  // The server freezes its model set at construction; registering a
  // third model afterwards must be rejected at replay (and the accessors
  // must stay bounded by the frozen set, not the grown registry).
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
  VirtualFlowEngine eng_c = make_engine(rig_b, 1, 0);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("a"));
  ColocatedServer server(registry, colo_config(true));
  registry.add(eng_b, *rig_b.task.val, model_config("late"));
  registry.add(eng_c, *rig_b.task.val, model_config("later"));

  EXPECT_EQ(server.num_models(), 1);
  EXPECT_THROW(server.slo(1), VfError);
  EXPECT_THROW(server.queue(1), VfError);
  EXPECT_THROW(
      server.replay({poisson_trace(kSeed, 100.0, 5, rig_a.task.val->size()),
                     poisson_trace(kSeed, 100.0, 5, rig_b.task.val->size()),
                     poisson_trace(kSeed, 100.0, 5, rig_b.task.val->size())}),
      VfError);
}

TEST(Colocation, ReplayLeavesTheServerDrained) {
  // replay() runs the traces to the drain, and the server must say so
  // afterwards — drained() true, no event left — in both modes, exactly
  // as the single-model Server on this loop reports.
  for (const bool continuous : {true, false}) {
    Rig rig_a = make_rig("mrpc-sim");
    Rig rig_b = make_rig("cola-sim");
    VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
    VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
    ModelRegistry registry;
    registry.add(eng_a, *rig_a.task.val, model_config("a"));
    registry.add(eng_b, *rig_b.task.val, model_config("b"));
    ColocatedServer server(registry, colo_config(continuous));
    EXPECT_FALSE(server.drained()) << "nothing opened yet";
    server.replay(staggered_traces(*rig_a.task.val, *rig_b.task.val));
    EXPECT_TRUE(server.drained()) << "continuous=" << continuous;
    EXPECT_EQ(server.next_event_s(), std::numeric_limits<double>::infinity())
        << "continuous=" << continuous;
  }
}

TEST(Colocation, ReplayIsOneShot) {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a = make_engine(rig_a, 1, 0);
  VirtualFlowEngine eng_b = make_engine(rig_b, 1, 0);
  ModelRegistry registry;
  registry.add(eng_a, *rig_a.task.val, model_config("a"));
  registry.add(eng_b, *rig_b.task.val, model_config("b"));
  ColocatedServer server(registry, colo_config(true));
  const std::vector<std::vector<InferRequest>> traces = {
      poisson_trace(kSeed, 100.0, 10, rig_a.task.val->size()),
      poisson_trace(kSeed + 1, 100.0, 10, rig_b.task.val->size())};
  server.replay(traces);
  EXPECT_THROW(server.replay(traces), VfError);
}

}  // namespace
}  // namespace vf::serve
