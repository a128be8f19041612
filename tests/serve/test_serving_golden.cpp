// Golden pins of the serving loop: every output stream of a run reduced to
// its own FNV-1a hash by the run digest (serve/digest.h), so a failure
// names the stream that moved — request records (tokens, stamps, retries
// included), resizes, batches, faults, the trace export bytes, the
// metrics export bytes and, for controller leases, the grants and the
// final clock. Single-model `Server` runs cover
// every mode (continuous classify, disaggregated and FIFO streaming,
// faults with shedding, batch-boundary, self-driven and under a lease);
// two-model `ColocatedServer` runs cover continuous streaming, faults,
// batch-boundary and rolling cutovers under a lease. Every run records
// with both sinks attached (recording never perturbs the schedule). The
// hashes are those of the runs when the pins were taken; a change means a
// scheduling decision, a stamp or an export byte moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "sched/cluster.h"
#include "sched/wfs.h"
#include "serve/arrival.h"
#include "serve/colocation.h"
#include "serve/digest.h"
#include "serve/server.h"
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
  return Rig{make_task(task, kSeed), make_proxy_model(task, kSeed), make_recipe(task)};
}

VirtualFlowEngine make_engine(Rig& rig, std::int64_t devices,
                              const std::string& profile = "bert-base") {
  EngineConfig cfg;
  cfg.seed = kSeed;
  cfg.enforce_memory = false;
  return VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                           *rig.task.train, model_profile(profile),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(8, devices, rig.recipe.global_batch), cfg);
}

ElasticPolicy elastic(std::int64_t high, std::int64_t low) {
  ElasticPolicy e;
  e.high_watermark = high;
  e.low_watermark = low;
  e.min_devices = 1;
  e.max_devices = 8;
  e.cooldown_batches = 1;
  return e;
}

ServerConfig classify_config(bool continuous) {
  ServerConfig cfg;
  cfg.queue_capacity = 2048;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  cfg.deadline_s = 0.5;
  cfg.continuous = continuous;
  cfg.elastic = elastic(48, 4);
  return cfg;
}

/// The vfbench serve-stream server: elastic token streaming with
/// prefill/decode disaggregation, watermarks sized to 8 one-request slots.
ServerConfig stream_config(bool disaggregate) {
  ServerConfig cfg;
  cfg.queue_capacity = 4096;
  cfg.batch = {64, 0.005};
  cfg.deadline_s = 0.25;
  cfg.continuous = true;
  cfg.stream.disaggregate = disaggregate;
  cfg.elastic = elastic(18, 6);
  return cfg;
}

StreamShape stream_shape(double fraction) {
  StreamShape s;
  s.stream_fraction = fraction;
  return s;
}

std::vector<InferRequest> burst_trace(const Dataset& pool) {
  return phased_poisson_trace(kSeed, {{300.0, 0.4}, {3000.0, 1.0}, {150.0, 1.6}},
                              pool.size());
}

/// Every stream against its pin, exactly: a run that stops recording an
/// export (hash 0) fails here too.
void expect_streams(const RunDigest& got, const RunDigest& want) {
  EXPECT_EQ(hex(got.records), hex(want.records)) << "records moved";
  EXPECT_EQ(hex(got.resizes), hex(want.resizes)) << "resizes moved";
  EXPECT_EQ(hex(got.batches), hex(want.batches)) << "batches moved";
  EXPECT_EQ(hex(got.faults), hex(want.faults)) << "faults moved";
  EXPECT_EQ(hex(got.trace), hex(want.trace)) << "trace export moved";
  EXPECT_EQ(hex(got.metrics), hex(want.metrics)) << "metrics export moved";
  EXPECT_EQ(hex(got.lease), hex(want.lease)) << "lease grants/end moved";
}

// ---- Single-model Server ---------------------------------------------------

/// Replays `trace` on a self-driven Server (optionally faulted) and hashes
/// its streams.
RunDigest server_run(VirtualFlowEngine& engine, const Dataset& pool, const ServerConfig& cfg,
                     const std::vector<InferRequest>& trace,
                     fault::FaultInjector* injector = nullptr) {
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  Server server(engine, pool, cfg);
  server.set_observability({&trace_rec, &metrics});
  if (injector != nullptr) server.set_fault_injector(injector);
  server.replay(trace);
  return digest(server, {&trace_rec, &metrics});
}

/// Runs `lease` (cluster-governed and begun) as a serving job next to an
/// analytic training job under WFS on 12 V100s.
ClusterReport run_under_controller(sched::DeviceLease& lease) {
  ElasticWfsScheduler wfs;
  ClusterInventory cluster;
  cluster.per_type[DeviceType::kV100] = 12;
  ClusterController c(cluster, wfs);
  JobSpec serve;
  serve.id = 0;
  serve.kind = JobKind::kServe;
  serve.priority = 10.0;
  serve.demand_gpus = 4;
  serve.min_gpus = 1;
  serve.max_gpus = 8;
  c.add_serve_job(serve, lease);
  JobSpec train;
  train.id = 1;
  train.workload = "resnet56";
  train.profile = model_profile("resnet56");
  train.global_batch = 128;
  train.total_steps = 1500;
  train.demand_gpus = 4;
  c.add_train_job(train);
  return c.run();
}

/// A Server lease under the controller; `injector` may be null.
RunDigest server_lease_run(fault::FaultInjector* injector) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  Server server(engine, *rig.task.val, classify_config(true));
  server.set_observability({&trace_rec, &metrics});
  if (injector != nullptr) server.set_fault_injector(injector);
  server.set_cluster_governed();
  const auto trace = phased_poisson_trace(
      kSeed, {{300.0, 0.5}, {2500.0, 1.0}, {150.0, 2.0}}, rig.task.val->size());
  server.begin(trace);
  const ClusterReport report = run_under_controller(server);
  server.finish();
  EXPECT_TRUE(server.drained());

  RunDigest s = digest(server, {&trace_rec, &metrics});
  s.lease = lease_digest(report);
  return s;
}

TEST(ServingGolden, ServerContinuousElasticClassify) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  expect_streams(server_run(engine, *rig.task.val, classify_config(true),
                            burst_trace(*rig.task.val)),
                 RunDigest{.records = 0xb02365605749af7eull, .resizes = 0x620c746e5bdd206dull,
                           .batches = 0xfc821880f0a9c645ull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0x13b6a1908351bd36ull, .metrics = 0x6001332c688ca841ull});
}

TEST(ServingGolden, ServerServeStreamConfig) {
  // vfbench serve-stream: 40 -> 90 -> 20 rps of 85% token streams on a
  // one-device, 8-VN llm-decode engine.
  Rig rig = make_rig("cifar10-sim");
  VirtualFlowEngine engine = make_engine(rig, 1, "llm-decode");
  const auto trace = streaming_trace(kSeed, {{40.0, 10.0}, {90.0, 10.0}, {20.0, 10.0}},
                                     rig.task.val->size(), stream_shape(0.85));
  expect_streams(server_run(engine, *rig.task.val, stream_config(true), trace),
                 RunDigest{.records = 0xb0c04723b6c34064ull, .resizes = 0xd6554566068d3facull,
                           .batches = 0x9dd1e7abdf69ce64ull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0xa360f30e26eed6f8ull, .metrics = 0xe7e43c3e6ff05e4bull});
}

TEST(ServingGolden, ServerFifoStreaming) {
  Rig rig = make_rig("cifar10-sim");
  VirtualFlowEngine engine = make_engine(rig, 1, "llm-decode");
  const auto trace = streaming_trace(kSeed + 7, {{40.0, 3.0}, {110.0, 3.0}, {20.0, 3.0}},
                                     rig.task.val->size(), stream_shape(0.6));
  expect_streams(server_run(engine, *rig.task.val, stream_config(false), trace),
                 RunDigest{.records = 0xc49568c0a5c50412ull, .resizes = 0xae4a08d9afcf858eull,
                           .batches = 0x69afc3e7f60cc8acull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0x0c9b1448eab00b08ull, .metrics = 0x908df8d4fa59880cull});
}

TEST(ServingGolden, ServerKillsRecoverAndShedding) {
  // Four devices, two kills (one of them under a straggler), a comm fault,
  // both recovers; shedding drops queued requests already past the SLO.
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 4);
  ServerConfig cfg = classify_config(true);
  cfg.deadline_s = 0.3;
  cfg.shed_expired = true;
  fault::FaultPlan plan;
  plan.kill(0.5, 1)
      .straggler(0.6, 0, 2.0, 0.4)
      .comm_fault(0.7)
      .kill(0.9, 3)
      .recover(1.3)
      .recover(1.7);
  fault::FaultInjector injector(std::move(plan));
  const auto trace = streaming_trace(kSeed, {{300.0, 0.4}, {3000.0, 1.0}, {150.0, 1.6}},
                                     rig.task.val->size(), stream_shape(0.4));
  expect_streams(server_run(engine, *rig.task.val, cfg, trace, &injector),
                 RunDigest{.records = 0x1ee4ede9e779999aull, .resizes = 0x6538e9884c6f2ef3ull,
                           .batches = 0x09ca251e3d187697ull, .faults = 0x89ef48457d72643full,
                           .trace = 0x9a4c07840833ac06ull, .metrics = 0x82b30a9983fa2ebcull});
}

TEST(ServingGolden, ServerBatchBoundaryElastic) {
  Rig rig = make_rig("mrpc-sim");
  VirtualFlowEngine engine = make_engine(rig, 1);
  expect_streams(server_run(engine, *rig.task.val, classify_config(false),
                            burst_trace(*rig.task.val)),
                 RunDigest{.records = 0x78a49c5b1abd2582ull, .resizes = 0xda18431d588a9373ull,
                           .batches = 0x304e1fa963e34bc3ull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0xc27025724066fbb8ull, .metrics = 0xd2c7e28b5848da6bull});
}

TEST(ServingGolden, ServerControllerLease) {
  expect_streams(server_lease_run(nullptr),
                 RunDigest{.records = 0x432aa4f237d16f23ull, .resizes = 0xbd109f1784e58699ull,
                           .batches = 0x767380089d2e07caull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0x0e9e679c2e7ee252ull, .metrics = 0x73b2653c477a12bcull,
                           .lease = 0xde178a53b6b641eaull});
}

TEST(ServingGolden, ServerControllerLeaseWithKill) {
  fault::FaultPlan plan;
  plan.kill(0.8, 0).recover(1.6);
  fault::FaultInjector injector(std::move(plan));
  expect_streams(server_lease_run(&injector),
                 RunDigest{.records = 0x8787ff695b9a0e8bull, .resizes = 0xeeb5fa0cc0ef960full,
                           .batches = 0x3d43514ec7fd2e0eull, .faults = 0xeb994cfafc6438f0ull,
                           .trace = 0x0bdac3fd94284ac1ull, .metrics = 0xcab46169cd859844ull,
                           .lease = 0xa349e93512a4dde3ull});
}

// ---- Two-model ColocatedServer ---------------------------------------------

ModelConfig model_config(const std::string& name) {
  ModelConfig mc;
  mc.name = name;
  mc.queue_capacity = 2048;
  mc.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  mc.deadline_s = 0.5;
  return mc;
}

ColocationConfig colo_config(bool continuous) {
  ColocationConfig cfg;
  cfg.continuous = continuous;
  cfg.stream.disaggregate = true;
  cfg.elastic = elastic(48, 4);
  return cfg;
}

/// Two co-located models (mrpc + cola) on one shared device set.
struct Pair {
  Rig rig_a = make_rig("mrpc-sim");
  Rig rig_b = make_rig("cola-sim");
  VirtualFlowEngine eng_a;
  VirtualFlowEngine eng_b;
  ModelRegistry registry;

  explicit Pair(std::int64_t devices)
      : eng_a(make_engine(rig_a, devices)), eng_b(make_engine(rig_b, devices)) {
    registry.add(eng_a, *rig_a.task.val, model_config("mrpc"));
    registry.add(eng_b, *rig_b.task.val, model_config("cola"));
  }

  /// Staggered bursts (model 0 early, model 1 late); `fraction` of the
  /// requests stream.
  std::vector<std::vector<InferRequest>> traces(double fraction) const {
    return {streaming_trace(kSeed, {{250.0, 0.4}, {2000.0, 0.8}, {120.0, 1.6}},
                            rig_a.task.val->size(), stream_shape(fraction)),
            streaming_trace(kSeed + 1, {{200.0, 1.0}, {2000.0, 0.8}, {100.0, 1.2}},
                            rig_b.task.val->size(), stream_shape(fraction))};
  }
};

RunDigest colocated_run(Pair& pair, bool continuous, double stream_fraction,
                        fault::FaultInjector* injector = nullptr) {
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  ColocatedServer server(pair.registry, colo_config(continuous));
  server.set_observability({&trace_rec, &metrics});
  if (injector != nullptr) server.set_fault_injector(injector);
  const auto traces = pair.traces(stream_fraction);
  server.replay(traces);
  return digest(server, {&trace_rec, &metrics});
}

TEST(ServingGolden, ColocatedContinuousStreaming) {
  Pair pair(1);
  expect_streams(colocated_run(pair, true, 0.4),
                 RunDigest{.records = 0x3ed57d89d60841f2ull, .resizes = 0x373c5a1ba9ce0207ull,
                           .batches = 0x33dd8f1411534deeull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0x541d5f77aa3c6d69ull, .metrics = 0xfeeacc97001b525eull});
}

TEST(ServingGolden, ColocatedFaults) {
  Pair pair(2);
  fault::FaultPlan plan;
  plan.kill(0.6, 1).comm_fault(0.9).kill(1.4, 0).recover(1.8).recover(2.2);
  fault::FaultInjector injector(std::move(plan));
  expect_streams(colocated_run(pair, true, 0.4, &injector),
                 RunDigest{.records = 0xb46255534b98b21bull, .resizes = 0x0e95cbad5df3ecbbull,
                           .batches = 0xa8e772ece6620016ull, .faults = 0x953d218ad8bc3746ull,
                           .trace = 0x68cf09e0f106c934ull, .metrics = 0xcba84bf4a37e1e92ull});
}

TEST(ServingGolden, ColocatedBatchBoundary) {
  Pair pair(1);
  expect_streams(colocated_run(pair, false, 0.0),
                 RunDigest{.records = 0x362f3a8ccf6f1204ull, .resizes = 0x30cf85edece3fe08ull,
                           .batches = 0x948600ea167199dfull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0xdfe161bf2c230f13ull, .metrics = 0x036ef95ac72d18f4ull});
}

TEST(ServingGolden, ColocatedControllerLeaseRollingCutovers) {
  Pair pair(1);
  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  ColocatedServer server(pair.registry, colo_config(true));
  server.set_observability({&trace_rec, &metrics});
  server.set_cluster_governed();
  const auto traces = pair.traces(0.4);
  server.begin(traces);

  const ClusterReport report = run_under_controller(server);
  server.finish();
  ASSERT_TRUE(server.drained());

  std::int64_t rolled = 0;
  for (const ResizeEvent& e : server.resizes()) rolled += e.migration_s > 0.0 ? 1 : 0;
  EXPECT_GT(rolled, 0) << "the grants must roll at least one cutover";
  RunDigest s = digest(server, {&trace_rec, &metrics});
  s.lease = lease_digest(report);
  expect_streams(s,
                 RunDigest{.records = 0xe6cd1abf1613a084ull, .resizes = 0x13867ab3b1d666c6ull,
                           .batches = 0x240116394b399cb0ull, .faults = 0xa8c7f832281a39c5ull,
                           .trace = 0xe31fc11f156a5ce8ull, .metrics = 0x28c212732815e83full,
                           .lease = 0x76383e5893e25ed6ull});
}

}  // namespace
}  // namespace vf::serve
