// Server end-to-end: seeded open-loop replay through the full pipeline
// (queue -> former -> infer -> SLO), elasticity under queue pressure, and
// the bit-exactness contract across host worker counts.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "serve/arrival.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "tensor/kernels.h"
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

Rig make_rig() {
  return Rig{make_task("mrpc-sim", kSeed), make_proxy_model("mrpc-sim", kSeed),
             make_recipe("mrpc-sim")};
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

ServerConfig burst_config() {
  ServerConfig cfg;
  cfg.queue_capacity = 512;
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

/// steady -> burst -> steady: the burst outruns one device, builds queue
/// depth past the high watermark, and the tail drains it back down.
std::vector<InferRequest> burst_trace(const Dataset& pool) {
  return phased_poisson_trace(
      kSeed,
      {{/*rate_rps=*/300.0, /*duration_s=*/0.5},
       {/*rate_rps=*/4000.0, /*duration_s=*/1.0},
       {/*rate_rps=*/150.0, /*duration_s=*/2.0}},
      pool.size());
}

TEST(Server, ReplayServesEveryAdmittedRequest) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  Server server(engine, *rig.task.val, burst_config());
  const auto trace = burst_trace(*rig.task.val);
  ASSERT_GT(trace.size(), 100u);
  server.replay(trace);

  const SloTracker& slo = server.slo();
  EXPECT_EQ(slo.completed() + slo.rejected(), static_cast<std::int64_t>(trace.size()));
  EXPECT_TRUE(server.queue().empty()) << "replay must drain the queue";
  ASSERT_GT(slo.completed(), 0);
  for (const RequestRecord& r : slo.records()) {
    if (r.rejected) continue;
    EXPECT_GE(r.queue_wait_s, 0.0) << "request " << r.id;
    EXPECT_GT(r.compute_s, 0.0) << "request " << r.id;
    EXPECT_GE(r.latency_s(), r.compute_s) << "request " << r.id;
    EXPECT_GE(r.prediction, 0) << "request " << r.id;
  }
}

TEST(Server, QueueDepthTriggersGrowthThenDrainShrinks) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  Server server(engine, *rig.task.val, burst_config());
  server.replay(burst_trace(*rig.task.val));

  const auto& resizes = server.resizes();
  ASSERT_GE(resizes.size(), 2u) << "burst must trigger growth and drain must shrink";
  EXPECT_GT(resizes.front().to_devices, resizes.front().from_devices)
      << "first resize grows under queue pressure";
  EXPECT_GE(resizes.front().queue_depth, burst_config().elastic.high_watermark);
  bool shrank = false;
  for (const ResizeEvent& e : resizes) {
    EXPECT_GT(e.migration_s, 0.0) << "seamless resize still costs an all-gather";
    if (e.to_devices < e.from_devices) shrank = true;
  }
  EXPECT_TRUE(shrank) << "post-burst drain must shrink back";
  EXPECT_EQ(static_cast<std::int64_t>(engine.devices().size()),
            burst_config().elastic.min_devices)
      << "fully drained server ends at min_devices";
}

TEST(Server, ResizesKeepTheEnginesDeviceType) {
  // An elastic set grows and shrinks on the hardware it started on: after
  // a burst and its drain, the engine still runs P100s.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0, /*vns=*/8,
                                         DeviceType::kP100);
  Server server(engine, *rig.task.val, burst_config());
  server.replay(burst_trace(*rig.task.val));

  bool grew = false;
  bool shrank = false;
  for (const ResizeEvent& e : server.resizes()) {
    grew = grew || e.to_devices > e.from_devices;
    shrank = shrank || e.to_devices < e.from_devices;
  }
  ASSERT_TRUE(grew && shrank) << "the burst must grow the set and the drain shrink it";
  for (const Device& d : engine.devices())
    EXPECT_STREQ(device_type_name(d.type), "P100") << "device " << d.id;
}

TEST(Server, SloSummaryIsCoherent) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  Server server(engine, *rig.task.val, burst_config());
  server.replay(burst_trace(*rig.task.val));

  const SloSummary s = server.slo().summary();
  EXPECT_GT(s.completed, 0);
  EXPECT_LE(s.p50_s, s.p95_s);
  EXPECT_LE(s.p95_s, s.p99_s);
  EXPECT_LE(s.p99_s, s.max_s);
  EXPECT_GT(s.p50_s, 0.0);
  EXPECT_GE(s.hit_rate, 0.0);
  EXPECT_LE(s.hit_rate, 1.0);
  EXPECT_EQ(server.slo().latency_percentile_s(0.5), s.p50_s);
}

TEST(Server, TinyQueueExercisesBackpressure) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  ServerConfig cfg = burst_config();
  cfg.queue_capacity = 8;
  cfg.elastic.enabled = false;
  Server server(engine, *rig.task.val, cfg);
  const auto trace = burst_trace(*rig.task.val);
  server.replay(trace);

  const SloTracker& slo = server.slo();
  EXPECT_GT(slo.rejected(), 0) << "burst into an 8-deep queue must bounce requests";
  EXPECT_EQ(slo.completed() + slo.rejected(), static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(slo.rejected(), server.queue().rejected());
  EXPECT_TRUE(server.resizes().empty()) << "elasticity disabled";
}

// ---- The acceptance-criteria property: bit-identical across num_threads.

struct ReplayResult {
  RunDigest digest;  ///< every output stream, compared bit for bit
  SloSummary summary;
  std::size_t resizes = 0;
};

ReplayResult replay_result(const Server& server) {
  return {digest(server), server.slo().summary(), server.resizes().size()};
}

ReplayResult run_replay(std::int64_t workers) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, workers);
  Server server(engine, *rig.task.val, burst_config());
  server.replay(burst_trace(*rig.task.val));
  return replay_result(server);
}

TEST(Server, ReplayBitIdenticalAcrossWorkerCounts) {
  const ReplayResult serial = run_replay(0);
  ASSERT_GT(serial.summary.completed, 0);
  ASSERT_GT(serial.resizes, 0U);
  for (const std::int64_t workers : {2, 8})
    EXPECT_EQ(first_difference(serial.digest, run_replay(workers).digest), nullptr)
        << workers << "w";
}

// ---- Continuous (in-flight) batching.

TEST(Server, ContinuousReplayServesEveryAdmittedRequest) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  Server server(engine, *rig.task.val, cfg);
  const auto trace = burst_trace(*rig.task.val);
  server.replay(trace);

  const SloTracker& slo = server.slo();
  EXPECT_EQ(slo.completed() + slo.rejected(), static_cast<std::int64_t>(trace.size()));
  EXPECT_TRUE(server.queue().empty()) << "replay must drain the queue";
  ASSERT_GT(slo.completed(), 0);
  const std::int64_t max_slice = engine.mapping().vn_batch(0);
  for (const RequestRecord& r : slo.records()) {
    if (r.rejected) continue;
    EXPECT_GE(r.queue_wait_s, 0.0) << "request " << r.id;
    EXPECT_GT(r.compute_s, 0.0) << "request " << r.id;
    // finish - dispatch re-derives compute through additions on the
    // virtual clock; allow one ulp-scale slack.
    EXPECT_GE(r.inflight_s(), r.compute_s - 1e-12) << "request " << r.id;
    EXPECT_GE(r.prediction, 0) << "request " << r.id;
  }
  for (const BatchEvent& b : server.batches()) {
    EXPECT_GE(b.vn, 0) << "continuous work units are per-VN slices";
    EXPECT_LT(b.vn, engine.mapping().total_vns());
    EXPECT_LE(b.size, max_slice) << "a slice never exceeds its VN's batch share";
    EXPECT_GT(b.finish_s, b.start_s);
  }
}

TEST(Server, ContinuousBurstTriggersElasticGrowth) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  Server server(engine, *rig.task.val, cfg);
  server.replay(burst_trace(*rig.task.val));

  const auto& resizes = server.resizes();
  ASSERT_GE(resizes.size(), 2u);
  EXPECT_GT(resizes.front().to_devices, resizes.front().from_devices)
      << "first resize grows under queue pressure";
  // Growth fires on SYSTEM load (queue + in-flight), so under continuous
  // batching the recorded queue depth at the trigger sits BELOW the
  // watermark by at most the in-flight capacity (global_batch requests
  // across full slots) — the pre-fix blind spot was exactly that gap.
  EXPECT_LT(resizes.front().queue_depth, burst_config().elastic.high_watermark)
      << "continuous batching must grow before the queue alone hits the mark";
  EXPECT_GE(resizes.front().queue_depth + engine.mapping().global_batch(),
            burst_config().elastic.high_watermark);
  bool shrank = false;
  for (const ResizeEvent& e : resizes) {
    EXPECT_GT(e.migration_s, 0.0) << "seamless resize still costs an all-gather";
    if (e.to_devices < e.from_devices) shrank = true;
  }
  EXPECT_TRUE(shrank) << "post-burst drain must shrink back";
}

TEST(Server, ContinuousCutsQueueWaitUnderBurst) {
  const auto run_mode = [](bool continuous) {
    Rig rig = make_rig();
    VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
    ServerConfig cfg = burst_config();
    cfg.continuous = continuous;
    Server server(engine, *rig.task.val, cfg);
    server.replay(burst_trace(*rig.task.val));
    return server.slo().summary();
  };
  const SloSummary batch = run_mode(false);
  const SloSummary cont = run_mode(true);
  ASSERT_GT(batch.completed, 0);
  ASSERT_GT(cont.completed, 0);
  EXPECT_LT(cont.mean_queue_wait_s, batch.mean_queue_wait_s)
      << "admitting arrivals into in-flight slots must cut mean queue wait";
  EXPECT_NEAR(cont.mean_queue_wait_s + cont.mean_inflight_s, cont.mean_s, 1e-9)
      << "latency decomposes into queue wait + in-flight time";
}

TEST(Server, MigrationRollsBehindACutoverStamp) {
  // One model rolls a migration as N models do: the grant leaves the clock
  // where it was, arrivals inside the window are admitted at their own
  // stamps, and new dispatches wait for the cutover stamp.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, /*workers=*/0);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  cfg.queue_capacity = 8192;  // every arrival is admitted
  Server server(engine, *rig.task.val, cfg);
  obs::TraceRecorder trace_rec;
  server.set_observability({&trace_rec, nullptr});
  server.set_cluster_governed();
  const auto trace = burst_trace(*rig.task.val);
  server.begin(trace);

  const double t0 = 0.6;  // mid-burst
  server.pump(t0);
  ASSERT_EQ(server.now_s(), t0);
  const double migration = server.apply_grant(4);
  ASSERT_GT(migration, 0.0);
  EXPECT_EQ(migration, server.resizes().back().migration_s);
  EXPECT_EQ(server.now_s(), t0) << "a grant does not move the clock";
  const double cutover = server.resizes().back().time_s;
  EXPECT_EQ(cutover, t0 + migration);

  const double mid = t0 + 0.5 * migration;
  server.pump(mid);
  EXPECT_EQ(server.now_s(), mid);
  std::int64_t before = 0;
  std::int64_t arrived = 0;
  for (const InferRequest& r : trace) {
    before += r.arrival_s <= t0 ? 1 : 0;
    arrived += r.arrival_s <= mid ? 1 : 0;
  }
  ASSERT_GT(arrived, before) << "the window must see arrivals";
  ASSERT_LT(arrived, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(server.queue().admitted(), arrived)
      << "arrivals inside the window are admitted at their own stamps";

  server.pump(std::numeric_limits<double>::infinity());
  server.finish();
  ASSERT_TRUE(server.drained());
  std::int64_t after = 0;
  for (const BatchEvent& b : server.batches()) {
    EXPECT_TRUE(b.start_s <= t0 || b.start_s >= cutover)
        << "dispatched mid-migration at " << b.start_s;
    after += b.start_s >= cutover ? 1 : 0;
  }
  EXPECT_GT(after, 0);
  bool marked = false;
  for (const obs::TraceEvent& e : trace_rec.events())
    if (e.instant && std::string(e.name) == "cutover" && e.ts_s == cutover) marked = true;
  EXPECT_TRUE(marked) << "the trace marks the cutover stamp";
}

ReplayResult run_continuous_replay(std::int64_t workers) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, workers);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  Server server(engine, *rig.task.val, cfg);
  server.replay(burst_trace(*rig.task.val));
  return replay_result(server);
}

TEST(Server, ContinuousReplayBitIdenticalAcrossWorkerCounts) {
  const ReplayResult serial = run_continuous_replay(0);
  ASSERT_GT(serial.summary.completed, 0);
  ASSERT_GT(serial.resizes, 0U);
  for (const std::int64_t workers : {2, 8})
    EXPECT_EQ(first_difference(serial.digest, run_continuous_replay(workers).digest),
              nullptr)
        << workers << "w";
}

TEST(Server, ReplayBitIdenticalAcrossKernelModes) {
  // The kernel layer cannot move a prediction, a latency bit, or a resize
  // decision — in either batching mode. (Replays run under reference and
  // simd kernels at different worker counts; every output stream is
  // compared exactly. The simd arms run everywhere: without the vector
  // ISA the simd mode runs the reference loops.)
  const KernelMode saved = TensorConfig::kernel_mode();

  TensorConfig::set_kernel_mode(KernelMode::kReference);
  const ReplayResult batch_ref = run_replay(0);
  const ReplayResult cont_ref = run_continuous_replay(0);
  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  const ReplayResult batch_simd = run_replay(2);
  const ReplayResult cont_simd = run_continuous_replay(2);
  const ReplayResult batch_simd_wide = run_replay(8);
  const ReplayResult cont_simd_wide = run_continuous_replay(8);
  TensorConfig::set_kernel_mode(saved);

  ASSERT_GT(batch_ref.summary.completed, 0);
  EXPECT_EQ(first_difference(batch_ref.digest, batch_simd.digest), nullptr);
  EXPECT_EQ(first_difference(cont_ref.digest, cont_simd.digest), nullptr);
  EXPECT_EQ(first_difference(batch_ref.digest, batch_simd_wide.digest), nullptr);
  EXPECT_EQ(first_difference(cont_ref.digest, cont_simd_wide.digest), nullptr);
}

// ---- Token streaming: prefill/decode disaggregation on the slice chain.

/// Mixed classify + stream trace: steady -> burst -> drain with most
/// requests streaming a short completion.
std::vector<InferRequest> stream_trace(const Dataset& pool) {
  StreamShape shape;
  shape.stream_fraction = 0.7;
  shape.prompt_min = 8;
  shape.prompt_max = 32;
  shape.tokens_min = 4;
  shape.tokens_max = 12;
  return streaming_trace(kSeed,
                         {{/*rate_rps=*/40.0, /*duration_s=*/0.5},
                          {/*rate_rps=*/150.0, /*duration_s=*/1.0},
                          {/*rate_rps=*/30.0, /*duration_s=*/1.0}},
                         pool.size(), shape);
}

ReplayResult run_streaming_replay(std::int64_t workers, bool disaggregate = true) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, /*devices=*/1, workers);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  cfg.stream.disaggregate = disaggregate;
  Server server(engine, *rig.task.val, cfg);
  server.replay(stream_trace(*rig.task.val));
  return replay_result(server);
}

TEST(Server, StreamingReplayStampsEveryToken) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  ServerConfig cfg = burst_config();
  cfg.continuous = true;
  Server server(engine, *rig.task.val, cfg);
  const auto trace = stream_trace(*rig.task.val);
  std::int64_t expect_streams = 0;
  std::int64_t expect_tokens = 0;
  for (const InferRequest& r : trace) {
    if (r.stream_tokens > 0) {
      ++expect_streams;
      expect_tokens += r.stream_tokens;
    }
  }
  ASSERT_GT(expect_streams, 50);
  ASSERT_LT(expect_streams, static_cast<std::int64_t>(trace.size()))
      << "the trace must mix classify requests in";
  server.replay(trace);

  const SloTracker& slo = server.slo();
  EXPECT_EQ(slo.completed() + slo.rejected(), static_cast<std::int64_t>(trace.size()));
  EXPECT_TRUE(server.queue().empty());
  const SloSummary s = slo.summary();
  EXPECT_EQ(s.rejected, 0) << "512-deep queue must admit this trace";
  EXPECT_EQ(s.streams, expect_streams);
  EXPECT_EQ(s.tokens, expect_tokens) << "every requested token must be served";
  EXPECT_GT(s.p50_ttft_s, 0.0);
  EXPECT_GT(s.mean_itl_s, 0.0);

  std::int64_t prefills = 0;
  std::int64_t decodes = 0;
  for (const BatchEvent& b : server.batches()) {
    if (b.kind == SliceKind::kPrefill) ++prefills;
    if (b.kind == SliceKind::kDecode) ++decodes;
  }
  EXPECT_EQ(prefills, expect_streams) << "one prefill slice per stream";
  EXPECT_EQ(decodes, expect_tokens - expect_streams)
      << "one decode slice per token after the first";

  for (const RequestRecord& r : slo.records()) {
    if (!r.streamed()) continue;
    ASSERT_EQ(r.tokens.size(), r.token_stamps.size()) << "request " << r.id;
    EXPECT_DOUBLE_EQ(r.first_token_s, r.token_stamps.front()) << r.id;
    EXPECT_DOUBLE_EQ(r.finish_s, r.token_stamps.back()) << r.id;
    EXPECT_EQ(r.prediction, r.tokens.back()) << r.id;
    EXPECT_GT(r.ttft_s(), 0.0) << r.id;
    for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
      EXPECT_GT(r.token_stamps[i], r.token_stamps[i - 1])
          << "tokens must stream strictly forward, request " << r.id;
  }
}

TEST(Server, StreamingRequiresContinuousMode) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  ServerConfig cfg = burst_config();
  cfg.continuous = false;
  Server server(engine, *rig.task.val, cfg);
  EXPECT_THROW(server.replay(stream_trace(*rig.task.val)), VfError)
      << "a stream is a slice chain; batch-boundary mode has no slots";
}

TEST(Server, DisaggregationCutsTtftTailAtEqualTokens) {
  // A/B on the same trace: disaggregated scheduling (prefill admission
  // preferred, token-boundary preemption of decode chains) against plain
  // FIFO slice order. Both modes serve every requested token; the
  // disaggregated policy must buy its complexity with a lower TTFT tail.
  const ReplayResult disagg = run_streaming_replay(0, /*disaggregate=*/true);
  const ReplayResult fifo = run_streaming_replay(0, /*disaggregate=*/false);
  ASSERT_GT(disagg.summary.streams, 0);
  EXPECT_EQ(disagg.summary.tokens, fifo.summary.tokens)
      << "policy must not change the work served";
  EXPECT_EQ(disagg.summary.streams, fifo.summary.streams);
  EXPECT_LT(disagg.summary.p99_ttft_s, fifo.summary.p99_ttft_s)
      << "prefill preference must cut the TTFT tail";
}

TEST(Server, StreamingReplayBitIdenticalAcrossWorkerCounts) {
  // Token ids and per-token stamps are part of the records stream.
  const ReplayResult serial = run_streaming_replay(0);
  ASSERT_GT(serial.summary.streams, 0);
  for (const std::int64_t workers : {2, 8})
    EXPECT_EQ(first_difference(serial.digest, run_streaming_replay(workers).digest),
              nullptr)
        << workers << "w";
}

TEST(Server, ValidatesElasticPolicy) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0, /*vns=*/4);
  ServerConfig cfg = burst_config();
  cfg.elastic.max_devices = 8;  // > 4 VNs: extra devices could never serve
  EXPECT_THROW(Server(engine, *rig.task.val, cfg), VfError);
  cfg.elastic.max_devices = 4;
  cfg.elastic.high_watermark = cfg.elastic.low_watermark;  // no hysteresis band
  EXPECT_THROW(Server(engine, *rig.task.val, cfg), VfError);
}

TEST(Server, ReplayIsOneShot) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 1, 0);
  Server server(engine, *rig.task.val, burst_config());
  server.replay(poisson_trace(kSeed, 100.0, 10, rig.task.val->size()));
  EXPECT_THROW(server.replay(poisson_trace(kSeed, 100.0, 10, rig.task.val->size())),
               VfError);
}

}  // namespace
}  // namespace vf::serve
