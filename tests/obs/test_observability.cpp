// End-to-end observability contract on a serving replay: the exported
// trace and metrics snapshot are byte-identical across host worker
// counts, recording never perturbs a record, and the trace covers the
// slice kinds and scheduler markers the replay exercised. Bit-identity is
// decided by the run digest (serve/digest.h).
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/arrival.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf::serve {
namespace {

constexpr std::uint64_t kSeed = 42;

struct Outcome {
  RunDigest digest;
  std::string trace_json;
  std::string metrics_json;
};

/// One elastic streaming replay (prefill/decode disaggregation on, so
/// token-boundary preemptions occur) with optional recording.
Outcome run(std::int64_t workers, bool record) {
  const ProxyTask task = make_task("cifar10-sim", kSeed);
  const Sequential model = make_proxy_model("cifar10-sim", kSeed);
  const TrainRecipe recipe = make_recipe("cifar10-sim");
  EngineConfig ecfg;
  ecfg.seed = kSeed;
  ecfg.enforce_memory = false;
  ecfg.num_threads = workers;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("llm-decode"), make_devices(DeviceType::kV100, 1),
                           VnMapping::even(8, 1, recipe.global_batch), ecfg);

  ServerConfig cfg;
  cfg.queue_capacity = 4096;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.005};
  cfg.deadline_s = 0.25;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 18;
  cfg.elastic.low_watermark = 6;
  cfg.elastic.max_devices = 4;
  cfg.elastic.cooldown_batches = 1;

  Server server(engine, *task.val, cfg);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  const obs::Observability recorded =
      record ? obs::Observability{&trace, &metrics} : obs::Observability{};
  server.set_observability(recorded);

  StreamShape shape;
  shape.stream_fraction = 0.85;
  server.replay(streaming_trace(kSeed,
                                {{25.0, 0.5}, {90.0, 0.6}, {15.0, 0.8}},
                                task.val->size(), shape));

  return {digest(server, recorded), trace.to_json(), metrics.to_json()};
}

TEST(Observability, TraceBytesIdenticalAcrossWorkerCounts) {
  const Outcome serial = run(/*workers=*/0, /*record=*/true);
  const Outcome pooled = run(/*workers=*/2, /*record=*/true);
  // Both arms record, so the digest compares the export bytes too: the
  // exported trace is a pure function of the replay.
  ASSERT_NE(serial.digest.trace, 0U);
  ASSERT_NE(serial.digest.metrics, 0U);
  EXPECT_EQ(first_difference(serial.digest, pooled.digest), nullptr);
}

TEST(Observability, RecordingNeverPerturbsTheReplay) {
  const Outcome observed = run(/*workers=*/0, /*record=*/true);
  const Outcome silent = run(/*workers=*/0, /*record=*/false);
  EXPECT_EQ(first_difference(observed.digest, silent.digest), nullptr)
      << "attaching the recorder must not move one stamp";
  EXPECT_EQ(silent.trace_json, "{\"traceEvents\": [\n  {\"name\": "
                               "\"process_name\", \"ph\": \"M\", \"pid\": 0, "
                               "\"args\": {\"name\": \"virtualflow\"}}\n]}\n")
      << "no sink attached -> nothing recorded";
}

TEST(Observability, TraceCoversKindsAndMarkers) {
  const Outcome o = run(/*workers=*/0, /*record=*/true);
  for (const char* name : {"classify", "prefill", "decode", "resize", "preempt"})
    EXPECT_TRUE(obs::has_event(o.trace_json, name)) << name;

  // The metrics feed agrees with the trace on what happened.
  EXPECT_NE(o.metrics_json.find("serve.slices.prefill"), std::string::npos);
  EXPECT_NE(o.metrics_json.find("serve.preemptions"), std::string::npos);
  EXPECT_NE(o.metrics_json.find("serve.slo.hit_rate"), std::string::npos);
  EXPECT_NE(o.metrics_json.find("serve.latency_s"), std::string::npos);
}

}  // namespace
}  // namespace vf::serve
