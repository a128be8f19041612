// The run digest (serve/digest.h) decides every serving bit-identity claim,
// so a change to one field of one element must move that stream's hash
// alone, and first_difference must name it. The base run is a faulted,
// recorded, elastic streaming replay, so every stream is non-empty; the
// lease stream digests a hand-built controller report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/arrival.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf::serve {
namespace {

constexpr std::uint64_t kSeed = 42;

/// A finished run: copies of its schedule streams, its recorders and a
/// controller report, each free to perturb.
class RunDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ProxyTask task = make_task("mrpc-sim", kSeed);
    const Sequential model = make_proxy_model("mrpc-sim", kSeed);
    const TrainRecipe recipe = make_recipe("mrpc-sim");
    EngineConfig ecfg;
    ecfg.seed = kSeed;
    ecfg.enforce_memory = false;
    VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                             model_profile("bert-base"), make_devices(DeviceType::kV100, 2),
                             VnMapping::even(8, 2, recipe.global_batch), ecfg);
    ServerConfig cfg;
    cfg.continuous = true;
    cfg.stream.disaggregate = true;
    fault::FaultPlan plan;
    plan.kill(0.4, 1).recover(0.8);
    fault::FaultInjector injector(std::move(plan));
    Server server(engine, *task.val, cfg);
    server.set_observability({&trace_, &metrics_});
    server.set_fault_injector(&injector);
    StreamShape shape;
    shape.stream_fraction = 0.4;
    server.replay(streaming_trace(kSeed, {{300.0, 0.3}, {2500.0, 0.4}, {150.0, 0.5}},
                                  task.val->size(), shape));

    records_ = server.slo().records();
    resizes_ = server.resizes();
    batches_ = server.batches();
    faults_ = server.faults();
    report_.grants = {GrantRecord{.time_s = 0.5, .job_id = 0, .from_devices = 1,
                                  .to_devices = 4, .migration_s = 0.1},
                      GrantRecord{.time_s = 2.0, .job_id = 0, .from_devices = 4,
                                  .to_devices = 2, .migration_s = 0.05}};
    report_.end_s = 3.0;
    ASSERT_FALSE(resizes_.empty());
    ASSERT_FALSE(faults_.empty());
    // The copies digest like the live server (whose lease stream is 0).
    live_ = digest(server, {&trace_, &metrics_});
    ASSERT_EQ(first_difference(live_, current()), nullptr);
  }

  /// Digest of the copies (and the lease report) in their current state.
  RunDigest current() {
    LoopStreams loop;
    loop.records = {records_};
    loop.resizes = resizes_;
    loop.batches = batches_;
    loop.faults = faults_;
    RunDigest d = digest(loop, {&trace_, &metrics_});
    d.lease = lease_digest(report_);
    return d;
  }

  /// Applies `perturb`, then expects exactly `stream` to have moved.
  /// Perturbations accumulate: each is judged against the state before it.
  void expect_only(const char* stream, const std::function<void()>& perturb) {
    SCOPED_TRACE(stream);
    const RunDigest before = current();
    perturb();
    const RunDigest after = current();
    const std::vector<std::pair<const char*, bool>> moved = {
        {"records", before.records != after.records},
        {"resizes", before.resizes != after.resizes},
        {"batches", before.batches != after.batches},
        {"faults", before.faults != after.faults},
        {"trace", before.trace != after.trace},
        {"metrics", before.metrics != after.metrics},
        {"lease", before.lease != after.lease}};
    for (const auto& [name, did_move] : moved)
      EXPECT_EQ(did_move, std::string(name) == stream) << name;
    ASSERT_NE(first_difference(before, after), nullptr);
    EXPECT_STREQ(first_difference(before, after), stream);
    EXPECT_STREQ(first_difference(after, before), stream);
  }

  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  RunDigest live_;
  std::vector<RequestRecord> records_;
  std::vector<ResizeEvent> resizes_;
  std::vector<BatchEvent> batches_;
  std::vector<FaultRecord> faults_;
  ClusterReport report_;
};

TEST_F(RunDigestTest, EachStreamMovesAloneAndIsNamed) {
  expect_only("records", [&] {
    double& c = records_[records_.size() / 2].compute_s;
    c = std::nextafter(c, std::numeric_limits<double>::infinity());
  });
  expect_only("resizes", [&] { resizes_.back().queue_depth += 1; });
  expect_only("batches", [&] {
    bool& warm = batches_[batches_.size() / 2].warm;
    warm = !warm;
  });
  expect_only("faults", [&] { faults_.front().requeued_requests += 1; });
  expect_only("trace",
              [&] { trace_.set_queue_depth(0, trace_.events()[0].queue_depth + 1); });
  ASSERT_NE(metrics_.find_counter("serve.preemptions"), nullptr);
  expect_only("metrics", [&] { metrics_.counter("serve.preemptions").add(1); });
  expect_only("lease", [&] { report_.grants.back().migration_s += 0.01; });
}

TEST_F(RunDigestTest, UnrecordedStreamsAreNotCompared) {
  RunDigest silent = live_;
  silent.trace = 0;
  silent.metrics = 0;
  EXPECT_EQ(first_difference(live_, silent), nullptr)
      << "exports compare only between runs that both record";
  RunDigest leased = live_;
  leased.lease = lease_digest(report_);
  EXPECT_EQ(first_difference(live_, leased), nullptr);
  silent.records ^= 1;
  EXPECT_STREQ(first_difference(live_, silent), "records")
      << "schedule streams always compare";
}

TEST_F(RunDigestTest, LoopsFoldInOrder) {
  LoopStreams a;
  a.records = {records_};
  LoopStreams b;
  b.records = {std::span<const RequestRecord>(records_).first(3)};
  EXPECT_EQ(first_difference(digest({a, b}), digest({a, b})), nullptr);
  EXPECT_STREQ(first_difference(digest({a, b}), digest({b, a})), "records");
  EXPECT_EQ(first_difference(digest({a}), digest(a)), nullptr);
}

}  // namespace
}  // namespace vf::serve
