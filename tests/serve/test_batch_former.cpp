// BatchFormer: the size-or-timeout policy and the purity property.
//
// The headline property: the formed batch sequence is a pure function of
// (arrival trace, policy) — replaying the same trace through full servers
// whose engines run 0, 2, and 8 pool workers yields identical batch
// boundaries, start times, and memberships. Host scheduling must not be
// able to move a single request between batches.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "serve/arrival.h"
#include "serve/batch_former.h"
#include "serve/digest.h"
#include "serve/server.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf::serve {
namespace {

InferRequest req(std::int64_t id, double t) {
  InferRequest r;
  r.id = id;
  r.arrival_s = t;
  r.example_index = id % 16;
  return r;
}

/// (start stamp, size) of every batch a batch-boundary Server forms from
/// `trace` on one device, elasticity off: the policy as served.
std::vector<std::pair<double, std::int64_t>> formed_batches(
    BatchPolicy policy, const std::vector<InferRequest>& trace) {
  const std::uint64_t seed = 7;
  ProxyTask task = make_task("mrpc-sim", seed);
  Sequential model = make_proxy_model("mrpc-sim", seed);
  TrainRecipe recipe = make_recipe("mrpc-sim");
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.enforce_memory = false;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 1),
                           VnMapping::even(4, 1, recipe.global_batch), cfg);
  ServerConfig scfg;
  scfg.batch = policy;
  scfg.continuous = false;
  scfg.elastic.enabled = false;
  Server server(engine, *task.val, scfg);
  server.replay(trace);
  std::vector<std::pair<double, std::int64_t>> out;
  for (const BatchEvent& b : server.batches()) out.emplace_back(b.start_s, b.size);
  return out;
}

TEST(BatchFormer, SizeTriggerFiresAtMaxBatch) {
  // Four simultaneous arrivals against max_batch 3: a batch of exactly 3
  // forms at once (a batch never exceeds max_batch); the fourth, below
  // max_batch, waits out its timeout.
  const auto batches = formed_batches({/*max_batch=*/3, /*max_wait_s=*/0.5},
                                      {req(0, 1.0), req(1, 1.0), req(2, 1.0), req(3, 1.0)});
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0], std::make_pair(1.0, std::int64_t{3}));
  EXPECT_EQ(batches[1], std::make_pair(1.5, std::int64_t{1}));
}

TEST(BatchFormer, TimeoutTriggerFlushesPartialBatch) {
  BatchFormer former({/*max_batch=*/8, /*max_wait_s=*/0.5});
  RequestQueue q(16);
  q.push(req(0, 1.0));
  q.push(req(1, 1.2));
  EXPECT_DOUBLE_EQ(former.timeout_deadline_s(q), 1.5);
  // Served: nothing forms before the oldest request times out; then the
  // partial batch flushes everything queued.
  const auto batches = formed_batches(former.policy(), {req(0, 1.0), req(1, 1.2)});
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], std::make_pair(1.5, std::int64_t{2}));
}

TEST(BatchFormer, PackAssignsFifoPrefixAscendingVnOrder) {
  BatchFormer former({32, 0.1});
  // 4 VNs x 8 examples each; a 21-request batch fills VN0, VN1, then 5 on VN2.
  const VnMapping m = VnMapping::even(4, 2, 32);
  const auto packs = former.pack(21, m);
  ASSERT_EQ(packs.size(), 3u);
  EXPECT_EQ(packs[0].vn, 0);
  EXPECT_EQ(packs[1].vn, 1);
  EXPECT_EQ(packs[2].vn, 2);
  EXPECT_EQ(packs[0].positions, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(packs[1].positions, (std::vector<std::int64_t>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(packs[2].positions, (std::vector<std::int64_t>{16, 17, 18, 19, 20}));
}

TEST(BatchFormer, PackRejectsOverCapacityAndEmpty) {
  BatchFormer former({64, 0.1});
  const VnMapping m = VnMapping::even(2, 1, 16);
  EXPECT_THROW(former.pack(17, m), VfError);
  EXPECT_THROW(former.pack(0, m), VfError);
  EXPECT_THROW(BatchFormer({0, 0.1}), VfError);
  EXPECT_THROW(BatchFormer({4, -1.0}), VfError);
}

// ---- Purity property: batches are a function of the trace, not the host.

/// The batch log and every other output stream of one replay.
RunDigest run_replay(std::int64_t workers) {
  const std::uint64_t seed = 7;
  ProxyTask task = make_task("mrpc-sim", seed);
  Sequential model = make_proxy_model("mrpc-sim", seed);
  TrainRecipe recipe = make_recipe("mrpc-sim");
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 2),
                           VnMapping::even(4, 2, recipe.global_batch), cfg);

  ServerConfig scfg;
  scfg.queue_capacity = 64;
  scfg.batch = {/*max_batch=*/16, /*max_wait_s=*/0.02};
  scfg.deadline_s = 0.5;
  scfg.elastic.enabled = true;
  scfg.elastic.high_watermark = 24;
  scfg.elastic.low_watermark = 2;
  scfg.elastic.max_devices = 4;
  scfg.elastic.cooldown_batches = 2;

  Server server(engine, *task.val, scfg);
  server.replay(poisson_trace(seed, /*rate_rps=*/400.0, /*count=*/300,
                              task.val->size()));

  EXPECT_FALSE(server.batches().empty());
  return digest(server);
}

TEST(BatchFormer, BatchSequencePureFunctionOfTraceAcrossWorkerCounts) {
  const RunDigest serial = run_replay(0);
  for (const std::int64_t workers : {2LL, 8LL})
    EXPECT_EQ(first_difference(serial, run_replay(workers)), nullptr) << workers << " workers";
}

}  // namespace
}  // namespace vf::serve
