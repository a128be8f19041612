// VirtualFlowEngine::infer — the forward-only serving entry point.
//
// Contracts under test: predictions are a pure function of (parameters,
// averaged VN state, inputs) — invariant to the VN -> device mapping, to
// how examples are sliced across VNs, and to the host worker count; the
// simulated compute cost reflects the mapping (more devices -> faster
// batch) without ever feeding back into the math.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "data/batch.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
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

VirtualFlowEngine make_engine(Rig& rig, std::int64_t vns, std::int64_t devices,
                              std::int64_t workers) {
  EngineConfig cfg;
  cfg.seed = kSeed;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  return VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                           *rig.task.train, model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, rig.recipe.global_batch), cfg);
}

/// First `n` validation examples sliced evenly over `n_slices` VNs.
std::vector<InferSlice> make_slices(const Dataset& val, std::int64_t n,
                                    std::int64_t n_slices) {
  std::vector<InferSlice> slices;
  const std::int64_t per = n / n_slices;
  for (std::int64_t s = 0; s < n_slices; ++s) {
    std::vector<std::int64_t> idx;
    for (std::int64_t k = s * per; k < (s + 1) * per; ++k) idx.push_back(k);
    MicroBatch mb;
    gather_micro_batch_into(val, idx, mb);
    InferSlice slice;
    slice.vn = static_cast<std::int32_t>(s);
    slice.features = std::move(mb.features);
    slices.push_back(std::move(slice));
  }
  return slices;
}

TEST(Infer, MappingInvariantPredictions) {
  Rig rig = make_rig();
  // Train a few steps so parameters and batch-norm state are non-trivial.
  VirtualFlowEngine e1 = make_engine(rig, 8, 1, 0);
  VirtualFlowEngine e4 = make_engine(rig, 8, 4, 0);
  for (int i = 0; i < 3; ++i) {
    e1.train_step();
    e4.train_step();
  }

  const auto slices = make_slices(*rig.task.val, 64, 8);
  const InferStats r1 = e1.infer(slices);
  const InferStats r4 = e4.infer(slices);
  ASSERT_EQ(r1.predictions.size(), 64u);
  EXPECT_EQ(r1.predictions, r4.predictions)
      << "predictions must not depend on the VN -> device mapping";
  EXPECT_LT(r4.compute_s, r1.compute_s)
      << "4 devices drain the same slices faster than 1";
  EXPECT_EQ(r1.comm_s, 0.0) << "single device: no logits return hop";
  EXPECT_GT(r4.comm_s, 0.0);
}

TEST(Infer, SliceLayoutInvariantPredictions) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 2, 0);
  for (int i = 0; i < 3; ++i) engine.train_step();

  const InferStats wide = engine.infer(make_slices(*rig.task.val, 64, 8));
  const InferStats narrow = engine.infer(make_slices(*rig.task.val, 64, 2));
  EXPECT_EQ(wide.predictions, narrow.predictions)
      << "how examples are split across VNs must not change any prediction";
}

TEST(Infer, WorkerCountInvariant) {
  Rig rig = make_rig();
  VirtualFlowEngine serial = make_engine(rig, 8, 4, 0);
  VirtualFlowEngine pooled = make_engine(rig, 8, 4, 8);
  const auto slices = make_slices(*rig.task.val, 64, 8);
  const InferStats a = serial.infer(slices);
  const InferStats b = pooled.infer(slices);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.comm_s, b.comm_s);
}

TEST(Infer, SurvivesResize) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 4, 0);
  const auto slices = make_slices(*rig.task.val, 64, 8);
  const InferStats before = engine.infer(slices);
  engine.resize(make_devices(DeviceType::kV100, 1));
  const InferStats after = engine.infer(slices);
  EXPECT_EQ(before.predictions, after.predictions)
      << "elastic resize must not change inference results";
  EXPECT_GT(after.compute_s, before.compute_s);
}

TEST(Infer, ValidatesSlices) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 4, 2, 0);
  EXPECT_THROW(engine.infer({}), VfError);

  auto dup = make_slices(*rig.task.val, 16, 2);
  dup[1].vn = dup[0].vn;
  EXPECT_THROW(engine.infer(dup), VfError);

  auto bad_vn = make_slices(*rig.task.val, 16, 2);
  bad_vn[0].vn = 99;
  EXPECT_THROW(engine.infer(bad_vn), VfError);

  InferSlice empty;
  empty.vn = 0;
  EXPECT_THROW(engine.infer({empty}), VfError);
}

TEST(Infer, SliceCostsPriceEachSliceIndependently) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 4, 0);
  const auto slices = make_slices(*rig.task.val, 64, 8);
  const InferStats stats = engine.infer(slices);

  ASSERT_EQ(stats.slice_costs.size(), slices.size());
  const DeviceSpec& spec = engine.devices()[0].spec();
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const SliceCost& c = stats.slice_costs[i];
    EXPECT_EQ(c.vn, slices[i].vn) << "aligned with input slice order";
    EXPECT_EQ(c.device, engine.mapping().device_of(slices[i].vn));
    EXPECT_DOUBLE_EQ(
        c.pass_s, infer_pass_time_s(spec, engine.profile(), slices[i].features.rows()));
    EXPECT_DOUBLE_EQ(c.overhead_s, spec.step_fixed_s);
    EXPECT_DOUBLE_EQ(c.cold_total_s(),
                     slice_infer_time_s(spec, engine.profile(),
                                        slices[i].features.rows()));
    EXPECT_GT(c.comm_s, 0.0) << "multi-device: logits return over the link";
    EXPECT_LT(c.comm_s, stats.comm_s + 1e-12)
        << "one slice's return never exceeds the device-level max";
  }

  // Single device: no frontend hop, per-slice or batch-level.
  VirtualFlowEngine one = make_engine(rig, 8, 1, 0);
  const InferStats solo = one.infer(make_slices(*rig.task.val, 64, 8));
  for (const SliceCost& c : solo.slice_costs) {
    EXPECT_EQ(c.comm_s, 0.0);
    EXPECT_EQ(c.device, 0);
  }
}

TEST(Infer, BatchDispatchAmortizesWhatSlicesPaySolo) {
  // The device barrier charges the framework overhead once for the slices
  // co-scheduled on one device; the same slices dispatched one by one
  // (cold) pay it per slice. The gap is exactly (k - 1) x step_fixed.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 4, 1, 0);
  const DeviceSpec& spec = engine.devices()[0].spec();
  const InferStats batch = engine.infer(make_slices(*rig.task.val, 32, 4));
  ASSERT_EQ(batch.slice_costs.size(), 4u);
  double passes = 0.0;
  double solo = 0.0;
  for (const SliceCost& c : batch.slice_costs) {
    passes += c.pass_s;
    solo += c.cold_total_s();
  }
  EXPECT_DOUBLE_EQ(batch.compute_s, passes + spec.step_fixed_s);
  EXPECT_LT(batch.compute_s, solo);
  EXPECT_NEAR(solo - batch.compute_s, 3.0 * spec.step_fixed_s, 1e-12);

  // A single slice is the equality case.
  const InferStats one = engine.infer(make_slices(*rig.task.val, 8, 1));
  ASSERT_EQ(one.slice_costs.size(), 1u);
  EXPECT_DOUBLE_EQ(one.compute_s, one.slice_costs[0].cold_total_s());
}

TEST(Infer, ReusesEngineScratchAcrossCalls) {
  // The serving loop issues thousands of infer dispatches; after the first
  // call warms the per-VN scratch (predictions, grouping lists, the cached
  // averaged eval state), repeat calls with the same shapes must perform
  // zero tensor heap allocations inside the engine. The caller-visible
  // result vectors are excluded — only Tensor allocations are counted.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 2, 0);
  for (int i = 0; i < 2; ++i) engine.train_step();
  const auto slices = make_slices(*rig.task.val, 64, 8);
  engine.infer(slices);  // warm-up: slots, cached eval state

  const std::int64_t t0 = tensor_alloc_count();
  for (int i = 0; i < 5; ++i) engine.infer(slices);
  EXPECT_EQ(tensor_alloc_count() - t0, 0)
      << "steady-state infer must not allocate tensors";

  // A training step invalidates the cached averaged eval state; the next
  // infer recomputes it (allocates once), then goes quiet again.
  engine.train_step();
  engine.infer(slices);
  const std::int64_t t1 = tensor_alloc_count();
  engine.infer(slices);
  EXPECT_EQ(tensor_alloc_count() - t1, 0);
}

TEST(Infer, ScratchShrinksWithTheMapping) {
  // Reconfiguring to fewer VNs must evict the departed VNs' infer scratch
  // and workspace slots alongside the training scratch.
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 2, 0);
  engine.infer(make_slices(*rig.task.val, 64, 8));
  ASSERT_EQ(engine.workspace_vns(), 8);

  engine.reconfigure(make_devices(DeviceType::kV100, 2),
                     VnMapping::even(4, 2, rig.recipe.global_batch));
  EXPECT_EQ(engine.workspace_vns(), 4);
  // Slices naming departed VNs are rejected against the live mapping.
  auto stale = make_slices(*rig.task.val, 16, 8);
  EXPECT_THROW(engine.infer(stale), VfError);
  const InferStats ok = engine.infer(make_slices(*rig.task.val, 16, 4));
  EXPECT_EQ(ok.predictions.size(), 16u);
}

TEST(Infer, DoesNotAdvanceClockOrTraining) {
  Rig rig = make_rig();
  VirtualFlowEngine engine = make_engine(rig, 8, 2, 0);
  engine.train_step();
  const double t = engine.sim_time_s();
  const std::int64_t step = engine.step();
  const Tensor params = engine.parameters();
  engine.infer(make_slices(*rig.task.val, 32, 4));
  EXPECT_EQ(engine.sim_time_s(), t) << "serving owns its own timeline";
  EXPECT_EQ(engine.step(), step);
  EXPECT_TRUE(engine.parameters().equals(params)) << "forward-only: no updates";
}

}  // namespace
}  // namespace vf
