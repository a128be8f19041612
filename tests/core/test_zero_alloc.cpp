// The zero-allocation steady-state contract: once warm, a training step
// performs ZERO tensor heap allocations — every activation, gradient
// temporary and micro-batch buffer lives in its host lane and every
// gradient sum in its VN's slot, reused across steps. Asserted through
// both counters: the engine's Workspace audit and the global tensor
// allocation counter (the stronger claim — nothing anywhere in the step
// touches the heap). Every case runs the simd mode, the tier that serves
// by default.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

struct ConfigGuard {
  KernelMode mode = TensorConfig::kernel_mode();
  ~ConfigGuard() { TensorConfig::set_kernel_mode(mode); }
};

/// qnli-sim exercises the full layer zoo on the hot path: Dense, BatchNorm
/// (per-VN stateful slots), ReLU, Dropout (per-step masks), Adam.
VirtualFlowEngine make_engine(std::int64_t vns, std::int64_t devices,
                              std::int64_t workers, const ProxyTask& task,
                              const TrainRecipe& recipe) {
  Sequential model = make_proxy_model("qnli-sim", 42);
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, recipe.global_batch), cfg);
}

class ZeroAllocSteadyState : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ZeroAllocSteadyState, WarmTrainStepNeverTouchesTheHeap) {
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kSimd);

  const std::int64_t workers = GetParam();
  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  VirtualFlowEngine eng = make_engine(8, 2, workers, task, recipe);

  // Warm-up: slot creation, optimizer-slot laziness, BN state init, and
  // (via enough steps) at least one epoch-permutation refresh.
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t tensor0 = tensor_alloc_count();
  const std::int64_t ws0 = eng.workspace_allocs();
  for (int i = 0; i < 5; ++i) eng.train_step();
  EXPECT_EQ(eng.workspace_allocs() - ws0, 0)
      << "workspace slots grew after warm-up";
  EXPECT_EQ(tensor_alloc_count() - tensor0, 0)
      << "a steady-state train step allocated tensor heap memory";
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, ZeroAllocSteadyState,
                         ::testing::Values<std::int64_t>(0, 2),
                         [](const ::testing::TestParamInfo<std::int64_t>& info) {
                           return info.param == 0
                                      ? std::string("serial")
                                      : "pool" + std::to_string(info.param) + "w";
                         });

TEST(ZeroAllocSteadyState, ResizeRewarmsThenGoesQuietAgain) {
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kSimd);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  for (const std::int64_t workers : {0, 2}) {
    SCOPED_TRACE(workers == 0 ? "serial" : "2 workers");
    VirtualFlowEngine eng = make_engine(8, 4, workers, task, recipe);
    for (int i = 0; i < 3; ++i) eng.train_step();

    // An elastic resize copies no model and no optimizer (both belong to
    // the engine, one model per host lane, not per device) and keeps the
    // lanes' scratch and the VNs' slots: a shrink and a grow allocate no
    // tensor themselves, and the steps after them go allocation-quiet
    // again.
    for (const std::int64_t devices : {2, 4}) {
      const std::int64_t resize0 = tensor_alloc_count();
      eng.resize(make_devices(DeviceType::kV100, devices));
      EXPECT_EQ(tensor_alloc_count() - resize0, 0)
          << "the resize to " << devices << " devices allocated tensors";
      for (int i = 0; i < 3; ++i) eng.train_step();

      const std::int64_t tensor0 = tensor_alloc_count();
      for (int i = 0; i < 4; ++i) eng.train_step();
      EXPECT_EQ(tensor_alloc_count() - tensor0, 0)
          << "steady state must return on " << devices << " devices";
    }
  }
}

/// True when infer() rejects a one-row slice on virtual node `vn`.
bool rejects_vn(VirtualFlowEngine& eng, const Dataset& rows, std::int32_t vn) {
  std::vector<InferSlice> slice(1);
  slice[0].vn = vn;
  std::vector<std::int64_t> labels;
  rows.gather({0}, slice[0].features, labels);
  try {
    eng.infer(slice);
  } catch (const VfError&) {
    return true;
  }
  return false;
}

TEST(ZeroAllocSteadyState, GrowShrinkGrowCycleEvictsStaleVnSlotsAndRewarms) {
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kSimd);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  const std::int64_t gb = recipe.global_batch;
  VirtualFlowEngine eng = make_engine(8, 2, 0, task, recipe);
  for (int i = 0; i < 3; ++i) eng.train_step();
  ASSERT_FALSE(rejects_vn(eng, *task.val, 7));

  // Shrink the VN count (heterogeneous reconfigure, same global batch):
  // the departed VNs' slots go with the mapping — infer rejects them —
  // and the lane scratch re-warms to the larger per-VN batch.
  eng.reconfigure(make_devices(DeviceType::kV100, 2),
                  VnMapping::even(4, 2, gb));
  EXPECT_TRUE(rejects_vn(eng, *task.val, 4))
      << "reconfigure must evict slots of VNs outside the new mapping";
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t shrunk0 = tensor_alloc_count();
  const std::int64_t shrunk_ws0 = eng.workspace_allocs();
  for (int i = 0; i < 4; ++i) eng.train_step();
  EXPECT_EQ(tensor_alloc_count() - shrunk0, 0)
      << "steady state must return after the shrink re-warm";
  EXPECT_EQ(eng.workspace_allocs() - shrunk_ws0, 0);

  // Growing back re-creates the evicted VNs' slots (a re-warm may
  // allocate), then the step goes allocation-quiet again.
  eng.reconfigure(make_devices(DeviceType::kV100, 2),
                  VnMapping::even(8, 2, gb));
  EXPECT_FALSE(rejects_vn(eng, *task.val, 7));
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t regrown0 = tensor_alloc_count();
  const std::int64_t regrown_ws0 = eng.workspace_allocs();
  for (int i = 0; i < 4; ++i) eng.train_step();
  EXPECT_EQ(tensor_alloc_count() - regrown0, 0)
      << "steady state must return after the grow re-warm";
  EXPECT_EQ(eng.workspace_allocs() - regrown_ws0, 0);
}

TEST(ZeroAllocSteadyState, LaneScratchDoesNotGrowWithTheVnCount) {
  // A lane runs its VNs one at a time, so its transient buffers serve
  // them all: warmed up, engines time-slicing one device into 4, 8 or 32
  // VNs hold the same workspace, one set of slots per lane.
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kSimd);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  std::vector<std::int64_t> warm_allocs;
  for (const std::int64_t vns : {4, 8, 32}) {
    SCOPED_TRACE(std::to_string(vns) + " VNs");
    VirtualFlowEngine eng = make_engine(vns, 1, 0, task, recipe);
    for (int i = 0; i < 3; ++i) eng.train_step();
    warm_allocs.push_back(eng.workspace_allocs());

    const std::int64_t tensor0 = tensor_alloc_count();
    for (int i = 0; i < 3; ++i) eng.train_step();
    EXPECT_EQ(eng.workspace_allocs(), warm_allocs.back());
    EXPECT_EQ(tensor_alloc_count() - tensor0, 0);
  }
  EXPECT_EQ(warm_allocs[1], warm_allocs[0]) << "8 VNs vs 4";
  EXPECT_EQ(warm_allocs[2], warm_allocs[0]) << "32 VNs vs 4";
}

TEST(ZeroAllocSteadyState, PooledLanesStayQuietThroughAResizeCycle) {
  // Two workers on four devices: each lane's scratch is warm after the
  // first steps, and a 4 -> 2 -> 4 resize only changes which devices a
  // lane runs, never the VNs' batch shapes, so the resizes and every step
  // after them allocate nothing.
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kSimd);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  VirtualFlowEngine eng = make_engine(8, 4, 2, task, recipe);
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t tensor0 = tensor_alloc_count();
  const std::int64_t ws0 = eng.workspace_allocs();
  for (const std::int64_t devices : {2, 4}) {
    SCOPED_TRACE(std::to_string(devices) + " devices");
    eng.resize(make_devices(DeviceType::kV100, devices));
    for (int i = 0; i < 3; ++i) eng.train_step();
    EXPECT_EQ(tensor_alloc_count() - tensor0, 0);
    EXPECT_EQ(eng.workspace_allocs() - ws0, 0);
  }
}

}  // namespace
}  // namespace vf
