// The zero-allocation steady-state contract: once warm, a training step
// performs ZERO tensor heap allocations — every activation, gradient
// temporary, micro-batch buffer, and reduction scratch lives in a per-VN
// slot reused across steps. Asserted through both counters: the engine's
// Workspace audit and the global tensor allocation counter (the stronger
// claim — nothing anywhere in the step touches the heap).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
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
  TensorConfig::set_kernel_mode(KernelMode::kBlocked);

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
  TensorConfig::set_kernel_mode(KernelMode::kBlocked);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  for (const std::int64_t workers : {0, 2}) {
    SCOPED_TRACE(workers == 0 ? "serial" : "2 workers");
    VirtualFlowEngine eng = make_engine(8, 4, workers, task, recipe);
    for (int i = 0; i < 3; ++i) eng.train_step();

    // An elastic resize copies no model and no optimizer (both belong to
    // the engine, one model per host lane, not per device) and the
    // workspace slots survive by VN id: a shrink and a grow allocate no
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

TEST(ZeroAllocSteadyState, GrowShrinkGrowCycleEvictsStaleVnSlotsAndRewarms) {
  ConfigGuard guard;
  TensorConfig::set_kernel_mode(KernelMode::kBlocked);

  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  const std::int64_t gb = recipe.global_batch;
  VirtualFlowEngine eng = make_engine(8, 2, 0, task, recipe);
  for (int i = 0; i < 3; ++i) eng.train_step();
  ASSERT_EQ(eng.workspace_vns(), 8);

  // Shrink the VN count (heterogeneous reconfigure, same global batch):
  // the departed VNs' workspace slots and infer scratch must be evicted
  // with the mapping — before the fix they outlived it, pinning their
  // buffers for the engine's lifetime.
  eng.reconfigure(make_devices(DeviceType::kV100, 2),
                  VnMapping::even(4, 2, gb));
  EXPECT_EQ(eng.workspace_vns(), 4)
      << "reconfigure must evict slots of VNs outside the new mapping";
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t shrunk0 = tensor_alloc_count();
  for (int i = 0; i < 4; ++i) eng.train_step();
  EXPECT_EQ(tensor_alloc_count() - shrunk0, 0)
      << "steady state must return after the shrink re-warm";

  // Growing back re-creates the evicted VNs' slots (a re-warm may
  // allocate), then the step goes allocation-quiet again.
  eng.reconfigure(make_devices(DeviceType::kV100, 2),
                  VnMapping::even(8, 2, gb));
  EXPECT_EQ(eng.workspace_vns(), 8);
  for (int i = 0; i < 3; ++i) eng.train_step();

  const std::int64_t regrown0 = tensor_alloc_count();
  for (int i = 0; i < 4; ++i) eng.train_step();
  EXPECT_EQ(tensor_alloc_count() - regrown0, 0)
      << "steady state must return after the grow re-warm";
}

}  // namespace
}  // namespace vf
