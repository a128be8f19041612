// Ablation of the strict VN-ordered reduction (docs/architecture.md,
// "Invariant 1: bit-exact mapping invariance"): both modes compute the
// same expectation, but only the strict order is bit-exact across
// mappings.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

Tensor run(std::int64_t devices, ReductionMode mode, std::int64_t steps = 15) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.reduction = mode;
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"),
                        make_devices(DeviceType::kV100, devices),
                        VnMapping::even(8, devices, recipe.global_batch), cfg);
  for (std::int64_t i = 0; i < steps; ++i) eng.train_step();
  return eng.parameters();
}

TEST(ReductionModes, HierarchicalMatchesStrictOnSingleDevice) {
  // One device hosting all VNs: both modes fold the same buffers in the
  // same order, so they agree exactly.
  EXPECT_TRUE(run(1, ReductionMode::kStrictVnOrder)
                  .equals(run(1, ReductionMode::kHierarchical)));
}

TEST(ReductionModes, StrictIsBitExactAcrossMappings) {
  const Tensor ref = run(1, ReductionMode::kStrictVnOrder);
  EXPECT_TRUE(ref.equals(run(2, ReductionMode::kStrictVnOrder)));
  EXPECT_TRUE(ref.equals(run(8, ReductionMode::kStrictVnOrder)));
}

TEST(ReductionModes, HierarchicalStaysNumericallyClose) {
  // Hierarchical reduction is the same mathematical mean; across mappings
  // it may drift by float non-associativity but must stay tiny over a few
  // steps (this bounds the error the strict order eliminates).
  const Tensor a = run(1, ReductionMode::kHierarchical);
  const Tensor b = run(8, ReductionMode::kHierarchical);
  EXPECT_LT(a.max_abs_diff(b), 5e-3F);
}

// ---- Regressions: devices hosting zero virtual nodes (legal skewed
// mappings) must contribute NOTHING to the hierarchical reduction. Before
// the fix, an empty device's entry in the per-device partial-sum scratch
// was folded in anyway: default-constructed on a fresh engine (shape
// mismatch), or — worse — stale from the previous mapping after a skewed
// reconfigure (silently wrong gradients).

/// Engine on an explicit mapping; all VNs share the reference batch size.
/// `task` must outlive the engine (the batcher references its dataset).
VirtualFlowEngine make_mapped(const ProxyTask& task, ReductionMode mode,
                              const std::vector<std::vector<std::int64_t>>& per_device,
                              std::int64_t devices) {
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.reduction = mode;
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::uneven(per_device), cfg);
}

TEST(ReductionModes, HierarchicalSkipsZeroVnDevice) {
  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  const std::int64_t b = recipe.global_batch / 8;
  const std::vector<std::int64_t> all(8, b);

  // Device 0 hosts zero VNs; device 1 folds all 8 VNs in ascending VN-id
  // order — exactly the strict reduction's chain, so the two runs must be
  // bit-identical. Pre-fix this threw (the empty device's never-written
  // partial sum was folded into the gradient).
  VirtualFlowEngine skewed =
      make_mapped(task, ReductionMode::kHierarchical, {{}, all}, 2);
  VirtualFlowEngine ref = make_mapped(task, ReductionMode::kStrictVnOrder, {all}, 1);
  for (int i = 0; i < 10; ++i) {
    skewed.train_step();
    ref.train_step();
  }
  EXPECT_TRUE(skewed.parameters().equals(ref.parameters()));
}

TEST(ReductionModes, HierarchicalIgnoresStaleBufferAfterSkewedReconfigure) {
  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  const std::int64_t b = recipe.global_batch / 8;
  const std::vector<std::int64_t> all(8, b);

  // Phase 1 (even 2-device mapping) populates BOTH devices' partial-sum
  // buffers. The skewed reconfigure then empties device 0 — whose buffer
  // still holds phase-1 gradients. Pre-fix those stale sums kept flowing
  // into every post-reconfigure step (silently wrong math); post-fix the
  // empty device is skipped and the run matches a reference that folded
  // all VNs on one device from the start.
  VirtualFlowEngine skewed =
      make_mapped(task, ReductionMode::kHierarchical, {{b, b, b, b}, {b, b, b, b}}, 2);
  VirtualFlowEngine ref =
      make_mapped(task, ReductionMode::kHierarchical, {{b, b, b, b}, {b, b, b, b}}, 2);
  for (int i = 0; i < 3; ++i) {
    skewed.train_step();
    ref.train_step();
  }
  skewed.reconfigure(make_devices(DeviceType::kV100, 2), VnMapping::uneven({{}, all}));
  ref.reconfigure(make_devices(DeviceType::kV100, 2), VnMapping::uneven({all, {}}));
  for (int i = 0; i < 10; ++i) {
    skewed.train_step();
    ref.train_step();
  }
  // Both runs now fold all 8 VNs in one ascending chain (on device 1 and
  // device 0 respectively); placement of the chain cannot matter.
  EXPECT_TRUE(skewed.parameters().equals(ref.parameters()));
}

TEST(ReductionModes, StrictHandlesZeroVnDevice) {
  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  const std::int64_t b = recipe.global_batch / 8;
  const std::vector<std::int64_t> all(8, b);
  VirtualFlowEngine skewed =
      make_mapped(task, ReductionMode::kStrictVnOrder, {{}, all}, 2);
  VirtualFlowEngine ref = make_mapped(task, ReductionMode::kStrictVnOrder, {all}, 1);
  for (int i = 0; i < 5; ++i) {
    skewed.train_step();
    ref.train_step();
  }
  EXPECT_TRUE(skewed.parameters().equals(ref.parameters()))
      << "strict VN-order reduction is mapping-invariant, idle devices included";
}

TEST(ReductionModes, BothModesLearn) {
  // Sanity: the ablation mode is a real training path, not a stub.
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.reduction = ReductionMode::kHierarchical;
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"), make_devices(DeviceType::kV100, 4),
                        VnMapping::even(8, 4, recipe.global_batch), cfg);
  const double before = eng.evaluate(*task.val, 1024);
  for (int i = 0; i < 100; ++i) eng.train_step();
  EXPECT_GT(eng.evaluate(*task.val, 1024), before + 0.2);
}

}  // namespace
}  // namespace vf
