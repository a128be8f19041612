// The library's core contract, tested as a property: the virtual-node ->
// device mapping has NO effect on training semantics. Trajectories are
// bit-identical across device counts, device types, and (for models whose
// gradients are linear in example count, i.e. no per-VN batch statistics)
// even across uneven heterogeneous splits.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

EngineConfig test_cfg() {
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  return cfg;
}

/// Trains `steps` steps of qnli-sim (BN + dropout + Adam: the full
/// stateful stack) under the given mapping; returns final parameters.
Tensor run_mapping(std::int64_t vns, std::int64_t num_devices, DeviceType type,
                   std::int64_t steps = 12) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"), make_devices(type, num_devices),
                        VnMapping::even(vns, num_devices, recipe.global_batch),
                        test_cfg());
  for (std::int64_t i = 0; i < steps; ++i) eng.train_step();
  return eng.parameters();
}

// ---- Property: with total VNs fixed at 8 (batch 64), every device count
// dividing 8, on every GPU type, yields bit-identical parameters. This is
// Table 1/2's reproducibility claim strengthened to exact equality.
struct MappingCase {
  std::int64_t num_devices;
  DeviceType type;
};

class MappingInvariance : public ::testing::TestWithParam<MappingCase> {};

TEST_P(MappingInvariance, BitExactAcrossMappings) {
  static const Tensor reference = run_mapping(8, 1, DeviceType::kV100);
  const MappingCase c = GetParam();
  const Tensor params = run_mapping(8, c.num_devices, c.type);
  EXPECT_TRUE(reference.equals(params))
      << "max diff " << reference.max_abs_diff(params) << " on "
      << c.num_devices << "x" << device_type_name(c.type);
}

INSTANTIATE_TEST_SUITE_P(
    DeviceCountsAndTypes, MappingInvariance,
    ::testing::Values(MappingCase{1, DeviceType::kV100},
                      MappingCase{2, DeviceType::kV100},
                      MappingCase{4, DeviceType::kV100},
                      MappingCase{8, DeviceType::kV100},
                      MappingCase{1, DeviceType::kRtx2080Ti},
                      MappingCase{2, DeviceType::kP100},
                      MappingCase{4, DeviceType::kK80},
                      MappingCase{8, DeviceType::kRtx2080Ti}),
    [](const ::testing::TestParamInfo<MappingCase>& info) {
      return std::to_string(info.param.num_devices) + "x" +
             device_type_name(info.param.type);
    });

TEST(MappingInvariance, ContiguousVsDefaultPlacementIdentical) {
  // Same VN count, different placement shape: 8 VNs as 2 devices x 4 VNs
  // vs an uneven placement of the same equal-sized VNs (5 + 3).
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");

  VirtualFlowEngine even(model, *r1.optimizer, *r1.schedule, *task.train,
                         model_profile("bert-base"),
                         make_devices(DeviceType::kV100, 2),
                         VnMapping::even(8, 2, 64), test_cfg());
  VirtualFlowEngine skew(model, *r2.optimizer, *r2.schedule, *task.train,
                         model_profile("bert-base"),
                         make_devices(DeviceType::kV100, 2),
                         VnMapping::uneven({{8, 8, 8, 8, 8}, {8, 8, 8}}), test_cfg());
  for (int i = 0; i < 10; ++i) {
    even.train_step();
    skew.train_step();
  }
  EXPECT_TRUE(even.parameters().equals(skew.parameters()));
}

TEST(MappingInvariance, ValidationAccuracyIdenticalAcrossMappings) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");
  VirtualFlowEngine a(model, *r1.optimizer, *r1.schedule, *task.train,
                      model_profile("bert-base"), make_devices(DeviceType::kV100, 1),
                      VnMapping::even(8, 1, 64), test_cfg());
  VirtualFlowEngine b(model, *r2.optimizer, *r2.schedule, *task.train,
                      model_profile("bert-base"), make_devices(DeviceType::kV100, 8),
                      VnMapping::even(8, 8, 64), test_cfg());
  for (int i = 0; i < 20; ++i) {
    a.train_step();
    b.train_step();
  }
  EXPECT_DOUBLE_EQ(a.evaluate(*task.val), b.evaluate(*task.val));
}

TEST(MappingInvariance, BnFreeModelExactUnderUnevenHeterogeneousSplit) {
  // For a model with no per-VN batch statistics, per-VN gradient *sums*
  // reduced in VN-id order make even the heterogeneous uneven split (§5.2)
  // bit-exact against the single-device run.
  ProxyTask task = make_task("imagenet-sim", 42);
  CounterRng rng(42, 0x30DE1);
  Sequential model;
  model.add(std::make_unique<Dense>(32, 32, rng));
  model.add(std::make_unique<Relu>());
  model.add(std::make_unique<Dense>(32, 16, rng));

  Sgd opt(0.9F, 1e-4F);
  ConstantLr lr(0.5F);
  const std::int64_t B = 64;

  VirtualFlowEngine homog(model, opt, lr, *task.train, model_profile("resnet50"),
                          make_devices(DeviceType::kV100, 1),
                          VnMapping::even(4, 1, B), test_cfg());
  // 48:16 split over V100 + P100 — different VN sizes (48 vs 16), but the
  // total VN count is 4 and slices cover the same 64 examples.
  auto hetero_devices =
      make_heterogeneous({{DeviceType::kV100, 1}, {DeviceType::kP100, 1}});
  VirtualFlowEngine hetero(model, opt, lr, *task.train, model_profile("resnet50"),
                           hetero_devices,
                           VnMapping::uneven({{16, 16}, {16, 16}}), test_cfg());
  for (int i = 0; i < 15; ++i) {
    homog.train_step();
    hetero.train_step();
  }
  EXPECT_TRUE(homog.parameters().equals(hetero.parameters()));
}

TEST(MappingInvariance, WeightedSyncEquivalentToFlatMeanUnevenSizes) {
  // Uneven VN sizes with a BN-free model: the weighted average over
  // unequal shares must equal the flat mean over all examples — compare
  // a 48+16 split against a 32+32 split (same batch, different shares).
  ProxyTask task = make_task("imagenet-sim", 42);
  CounterRng rng(42, 0x30DE1);
  Sequential model;
  model.add(std::make_unique<Dense>(32, 24, rng));
  model.add(std::make_unique<Relu>());
  model.add(std::make_unique<Dense>(24, 16, rng));
  Sgd opt;
  ConstantLr lr(0.3F);

  VirtualFlowEngine a(model, opt, lr, *task.train, model_profile("resnet50"),
                      make_devices(DeviceType::kV100, 2),
                      VnMapping::uneven({{48}, {16}}), test_cfg());
  VirtualFlowEngine b(model, opt, lr, *task.train, model_profile("resnet50"),
                      make_devices(DeviceType::kV100, 2),
                      VnMapping::uneven({{32}, {32}}), test_cfg());
  for (int i = 0; i < 10; ++i) {
    a.train_step();
    b.train_step();
  }
  // Same examples, same flat mean — but FP summation order differs
  // between a 48-sum and a 32-sum, so require near-equality.
  EXPECT_LT(a.parameters().max_abs_diff(b.parameters()), 2e-4F);
}

TEST(MappingInvariance, SeedChangesTrajectory) {
  // Sanity check that the equality above is not vacuous: a different seed
  // gives different parameters.
  const Tensor base = run_mapping(8, 1, DeviceType::kV100);
  ProxyTask task = make_task("qnli-sim", 43);
  Sequential model = make_proxy_model("qnli-sim", 43);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg = test_cfg();
  cfg.seed = 43;
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"), make_devices(DeviceType::kV100, 1),
                        VnMapping::even(8, 1, 64), cfg);
  for (int i = 0; i < 12; ++i) eng.train_step();
  EXPECT_FALSE(base.equals(eng.parameters()));
}

}  // namespace
}  // namespace vf
