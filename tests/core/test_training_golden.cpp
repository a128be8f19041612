// Golden pin of the training trajectory: a short imagenet-sim run (batch
// 8192 as 32 VNs of 256 on one device) and a short cifar10-sim run
// (batch 128 as 8 VNs over 2 devices), reduced to one FNV-1a hash over
// every per-step loss and every final parameter bit. The kernel tiers
// are bit-identical by contract (docs/kernels.md), so the hash must be
// the same under `reference`, `blocked` and `simd`; it is the hash of
// the runs when the pin was taken, so a change means a training bit
// moved in every tier at once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/engine.h"
#include "tensor/kernels.h"
#include "util/fnv1a.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

/// Trains `steps` steps of `task` and folds every step's loss, then the
/// final parameters' bits, into `f`.
void train_into(Fnv1a& f, const std::string& task_name, std::int64_t vns,
                std::int64_t devices, std::int64_t steps) {
  const ProxyTask task = make_task(task_name, 42);
  const Sequential model = make_proxy_model(task_name, 42);
  const TrainRecipe recipe = make_recipe(task_name);
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("resnet50"), make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, recipe.global_batch), cfg);
  for (std::int64_t i = 0; i < steps; ++i) f.add(engine.train_step().loss);
  const Tensor params = engine.parameters();
  f.add(params.size());
  for (const float p : params.data())
    f.add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(p)));
}

std::uint64_t trajectory_hash(KernelMode mode) {
  const KernelMode saved = TensorConfig::kernel_mode();
  TensorConfig::set_kernel_mode(mode);
  Fnv1a f;
  train_into(f, "imagenet-sim", /*vns=*/32, /*devices=*/1, /*steps=*/2);
  train_into(f, "cifar10-sim", /*vns=*/8, /*devices=*/2, /*steps=*/6);
  TensorConfig::set_kernel_mode(saved);
  return f.h;
}

TEST(TrainingGolden, TrajectoryPinHoldsInEveryKernelTier) {
  constexpr std::uint64_t kPin = 0x135a65f4ab97c11bull;
  for (const KernelMode mode :
       {KernelMode::kReference, KernelMode::kBlocked, KernelMode::kSimd})
    EXPECT_EQ(hex(trajectory_hash(mode)), hex(kPin)) << kernel_mode_name(mode);
}

}  // namespace
}  // namespace vf
