// Golden pins of training and evaluation. The trajectory pin reduces a
// short imagenet-sim run (batch 8192 as 32 VNs of 256 on one device) and
// a short cifar10-sim run (batch 128 as 8 VNs over 2 devices) to one
// FNV-1a hash over every per-step loss and every final parameter bit.
// The evaluation pin hashes the accuracies those runs evaluate: cifar10-
// sim's full validation set and its first 1500 and 300 rows (1500
// crosses an evaluation chunk boundary, 300 stays inside one), serial
// and on 8 host workers, before and after a resize to one device, then
// imagenet-sim's full validation set. The kernel tiers are bit-identical
// by contract (docs/kernels.md), so each hash must be the same under
// `reference` and `simd`; each is the hash of the runs when its pin was
// taken, so a change means a bit moved in every tier at once.
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

/// `vns` VNs of `task_name` on `devices` V100s with `threads` host
/// workers, training on `task`.
VirtualFlowEngine make_engine(const std::string& task_name, const ProxyTask& task,
                              std::int64_t vns, std::int64_t devices,
                              std::int64_t threads = 0) {
  const Sequential model = make_proxy_model(task_name, 42);
  const TrainRecipe recipe = make_recipe(task_name);
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.num_threads = threads;
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("resnet50"), make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, recipe.global_batch), cfg);
}

/// Trains `steps` steps of `task_name` and folds every step's loss, then
/// the final parameters' bits, into `f`.
void train_into(Fnv1a& f, const std::string& task_name, std::int64_t vns,
                std::int64_t devices, std::int64_t steps) {
  const ProxyTask task = make_task(task_name, 42);
  VirtualFlowEngine engine = make_engine(task_name, task, vns, devices);
  for (std::int64_t i = 0; i < steps; ++i) f.add(engine.train_step().loss);
  const Tensor params = engine.parameters();
  f.add(params.size());
  for (const float p : params.data())
    f.add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(p)));
}

/// Folds the accuracy on all of `val`, then on its first 1500 and 300 rows.
void evaluate_into(Fnv1a& f, VirtualFlowEngine& engine, const Dataset& val) {
  for (const std::int64_t limit : {-1, 1500, 300}) f.add(engine.evaluate(val, limit));
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

std::uint64_t evaluation_hash(KernelMode mode) {
  const KernelMode saved = TensorConfig::kernel_mode();
  TensorConfig::set_kernel_mode(mode);
  Fnv1a f;
  const ProxyTask cifar = make_task("cifar10-sim", 42);
  for (const std::int64_t threads : {0, 8}) {
    VirtualFlowEngine engine = make_engine("cifar10-sim", cifar, /*vns=*/8, /*devices=*/2,
                                           threads);
    for (int i = 0; i < 6; ++i) engine.train_step();
    evaluate_into(f, engine, *cifar.val);
    engine.resize(make_devices(DeviceType::kV100, 1));
    evaluate_into(f, engine, *cifar.val);
  }
  const ProxyTask imagenet = make_task("imagenet-sim", 42);
  VirtualFlowEngine engine = make_engine("imagenet-sim", imagenet, /*vns=*/32, /*devices=*/1);
  for (int i = 0; i < 2; ++i) engine.train_step();
  f.add(engine.evaluate(*imagenet.val));
  TensorConfig::set_kernel_mode(saved);
  return f.h;
}

TEST(TrainingGolden, TrajectoryPinHoldsInEveryKernelTier) {
  constexpr std::uint64_t kPin = 0x135a65f4ab97c11bull;
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kSimd})
    EXPECT_EQ(hex(trajectory_hash(mode)), hex(kPin)) << kernel_mode_name(mode);
}

TEST(TrainingGolden, EvaluationPinHoldsInEveryKernelTier) {
  constexpr std::uint64_t kPin = 0x3cdef28fc668998full;
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kSimd})
    EXPECT_EQ(hex(evaluation_hash(mode)), hex(kPin)) << kernel_mode_name(mode);
}

}  // namespace
}  // namespace vf
