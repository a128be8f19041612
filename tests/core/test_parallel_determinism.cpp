// The host thread pool preserves the engine's bit-exactness contract:
// running the per-device step loop on 1, 2, or 8 workers produces
// parameters, VN states, per-step losses, and evaluation results that are
// bit-identical to the serial reference path — for multiple device
// mappings, including an uneven one. This holds by construction (each
// device writes only its own VNs' gradient sums; sync_and_update reduces
// in ascending VN-id order), and this suite is the proof.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "nn/state.h"
#include "tensor/kernels.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

constexpr std::int64_t kSteps = 10;

/// Everything the bit-exactness claim quantifies over.
struct RunResult {
  Tensor params;
  std::vector<double> losses;       // per-step global-batch mean loss
  std::vector<VnState> vn_states;   // batch-norm moving stats per VN
  double eval_acc = 0.0;
};

RunResult run(std::int64_t vns, std::int64_t num_devices, std::int64_t workers) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;  // 0 = the serial reference path
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"),
                        make_devices(DeviceType::kV100, num_devices),
                        VnMapping::even(vns, num_devices, recipe.global_batch), cfg);

  RunResult r;
  for (std::int64_t i = 0; i < kSteps; ++i) r.losses.push_back(eng.train_step().loss);
  r.params = eng.parameters();
  for (std::int64_t vn = 0; vn < eng.mapping().total_vns(); ++vn)
    r.vn_states.push_back(eng.vn_state(static_cast<std::int32_t>(vn)));
  r.eval_acc = eng.evaluate(*task.val);
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(a.params.equals(b.params))
      << "max diff " << a.params.max_abs_diff(b.params);
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]) << "loss diverged at step " << i;
  ASSERT_EQ(a.vn_states.size(), b.vn_states.size());
  for (std::size_t vn = 0; vn < a.vn_states.size(); ++vn) {
    ASSERT_EQ(a.vn_states[vn].keys(), b.vn_states[vn].keys()) << "VN " << vn;
    for (const auto& key : a.vn_states[vn].keys())
      EXPECT_TRUE(a.vn_states[vn].get(key).equals(b.vn_states[vn].get(key)))
          << "VN " << vn << " key " << key;
  }
  EXPECT_EQ(a.eval_acc, b.eval_acc);
}

struct PoolCase {
  std::int64_t vns;
  std::int64_t num_devices;
  std::int64_t workers;
};

class ParallelDeterminism : public ::testing::TestWithParam<PoolCase> {};

TEST_P(ParallelDeterminism, PoolBitIdenticalToSerial) {
  const PoolCase c = GetParam();
  const RunResult serial = run(c.vns, c.num_devices, /*workers=*/0);
  const RunResult pooled = run(c.vns, c.num_devices, c.workers);
  expect_identical(serial, pooled);
}

// Two device mappings (4x and 2x V100) x worker counts {1, 2, 8}. The
// 8-worker cases oversubscribe the 4- and 2-device loops, exercising the
// pool's queueing path.
INSTANTIATE_TEST_SUITE_P(
    MappingsAndWorkerCounts, ParallelDeterminism,
    ::testing::Values(PoolCase{8, 4, 1}, PoolCase{8, 4, 2}, PoolCase{8, 4, 8},
                      PoolCase{8, 2, 1}, PoolCase{8, 2, 2}, PoolCase{8, 2, 8}),
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      return std::to_string(info.param.vns) + "vn" +
             std::to_string(info.param.num_devices) + "dev" +
             std::to_string(info.param.workers) + "w";
    });

TEST(ParallelDeterminism, IdenticalAcrossWorkerCounts) {
  // Transitivity check made explicit: every pooled run equals every other.
  const RunResult w1 = run(8, 4, 1);
  const RunResult w2 = run(8, 4, 2);
  const RunResult w8 = run(8, 4, 8);
  expect_identical(w1, w2);
  expect_identical(w2, w8);
}

TEST(ParallelDeterminism, MappingInvarianceHoldsUnderPool) {
  // The library's core contract (mapping invariance) composed with the
  // pool: a serial 1-device run and an 8-worker 8-device run of the same
  // 8 VNs are bit-identical.
  const RunResult serial_1dev = run(8, 1, 0);
  const RunResult pooled_8dev = run(8, 8, 8);
  expect_identical(serial_1dev, pooled_8dev);
}

TEST(ParallelDeterminism, UnevenMappingBitIdenticalUnderPool) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");
  EngineConfig serial_cfg;
  serial_cfg.seed = 42;
  serial_cfg.enforce_memory = false;
  EngineConfig pool_cfg = serial_cfg;
  pool_cfg.num_threads = 4;

  VirtualFlowEngine serial(model, *r1.optimizer, *r1.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 2),
                           VnMapping::uneven({{8, 8, 8, 8, 8}, {8, 8, 8}}), serial_cfg);
  VirtualFlowEngine pooled(model, *r2.optimizer, *r2.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 2),
                           VnMapping::uneven({{8, 8, 8, 8, 8}, {8, 8, 8}}), pool_cfg);
  for (int i = 0; i < kSteps; ++i) {
    const StepStats a = serial.train_step();
    const StepStats b = pooled.train_step();
    EXPECT_EQ(a.loss, b.loss) << "step " << i;
  }
  EXPECT_TRUE(serial.parameters().equals(pooled.parameters()));
}

TEST(ParallelDeterminism, KernelModeAndWorkerCountCannotChangeBits) {
  // The kernel layer's contract composed with the pool's: reference vs
  // blocked vs simd kernels, serial vs pooled — every combination must
  // land on the same bits (tensor/kernels.h). The simd arms run
  // everywhere: on hosts without the vector ISA the backend factory
  // serves them with the blocked tier.
  const KernelMode saved_mode = TensorConfig::kernel_mode();

  TensorConfig::set_kernel_mode(KernelMode::kReference);
  const RunResult reference = run(8, 4, 0);

  TensorConfig::set_kernel_mode(KernelMode::kBlocked);
  const RunResult blocked = run(8, 4, 0);
  const RunResult blocked_pooled = run(8, 4, 8);

  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  const RunResult simd = run(8, 4, 0);
  const RunResult simd_pooled = run(8, 4, 8);
  const RunResult simd_wide = run(8, 4, 2);

  TensorConfig::set_kernel_mode(saved_mode);

  expect_identical(reference, blocked);
  expect_identical(blocked, blocked_pooled);
  expect_identical(reference, simd);
  expect_identical(simd, simd_pooled);
  expect_identical(simd, simd_wide);
}

TEST(ParallelDeterminism, PooledEngineEvaluatesLikeSerial) {
  // Evaluation runs on the calling thread whatever the worker count: a
  // 1-device mapping with 8 pool workers (more workers than devices)
  // must still match the serial reference bit for bit.
  const RunResult serial = run(8, 1, /*workers=*/0);
  const RunResult pooled = run(8, 1, /*workers=*/8);
  expect_identical(serial, pooled);
}

TEST(ParallelDeterminism, PoolSurvivesResize) {
  // Elastic resize with a live pool: the device count changes under the
  // pool's feet and the trajectory still matches the serial engine. The
  // 4 -> 1 -> 4 leg leaves lanes 1..7 idle for a phase; they must rejoin
  // holding the current parameters, not those of the step they last ran.
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");
  EngineConfig serial_cfg;
  serial_cfg.seed = 42;
  serial_cfg.enforce_memory = false;
  EngineConfig pool_cfg = serial_cfg;
  pool_cfg.num_threads = 8;

  VirtualFlowEngine serial(model, *r1.optimizer, *r1.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 4),
                           VnMapping::even(8, 4, r1.global_batch), serial_cfg);
  VirtualFlowEngine pooled(model, *r2.optimizer, *r2.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 4),
                           VnMapping::even(8, 4, r2.global_batch), pool_cfg);
  for (int i = 0; i < 5; ++i) {
    serial.train_step();
    pooled.train_step();
  }
  for (const std::int64_t devices : {2, 4, 1, 4}) {
    serial.resize(make_devices(DeviceType::kV100, devices));
    pooled.resize(make_devices(DeviceType::kV100, devices));
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(serial.train_step().loss, pooled.train_step().loss)
          << "step " << i << " on " << devices << " devices";
    EXPECT_TRUE(serial.parameters().equals(pooled.parameters()))
        << "after the resize to " << devices << " devices";
  }
}

}  // namespace
}  // namespace vf
