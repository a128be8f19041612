// Cost-model shape properties the paper's performance results rely on.
#include <gtest/gtest.h>

#include "device/cost_model.h"
#include "util/common.h"
#include "workloads/profiles.h"

namespace vf {
namespace {

const DeviceSpec& v100() { return device_spec(DeviceType::kV100); }
const DeviceSpec& p100() { return device_spec(DeviceType::kP100); }

TEST(BatchUtilization, SaturatesWithBatch) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_LT(batch_utilization(m, 1), batch_utilization(m, 16));
  EXPECT_LT(batch_utilization(m, 16), batch_utilization(m, 256));
  EXPECT_LT(batch_utilization(m, 256), 1.0);
  EXPECT_NEAR(batch_utilization(m, m.batch_half_saturation), 0.5, 1e-9);
}

TEST(PassTime, IncreasesWithBatch) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_LT(pass_time_s(v100(), m, 32), pass_time_s(v100(), m, 64));
  EXPECT_LT(pass_time_s(v100(), m, 64), pass_time_s(v100(), m, 256));
}

TEST(PassTime, SublinearAtSmallBatch) {
  // Doubling a small batch less than doubles time (fixed launch overhead
  // and rising utilization) — the paper's motivation for preferring large
  // local batches in §2.1.
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_LT(pass_time_s(v100(), m, 2), 2.0 * pass_time_s(v100(), m, 1));
}

TEST(PassTime, V100FourTimesP100OnResnet) {
  const ModelProfile& m = model_profile("resnet50");
  const double ratio = pass_time_s(p100(), m, 256) / pass_time_s(v100(), m, 256);
  EXPECT_NEAR(ratio, 4.0, 0.4);
}

TEST(UpdateTime, IndependentOfBatch) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_GT(update_time_s(v100(), m), 0.0);
}

TEST(UpdateTime, ScalesWithModelSize) {
  EXPECT_GT(update_time_s(v100(), model_profile("bert-large")),
            10.0 * update_time_s(v100(), model_profile("resnet56")));
}

TEST(DeviceStepTime, SequentialVnsAddUp) {
  const ModelProfile& m = model_profile("resnet50");
  const double one = device_step_time_s(v100(), m, {256});
  const double four = device_step_time_s(v100(), m, {256, 256, 256, 256});
  // Four sequential passes cost ~4x the pass portion but only one update.
  EXPECT_GT(four, 3.5 * (one - update_time_s(v100(), m)));
  EXPECT_LT(four, 4.0 * one);
}

TEST(DeviceStepTime, UpdateChargedOncePerStep) {
  // §3.2 / Fig 17: the shared gradient buffer means one update per step,
  // independent of the number of virtual nodes.
  const ModelProfile& m = model_profile("bert-large");
  const double t1 = device_step_time_s(v100(), m, {4});
  const double t2 = device_step_time_s(v100(), m, {4, 4});
  const double pass = pass_time_s(v100(), m, 4);
  EXPECT_NEAR(t2 - t1, pass, 1e-9);
}

TEST(DeviceThroughput, ImprovesWithBiggerBatchAtFixedVns) {
  const ModelProfile& m = model_profile("transformer");
  EXPECT_LT(device_throughput(v100(), m, 256, 1), device_throughput(v100(), m, 2048, 1));
}

TEST(DeviceThroughput, LargeModelGainsFromMoreVns) {
  // Fig 17 (bottom): for models with expensive updates, scaling VNs (and
  // thus the global batch) raises throughput by amortizing the update.
  const ModelProfile& m = model_profile("bert-large");
  const double t1 = device_throughput(v100(), m, 4, 1);
  const double t32 = device_throughput(v100(), m, 4 * 32, 32);
  EXPECT_GT(t32, t1 * 1.15);
}

TEST(DeviceThroughput, ValidatesDivisibility) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_THROW(device_throughput(v100(), m, 10, 3), VfError);
  EXPECT_THROW(device_throughput(v100(), m, 8, 0), VfError);
}

TEST(PassTime, MemoryBoundForTinyComputeModels) {
  // A profile with negligible FLOPs but large activations is bounded by
  // memory bandwidth, not compute.
  ModelProfile m = model_profile("resnet56");
  m.flops_per_example = 1.0;  // effectively free compute
  const double t = pass_time_s(v100(), m, 1024);
  const double mem_bytes = 3.0 * m.activation_bytes_per_example * 1024 + 2.0 * m.param_bytes();
  EXPECT_NEAR(t - v100().kernel_launch_s, mem_bytes / v100().mem_bw_bytes, 1e-6);
}

TEST(CostModel, InvalidInputsThrow) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_THROW(pass_time_s(v100(), m, 0), VfError);
  EXPECT_THROW(device_step_time_s(v100(), m, {}), VfError);
  EXPECT_THROW(slice_infer_time_s(v100(), m, 0), VfError);
}

TEST(SliceInferTime, ColdDispatchPaysPassPlusFixedOverhead) {
  const ModelProfile& m = model_profile("bert-base");
  for (const std::int64_t b : {1, 4, 32}) {
    EXPECT_DOUBLE_EQ(slice_infer_time_s(v100(), m, b),
                     infer_pass_time_s(v100(), m, b) + v100().step_fixed_s)
        << "batch " << b;
  }
}

}  // namespace
}  // namespace vf
