// Memory model: Fig 6 accounting, §3.3's constant-overhead claim, and the
// paper's published memory-fit anchors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "device/memory_model.h"
#include "util/common.h"
#include "workloads/profiles.h"

namespace vf {
namespace {

const DeviceSpec& rtx() { return device_spec(DeviceType::kRtx2080Ti); }
const DeviceSpec& v100() { return device_spec(DeviceType::kV100); }

TEST(Pow2Like, EnumeratesPowersAndMidpoints) {
  EXPECT_EQ(pow2_like_batches(8), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 8}));
  // §5.1.1 calls out 48, 192, 768 as examples of power-of-2-like values.
  const auto big = pow2_like_batches(1024);
  EXPECT_NE(std::find(big.begin(), big.end(), 48), big.end());
  EXPECT_NE(std::find(big.begin(), big.end(), 192), big.end());
  EXPECT_NE(std::find(big.begin(), big.end(), 768), big.end());
}

TEST(Pow2Like, SortedUniqueWithinLimit) {
  const auto xs = pow2_like_batches(500);
  for (std::size_t i = 1; i < xs.size(); ++i) EXPECT_LT(xs[i - 1], xs[i]);
  EXPECT_LE(xs.back(), 500);
}

TEST(PeakMemory, GradBufferEqualsModelSize) {
  // §3.3: the gradient buffer is the same size as the model.
  const ModelProfile& m = model_profile("resnet50");
  const auto with = peak_memory(m, {64}, true);
  const auto without = peak_memory(m, {64}, false);
  EXPECT_DOUBLE_EQ(with.grad_buffer, m.param_bytes());
  EXPECT_DOUBLE_EQ(without.grad_buffer, 0.0);
  EXPECT_DOUBLE_EQ(with.total() - without.total(), m.param_bytes());
}

TEST(PeakMemory, ConstantInVirtualNodeCount) {
  // §3.3 / Fig 17 (top): overhead is independent of V because VNs execute
  // sequentially and share the buffer.
  const ModelProfile& m = model_profile("resnet50");
  const double two = peak_memory(m, {64, 64}, true).total();
  const double eight = peak_memory(m, {64, 64, 64, 64, 64, 64, 64, 64}, true).total();
  EXPECT_DOUBLE_EQ(two, eight);
}

TEST(PeakMemory, DrivenByLargestVn) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_DOUBLE_EQ(peak_memory(m, {64, 32}, true).total(),
                   peak_memory(m, {64, 64}, true).total());
}

TEST(PeakMemory, ActivationsDominateForResnet) {
  // Fig 6: activations are the vast majority of peak usage.
  const ModelProfile& m = model_profile("resnet50");
  const auto mem = peak_memory(m, {192}, true);
  EXPECT_GT(mem.activations, 0.7 * mem.total());
  EXPECT_NEAR(mem.activations / kGiB, 8.0, 0.5);      // ~8.17 GB in Fig 6
  EXPECT_NEAR(mem.parameters / kMiB, 102.45, 5.0);    // 102.45 MB in Fig 6
}

TEST(MaxMicroBatch, PaperAnchors) {
  // Fig 18: max batches on a 2080 Ti are 192 (ResNet-50), 3072
  // (Transformer), 4 (BERT-LARGE). §6.2.1: 256 fits a 16 GB V100.
  EXPECT_EQ(max_micro_batch(rtx(), model_profile("resnet50"), true), 192);
  EXPECT_EQ(max_micro_batch(rtx(), model_profile("transformer"), true), 3072);
  EXPECT_EQ(max_micro_batch(rtx(), model_profile("bert-large"), true), 4);
  EXPECT_EQ(max_micro_batch(v100(), model_profile("resnet50"), true), 256);
}

TEST(MaxMicroBatch, BertBase64DoesNotFitV100) {
  // Table 2: "Previously, a batch size of 64 would not fit in the memory
  // of 1 V100 GPU."
  const ModelProfile& m = model_profile("bert-base");
  EXPECT_FALSE(fits(v100(), m, {64}, true));
  EXPECT_LT(max_micro_batch(v100(), m, true), 64);
  EXPECT_TRUE(fits(v100(), m, {8, 8, 8, 8, 8, 8, 8, 8}, true));  // 8 VNs of 8
}

TEST(CheckFits, ThrowsOomWithDiagnostics) {
  const ModelProfile& m = model_profile("bert-large");
  try {
    check_fits(rtx(), m, {64}, true);
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bert-large"), std::string::npos);
    EXPECT_NE(what.find("RTX2080Ti"), std::string::npos);
  }
}

TEST(PeakMemory, PrefetchDoublesInputsOnlyWithMultipleVns) {
  const ModelProfile& m = model_profile("resnet50");
  const auto one = peak_memory(m, {64}, false);
  const auto two = peak_memory(m, {64, 64}, false);
  EXPECT_DOUBLE_EQ(two.inputs, 2.0 * one.inputs);
  EXPECT_DOUBLE_EQ(two.activations, one.activations);
}

TEST(PeakMemory, InvalidBatchesThrow) {
  const ModelProfile& m = model_profile("resnet50");
  EXPECT_THROW(peak_memory(m, {0}, true), VfError);
}

TEST(PeakMemory, IdleDeviceHoldsReplicaOnly) {
  // A device hosting zero VNs (legal skewed mapping) still pays for its
  // model replica and the framework footprint, but no inputs/activations.
  const ModelProfile& m = model_profile("resnet50");
  const MemoryBreakdown idle = peak_memory(m, {}, false);
  EXPECT_DOUBLE_EQ(idle.inputs, 0.0);
  EXPECT_DOUBLE_EQ(idle.activations, 0.0);
  EXPECT_DOUBLE_EQ(idle.parameters, m.param_bytes());
  EXPECT_GT(idle.total(), 0.0);
}

TEST(MaxMicroBatch, VirtualNodesUnlockLargeGlobalBatches) {
  // The central memory story: a global batch far beyond device memory
  // works when folded into per-VN micro-batches that fit.
  const ModelProfile& m = model_profile("resnet50");
  const std::int64_t frontier = max_micro_batch(rtx(), m, true);
  std::vector<std::int64_t> vns(8192 / frontier + 1, frontier);
  EXPECT_TRUE(fits(rtx(), m, vns, true));
}

// Oracle: max_micro_batch() as it was before it walked the ladder in
// place: build the sorted pow2-like ladder up to 2^20 and test each rung
// with fits({b}) until the first that does not fit.
std::int64_t max_micro_batch_oracle(const DeviceSpec& spec, const ModelProfile& model,
                                    bool use_grad_buffer) {
  const std::int64_t limit = 1 << 20;
  std::vector<std::int64_t> ladder;
  for (std::int64_t p = 1; p <= limit; p *= 2) {
    ladder.push_back(p);
    const std::int64_t mid = p + p / 2;
    if (p >= 2 && mid <= limit) ladder.push_back(mid);
  }
  std::sort(ladder.begin(), ladder.end());
  std::int64_t best = 0;
  for (std::int64_t b : ladder) {
    if (!fits(spec, model, {b}, use_grad_buffer)) break;
    best = b;
  }
  return best;
}

TEST(MaxMicroBatch, MatchesLadderOracleEverywhere) {
  std::vector<ModelProfile> models;
  for (const std::string& name : model_profile_names()) models.push_back(model_profile(name));
  // The ladder's two ends: nothing fits, and every rung up to 2^20 fits.
  ModelProfile huge = model_profile("resnet50");
  huge.name = "huge";
  huge.workspace_bytes = 1e15;
  models.push_back(huge);
  ModelProfile tiny;
  tiny.name = "tiny";
  models.push_back(tiny);

  for (std::size_t d = 0; d < kNumDeviceTypes; ++d) {
    const DeviceSpec& dev = device_spec(static_cast<DeviceType>(d));
    for (const ModelProfile& m : models) {
      for (const bool grad_buffer : {true, false}) {
        EXPECT_EQ(max_micro_batch(dev, m, grad_buffer),
                  max_micro_batch_oracle(dev, m, grad_buffer))
            << dev.name << " / " << m.name << " / grad_buffer=" << grad_buffer;
      }
    }
  }
  EXPECT_EQ(max_micro_batch(v100(), huge, true), 0);
  EXPECT_EQ(max_micro_batch(v100(), tiny, true), 1 << 20);
}

}  // namespace
}  // namespace vf
