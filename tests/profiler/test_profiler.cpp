// Offline profiler (§5.1.1).
#include <gtest/gtest.h>

#include "profiler/profiler.h"
#include "util/common.h"
#include "workloads/profiles.h"

namespace vf {
namespace {

TEST(Profiler, CoversPow2LikeGridUpToMemoryFrontier) {
  const auto prof = profile_workload(DeviceType::kRtx2080Ti, model_profile("resnet50"));
  EXPECT_EQ(prof.max_batch(), 192);  // Fig 18 anchor
  const auto grid = pow2_like_batches(192);
  ASSERT_EQ(prof.points().size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(prof.points()[i].batch, grid[i]);
}

TEST(Profiler, ThroughputCurveRisesWithBatch) {
  const auto prof = profile_workload(DeviceType::kV100, model_profile("transformer"));
  const auto& pts = prof.points();
  EXPECT_GT(pts.back().throughput, pts.front().throughput);
  // Allow the deterministic +/-1.5% measurement perturbation.
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GE(pts[i].throughput, pts[i - 1].throughput * 0.96);
}

TEST(Profiler, StepTimeMonotoneInBatch) {
  const auto prof = profile_workload(DeviceType::kV100, model_profile("resnet50"));
  const auto& pts = prof.points();
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GT(pts[i].step_time_s, pts[i - 1].step_time_s);
}

TEST(Profiler, InterpolationExactAtProfiledPoints) {
  const auto prof = profile_workload(DeviceType::kV100, model_profile("resnet50"));
  for (const auto& p : prof.points())
    EXPECT_DOUBLE_EQ(prof.step_time(p.batch), p.step_time_s);
}

TEST(Profiler, InterpolationBetweenPoints) {
  const auto prof = profile_workload(DeviceType::kV100, model_profile("resnet50"));
  // Between 128 and 192 the interpolated time lies between the endpoints.
  const double t128 = prof.step_time(128);
  const double t192 = prof.step_time(192);
  const double t160 = prof.step_time(160);
  EXPECT_GT(t160, t128);
  EXPECT_LT(t160, t192);
}

TEST(Profiler, BeyondFrontierThrows) {
  const auto prof = profile_workload(DeviceType::kRtx2080Ti, model_profile("bert-large"));
  EXPECT_EQ(prof.max_batch(), 4);
  EXPECT_THROW(prof.step_time(6), VfError);
  EXPECT_THROW(prof.step_time(0), VfError);
}

TEST(Profiler, ProfilingTimeUnderTenMinutes) {
  // §5.1.1: "the entire process typically takes no longer than 10 minutes"
  // — per device type, for the batch grid at ~20 steps per point.
  double time_s = 0.0;
  profile_workload(DeviceType::kV100, model_profile("resnet50"), &time_s);
  EXPECT_GT(time_s, 0.0);
  EXPECT_LT(time_s, 600.0);
}

TEST(Profiler, CommOverheadEstimatePositiveAndSmall) {
  const auto prof = profile_workload(DeviceType::kV100, model_profile("resnet50"));
  EXPECT_GT(prof.comm_overhead_s(), 0.0);
  EXPECT_LT(prof.comm_overhead_s(), 1.0);
}

TEST(Profiler, FasterDeviceProfilesFaster) {
  const auto v = profile_workload(DeviceType::kV100, model_profile("resnet50"));
  const auto p = profile_workload(DeviceType::kP100, model_profile("resnet50"));
  EXPECT_LT(v.step_time(128), p.step_time(128));
}

TEST(OfflineProfile, ValidatesConstruction) {
  EXPECT_THROW(OfflineProfile(DeviceType::kV100, "m", {}, 0.0), VfError);
  std::vector<ProfilePoint> unsorted = {{8, 1.0, 8.0}, {4, 0.5, 8.0}};
  EXPECT_THROW(OfflineProfile(DeviceType::kV100, "m", unsorted, 0.0), VfError);
}

}  // namespace
}  // namespace vf
