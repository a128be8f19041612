// Offline profiler (§5.1.1).
//
// "VirtualFlow runs the given workload on a single hardware accelerator at
// a time across all batch sizes of interest that fit in the accelerator's
// memory" — batch sizes are powers of two and their midpoints, and ~20
// steps per point suffice because step times are stable. In this repo the
// "runs" execute against the simulated device cost model, which plays the
// role of the physical GPU (docs/architecture.md, "Layer map"); the
// profiler's interface, enumeration rule, curve shape, and downstream
// consumers (the heterogeneous solver, Gavel+HT) are exactly the paper's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/cost_model.h"
#include "device/memory_model.h"
#include "device/model_profile.h"
#include "device/spec.h"

namespace vf {

/// One measured point of a throughput-over-batch-size curve.
struct ProfilePoint {
  std::int64_t batch = 0;
  double step_time_s = 0.0;   ///< single-device step time at this batch
  double throughput = 0.0;    ///< examples/s
};

/// Offline profile of one (workload, device type) pair.
class OfflineProfile {
 public:
  OfflineProfile() = default;
  OfflineProfile(DeviceType device, std::string workload,
                 std::vector<ProfilePoint> points, double comm_overhead_s);

  DeviceType device() const { return device_; }
  const std::string& workload() const { return workload_; }
  const std::vector<ProfilePoint>& points() const { return points_; }

  /// Largest profiled batch (the device's memory-fit frontier).
  std::int64_t max_batch() const;

  /// Step time at an arbitrary batch size, linearly interpolated between
  /// profiled points (extrapolates linearly through the origin below the
  /// smallest point; throws above max_batch — the workload wouldn't fit).
  double step_time(std::int64_t batch) const;

  /// Estimated per-step gradient-synchronization overhead (§5.1.2: the
  /// difference between distributed and single-node step times).
  double comm_overhead_s() const { return comm_overhead_; }

 private:
  DeviceType device_ = DeviceType::kV100;
  std::string workload_;
  std::vector<ProfilePoint> points_;  // ascending batch
  double comm_overhead_ = 0.0;
};

/// Profiles `model` on a device of type `type` across all power-of-2-like
/// batch sizes that fit, 20 steps per batch size (the paper's "a few
/// steps (e.g., 20)"), and estimates comm overhead over the default link.
/// Also returns the simulated profiling cost (the paper: "typically takes
/// no longer than 10 minutes") via `out_profiling_time_s` when non-null.
OfflineProfile profile_workload(DeviceType type, const ModelProfile& model,
                                double* out_profiling_time_s = nullptr);

}  // namespace vf
