#include "profiler/profiler.h"

#include <algorithm>

#include "comm/comm.h"
#include "util/common.h"
#include "util/rng.h"

namespace vf {

OfflineProfile::OfflineProfile(DeviceType device, std::string workload,
                               std::vector<ProfilePoint> points, double comm_overhead_s)
    : device_(device),
      workload_(std::move(workload)),
      points_(std::move(points)),
      comm_overhead_(comm_overhead_s) {
  check(!points_.empty(), "profile must contain at least one point");
  for (std::size_t i = 1; i < points_.size(); ++i)
    check(points_[i].batch > points_[i - 1].batch, "profile points must be ascending");
}

std::int64_t OfflineProfile::max_batch() const { return points_.back().batch; }

double OfflineProfile::step_time(std::int64_t batch) const {
  check(batch > 0, "batch must be positive");
  check(batch <= max_batch(),
        "batch " + std::to_string(batch) + " exceeds the profiled memory frontier (" +
            std::to_string(max_batch()) + ") on " + device_spec(device_).name);
  if (batch <= points_.front().batch) {
    // Below the smallest profiled point: scale linearly toward zero batch
    // (conservative; the launch overhead keeps real times above this).
    return points_.front().step_time_s * static_cast<double>(batch) /
           static_cast<double>(points_.front().batch);
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (batch <= points_[i].batch) {
      const auto& lo = points_[i - 1];
      const auto& hi = points_[i];
      const double f = static_cast<double>(batch - lo.batch) /
                       static_cast<double>(hi.batch - lo.batch);
      return lo.step_time_s + f * (hi.step_time_s - lo.step_time_s);
    }
  }
  return points_.back().step_time_s;  // unreachable given the max_batch check
}

OfflineProfile profile_workload(DeviceType type, const ModelProfile& model,
                                double* out_profiling_time_s) {
  constexpr double kStepsPerPoint = 20.0;
  const DeviceSpec& spec = device_spec(type);

  std::vector<ProfilePoint> points;
  double profiling_time = 0.0;
  const std::int64_t frontier = max_micro_batch(spec, model, /*use_grad_buffer=*/true);
  check(frontier > 0, "workload " + model.name + " does not fit on " + spec.name +
                          " at any batch size");

  for (const std::int64_t b : pow2_like_batches(frontier)) {
    // "Run" kStepsPerPoint steps: in simulation every step takes the
    // model-predicted time, so the average equals one step's cost; the
    // simulated profiling clock still pays for all of them, plus the
    // first-step graph-optimization overhead per batch size. A small
    // deterministic measurement perturbation (+/-1.5%) models the
    // run-to-run variance real profiling averages over — this is what
    // separates the solver's predictions from ground truth in Fig 14.
    const double exact = device_step_time_s(spec, model, {b});
    const std::uint64_t h = splitmix64(
        derive_seed(static_cast<std::uint64_t>(type) + 1,
                    static_cast<std::uint64_t>(b)));
    const double unit = 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
    const double one = exact * (1.0 + 0.015 * unit);
    points.push_back({b, one, static_cast<double>(b) / one});
    profiling_time += spec.first_step_extra_s + exact * kStepsPerPoint;
  }

  // §5.1.2: estimate comm overhead as distributed-minus-single-node step
  // time at local batch 1 — which the ring all-reduce model gives directly
  // for a minimal 2-node ring.
  const double comm = ring_allreduce_time_s(model.param_bytes(), 2, LinkSpec{});

  if (out_profiling_time_s != nullptr) *out_profiling_time_s = profiling_time;
  return OfflineProfile(type, model.name, std::move(points), comm);
}

}  // namespace vf
