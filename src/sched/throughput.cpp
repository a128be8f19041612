#include "sched/throughput.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/cost_model.h"
#include "device/memory_model.h"
#include "util/common.h"

namespace vf {

std::int64_t Allocation::total() const {
  std::int64_t n = 0;
  for (const auto& [t, c] : per_type) n += c;
  return n;
}

bool Allocation::heterogeneous() const {
  std::int64_t types = 0;
  for (const auto& [t, c] : per_type)
    if (c > 0) ++types;
  return types > 1;
}

std::string Allocation::describe() const {
  if (empty()) return "(none)";
  std::string s;
  for (const auto& [t, c] : per_type) {
    if (c == 0) continue;
    if (!s.empty()) s += "+";
    s += std::to_string(c) + "x" + device_type_name(t);
  }
  return s;
}

Allocation Allocation::of(DeviceType t, std::int64_t count) {
  Allocation a;
  if (count > 0) a.per_type[t] = count;
  return a;
}

namespace {

/// Local step time of one GPU of `type` processing `local_batch` examples,
/// folded into the fewest VNs that fit memory.
double local_step_time(DeviceType type, const ModelProfile& profile,
                       double local_batch) {
  const DeviceSpec& spec = device_spec(type);
  const std::int64_t frontier = max_micro_batch(spec, profile, /*use_grad_buffer=*/true);
  check(frontier > 0,
        [&] { return "workload " + profile.name + " does not fit on " + spec.name; });
  const double b = std::max(1.0, local_batch);
  const auto vns = static_cast<std::int64_t>(
      std::ceil(b / static_cast<double>(frontier)));
  const auto per_vn = static_cast<std::int64_t>(
      std::max(1.0, std::round(b / static_cast<double>(vns))));
  std::vector<std::int64_t> batches(static_cast<std::size_t>(vns), per_vn);
  return device_step_time_s(spec, profile, batches);
}

/// Single-GPU steady throughput at a healthy batch (used for the balanced
/// heterogeneous split and the LAS normalization).
double unit_speed(DeviceType type, const ModelProfile& profile) {
  const DeviceSpec& spec = device_spec(type);
  const std::int64_t frontier = max_micro_batch(spec, profile, true);
  check(frontier > 0, [&] { return "workload does not fit on " + spec.name; });
  return device_throughput(spec, profile, frontier, 1);
}

}  // namespace

double allocation_step_time_s(const ModelProfile& profile, std::int64_t global_batch,
                              const Allocation& alloc, const LinkSpec& link) {
  check(global_batch > 0, "global batch must be positive");
  const std::int64_t world = alloc.total();
  if (world == 0) return std::numeric_limits<double>::infinity();

  const double comm =
      world > 1 ? ring_allreduce_time_s(profile.param_bytes(), world, link) : 0.0;

  if (!alloc.heterogeneous()) {
    for (const auto& [type, count] : alloc.per_type) {
      if (count == 0) continue;
      const double local = static_cast<double>(global_batch) / static_cast<double>(count);
      return local_step_time(type, profile, local) + comm;
    }
  }

  // Heterogeneous: balanced split — per-GPU share proportional to the
  // type's unit speed, so all types finish together on the continuous
  // grid; the realized time is the max over types (quantization makes it
  // slightly uneven, as in the real system).
  double total_speed = 0.0;
  for (const auto& [type, count] : alloc.per_type)
    total_speed += static_cast<double>(count) * unit_speed(type, profile);
  check(total_speed > 0.0, "allocation has no usable capacity");

  double worst = 0.0;
  for (const auto& [type, count] : alloc.per_type) {
    if (count == 0) continue;
    const double per_gpu = static_cast<double>(global_batch) *
                           unit_speed(type, profile) / total_speed;
    worst = std::max(worst, local_step_time(type, profile, per_gpu));
  }
  return worst + comm;
}

double allocation_throughput(const ModelProfile& profile, std::int64_t global_batch,
                             const Allocation& alloc, const LinkSpec& link) {
  if (alloc.empty()) return 0.0;
  return static_cast<double>(global_batch) /
         allocation_step_time_s(profile, global_batch, alloc, link);
}

double reference_throughput(const ModelProfile& profile, std::int64_t global_batch) {
  return allocation_throughput(profile, global_batch,
                               Allocation::of(DeviceType::kV100, 1));
}

}  // namespace vf
