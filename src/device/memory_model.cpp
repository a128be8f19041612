#include "device/memory_model.h"

#include <algorithm>

#include "util/common.h"
#include "util/table.h"

namespace vf {

namespace {

/// The Fig 6 breakdown of a device whose largest VN runs `max_b` examples;
/// `prefetch` adds the next VN's inputs (any device hosting more than one).
MemoryBreakdown breakdown(const ModelProfile& model, std::int64_t max_b, bool prefetch,
                          bool use_grad_buffer) {
  MemoryBreakdown m;
  const double bd = static_cast<double>(max_b);
  // Current VN's inputs plus the prefetched inputs of the next VN (Fig 5).
  m.inputs = model.input_bytes_per_example * bd * (prefetch ? 2.0 : 1.0);
  m.activations = model.activation_bytes_per_example * bd;
  m.kernel_temp = model.workspace_bytes;
  m.parameters = model.param_bytes();
  m.grad_buffer = use_grad_buffer ? model.param_bytes() : 0.0;
  m.other = kFrameworkOverheadBytes;
  return m;
}

}  // namespace

MemoryBreakdown peak_memory(const ModelProfile& model,
                            const std::vector<std::int64_t>& vn_batches,
                            bool use_grad_buffer) {
  // An empty list is a device hosting zero virtual nodes this phase (a
  // legal skewed mapping): it still holds its model replica and the
  // framework footprint, but no inputs or activations.
  std::int64_t max_b = 0;
  for (auto b : vn_batches) {
    check(b > 0, "virtual-node batch must be positive");
    max_b = std::max(max_b, b);
  }
  return breakdown(model, max_b, vn_batches.size() > 1, use_grad_buffer);
}

bool fits(const DeviceSpec& spec, const ModelProfile& model,
          const std::vector<std::int64_t>& vn_batches, bool use_grad_buffer) {
  return peak_memory(model, vn_batches, use_grad_buffer).total() <=
         spec.usable_mem_bytes();
}

void check_fits(const DeviceSpec& spec, const ModelProfile& model,
                const std::vector<std::int64_t>& vn_batches, bool use_grad_buffer) {
  const auto m = peak_memory(model, vn_batches, use_grad_buffer);
  if (m.total() > spec.usable_mem_bytes()) {
    throw OomError("OOM on " + spec.name + " running " + model.name + ": needs " +
                   fmt_bytes(m.total()) + " but only " +
                   fmt_bytes(spec.usable_mem_bytes()) + " usable");
  }
}

std::vector<std::int64_t> pow2_like_batches(std::int64_t limit) {
  std::vector<std::int64_t> out;
  for (std::int64_t p = 1; p <= limit; p *= 2) {
    out.push_back(p);
    const std::int64_t mid = p + p / 2;  // midpoint between p and 2p
    if (p >= 2 && mid <= limit) out.push_back(mid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t max_micro_batch(const DeviceSpec& spec, const ModelProfile& model,
                             bool use_grad_buffer) {
  // Walks pow2_like_batches(1 << 20) in place: this runs on every
  // allocation the cluster controller prices, so it builds no vectors.
  constexpr std::int64_t kLimit = 1 << 20;
  const auto fits_alone = [&](std::int64_t b) {
    return breakdown(model, b, /*prefetch=*/false, use_grad_buffer).total() <=
           spec.usable_mem_bytes();
  };
  std::int64_t best = 0;
  for (std::int64_t p = 1; p <= kLimit; p *= 2) {
    // Memory use is monotone in batch size: stop at the first rung that
    // does not fit.
    if (!fits_alone(p)) return best;
    best = p;
    const std::int64_t mid = p + p / 2;
    if (p < 2 || mid > kLimit) continue;
    if (!fits_alone(mid)) return best;
    best = mid;
  }
  return best;
}

}  // namespace vf
