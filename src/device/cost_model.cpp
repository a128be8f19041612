#include "device/cost_model.h"

#include <algorithm>

#include "util/common.h"

namespace vf {

double batch_utilization(const ModelProfile& model, double batch) {
  check(batch > 0, "batch must be positive");
  return batch / (batch + model.batch_half_saturation);
}

double pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                   std::int64_t batch) {
  check(batch > 0, "batch must be positive");
  const double b = static_cast<double>(batch);
  const double util = batch_utilization(model, b);
  const double compute_s =
      model.train_flops_per_example() * b / (spec.effective_flops() * util);
  // Bytes touched in a training pass: activations written + read in
  // backward, parameters read twice (forward and backward).
  const double bytes =
      3.0 * model.activation_bytes_per_example * b + 2.0 * model.param_bytes();
  const double memory_s = bytes / spec.mem_bw_bytes;
  return spec.kernel_launch_s + std::max(compute_s, memory_s);
}

double update_time_s(const DeviceSpec& spec, const ModelProfile& model) {
  // Optimizer reads params + grads and writes params: ~3x param bytes,
  // scaled by the optimizer's state-touch factor.
  const double bytes = 3.0 * model.param_bytes() * model.update_cost_factor;
  return spec.kernel_launch_s + bytes / spec.mem_bw_bytes;
}

double device_step_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          const std::vector<std::int64_t>& vn_batches) {
  check(!vn_batches.empty(), "device must run at least one virtual node");
  double t = 0.0;
  for (auto b : vn_batches) t += pass_time_s(spec, model, b);
  return t + update_time_s(spec, model) + spec.step_fixed_s;
}

double infer_pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                         std::int64_t batch) {
  check(batch > 0, "batch must be positive");
  const double b = static_cast<double>(batch);
  const double util = batch_utilization(model, b);
  const double compute_s =
      model.flops_per_example * b / (spec.effective_flops() * util);
  // Bytes touched forward-only: activations written once, parameters read
  // once (no backward re-read, no gradient buffer).
  const double bytes = model.activation_bytes_per_example * b + model.param_bytes();
  const double memory_s = bytes / spec.mem_bw_bytes;
  return spec.kernel_launch_s + std::max(compute_s, memory_s);
}

double decode_pass_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          std::int64_t batch) {
  check(batch > 0, "batch must be positive");
  const double b = static_cast<double>(batch);
  const double util = batch_utilization(model, b);
  const double compute_s =
      model.flops_per_example * b / (spec.effective_flops() * util);
  // One token's activations per stream, but the FULL parameter read: the
  // weights do not shrink because the input did. This floor is the
  // memory-bound regime of autoregressive decoding.
  const double bytes = model.input_bytes_per_example * b + model.param_bytes();
  const double memory_s = bytes / spec.mem_bw_bytes;
  return spec.kernel_launch_s + std::max(compute_s, memory_s);
}

double slice_infer_time_s(const DeviceSpec& spec, const ModelProfile& model,
                          std::int64_t batch) {
  return infer_pass_time_s(spec, model, batch) + spec.step_fixed_s;
}

double device_throughput(const DeviceSpec& spec, const ModelProfile& model,
                         std::int64_t batch, std::int64_t vns) {
  check(vns > 0, "virtual node count must be positive");
  check(batch % vns == 0, "batch must divide evenly across virtual nodes");
  const std::vector<std::int64_t> per_vn(static_cast<std::size_t>(vns), batch / vns);
  const double t = device_step_time_s(spec, model, per_vn);
  return static_cast<double>(batch) / t;
}

}  // namespace vf
