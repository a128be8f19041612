#include "comm/comm.h"

#include "util/common.h"

namespace vf {

double ring_allreduce_time_s(double bytes, std::int64_t world, const LinkSpec& link) {
  check(world >= 1, "world size must be positive");
  check(bytes >= 0.0, "bytes must be non-negative");
  if (world == 1) return 0.0;
  // Reduce-scatter + all-gather: 2(n-1) rounds, each moving bytes/n.
  const double n = static_cast<double>(world);
  const double rounds = 2.0 * (n - 1.0);
  return rounds * (link.latency_s + (bytes / n) / link.bandwidth_bytes);
}

double ring_allgather_time_s(double bytes, std::int64_t world, const LinkSpec& link) {
  check(world >= 1, "world size must be positive");
  if (world == 1) return 0.0;
  const double n = static_cast<double>(world);
  return (n - 1.0) * (link.latency_s + bytes / link.bandwidth_bytes);
}

double send_time_s(double bytes, const LinkSpec& link) {
  check(bytes >= 0, "send bytes must be non-negative");
  return link.latency_s + bytes / link.bandwidth_bytes;
}

Tensor weighted_sum(const std::vector<const Tensor*>& bufs,
                    const std::vector<double>& weights) {
  check(!bufs.empty(), "weighted_sum of zero tensors");
  check(bufs.size() == weights.size(), "weighted_sum: weight count mismatch");
  Tensor out(bufs[0]->shape());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    check(bufs[i] != nullptr, "weighted_sum: null tensor");
    check_same_shape(out, *bufs[i], "weighted_sum");
    out.axpy_(static_cast<float>(weights[i]), *bufs[i]);
  }
  return out;
}

}  // namespace vf
