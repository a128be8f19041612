#include "serve/batch_former.h"

#include <algorithm>

#include "util/common.h"

namespace vf::serve {

BatchFormer::BatchFormer(BatchPolicy policy) : policy_(policy) {
  check(policy_.max_batch > 0, "batch policy max_batch must be positive");
  check(policy_.max_wait_s >= 0.0, "batch policy max_wait_s must be non-negative");
}

double BatchFormer::timeout_deadline_s(const RequestQueue& q) const {
  return q.front().arrival_s + policy_.max_wait_s;
}

std::vector<VnPack> BatchFormer::pack(std::int64_t count,
                                      const VnMapping& mapping) const {
  check(count > 0, "cannot pack an empty batch");
  check(count <= mapping.global_batch(), [&] {
    return "batch of " + std::to_string(count) + " exceeds serving capacity " +
           std::to_string(mapping.global_batch());
  });
  std::vector<VnPack> packs;
  std::int64_t next = 0;
  for (std::int32_t vn = 0; vn < mapping.total_vns() && next < count; ++vn) {
    const std::int64_t take = std::min(mapping.vn_batch(vn), count - next);
    VnPack p;
    p.vn = vn;
    p.positions.resize(static_cast<std::size_t>(take));
    for (std::int64_t k = 0; k < take; ++k)
      p.positions[static_cast<std::size_t>(k)] = next + k;
    next += take;
    packs.push_back(std::move(p));
  }
  check(next == count, "pack failed to place every request");
  return packs;
}

}  // namespace vf::serve
