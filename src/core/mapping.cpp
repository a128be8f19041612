#include "core/mapping.h"

#include <numeric>

#include "util/common.h"

namespace vf {

VnMapping VnMapping::even(std::int64_t total_vns, std::int64_t num_devices,
                          std::int64_t global_batch) {
  check(total_vns > 0, "total virtual nodes must be positive");
  check(num_devices > 0, "device count must be positive");
  check(num_devices <= total_vns,
        "cannot have more devices than virtual nodes (" + std::to_string(num_devices) +
            " > " + std::to_string(total_vns) + ")");
  check(global_batch % total_vns == 0,
        "global batch " + std::to_string(global_batch) + " must divide evenly among " +
            std::to_string(total_vns) + " virtual nodes");

  VnMapping m;
  m.vn_batches_.assign(static_cast<std::size_t>(total_vns), global_batch / total_vns);
  return m.redistributed(num_devices);
}

VnMapping VnMapping::uneven(const std::vector<std::vector<std::int64_t>>& per_device) {
  check(!per_device.empty(), "at least one device required");
  VnMapping m;
  m.device_vns_.resize(per_device.size());
  std::int32_t next = 0;
  for (std::size_t d = 0; d < per_device.size(); ++d) {
    // An empty list is legal: a device may host zero virtual nodes this
    // phase (skewed heterogeneous splits, co-location warm spares). Such
    // a device idles — the engine skips it in compute, timing, and
    // reduction — but stays in the cluster for later reconfigurations.
    for (const std::int64_t b : per_device[d]) {
      check(b > 0, "virtual-node batch must be positive");
      m.device_vns_[d].push_back(next++);
      m.vn_batches_.push_back(b);
    }
  }
  check(next > 0, "mapping needs at least one virtual node");
  m.validate();
  return m;
}

VnMapping VnMapping::redistributed(std::int64_t new_num_devices) const {
  check(new_num_devices > 0, "device count must be positive");
  check(new_num_devices <= total_vns(),
        "cannot spread " + std::to_string(total_vns()) + " virtual nodes over " +
            std::to_string(new_num_devices) + " devices");
  VnMapping m;
  m.vn_batches_ = vn_batches_;
  m.device_vns_.resize(static_cast<std::size_t>(new_num_devices));
  const std::int64_t v = total_vns();
  const std::int64_t base = v / new_num_devices;
  const std::int64_t extra = v % new_num_devices;
  std::int32_t next = 0;
  for (std::int64_t d = 0; d < new_num_devices; ++d) {
    const std::int64_t count = base + (d < extra ? 1 : 0);
    for (std::int64_t k = 0; k < count; ++k)
      m.device_vns_[static_cast<std::size_t>(d)].push_back(next++);
  }
  m.validate();
  return m;
}

void VnMapping::validate() const {
  const std::int64_t v = total_vns();
  std::vector<bool> seen(static_cast<std::size_t>(v), false);
  for (const auto& vns : device_vns_) {
    for (const std::int32_t id : vns) {
      check_index(id, v, "virtual node id");
      check(!seen[static_cast<std::size_t>(id)],
            "virtual node " + std::to_string(id) + " assigned to multiple devices");
      seen[static_cast<std::size_t>(id)] = true;
    }
  }
  for (std::int64_t i = 0; i < v; ++i)
    check(seen[static_cast<std::size_t>(i)],
          "virtual node " + std::to_string(i) + " not assigned to any device");
}

std::int64_t VnMapping::global_batch() const {
  return std::accumulate(vn_batches_.begin(), vn_batches_.end(), std::int64_t{0});
}

const std::vector<std::int32_t>& VnMapping::device_vns(std::int64_t d) const {
  check_index(d, num_devices(), "device");
  return device_vns_[static_cast<std::size_t>(d)];
}

std::int64_t VnMapping::vn_batch(std::int32_t vn) const {
  check_index(vn, total_vns(), "virtual node");
  return vn_batches_[static_cast<std::size_t>(vn)];
}

std::vector<std::int64_t> VnMapping::device_batches(std::int64_t d) const {
  std::vector<std::int64_t> out;
  for (const std::int32_t vn : device_vns(d)) out.push_back(vn_batch(vn));
  return out;
}

std::int64_t VnMapping::device_batch_total(std::int64_t d) const {
  std::int64_t total = 0;
  for (const std::int32_t vn : device_vns(d)) total += vn_batch(vn);
  return total;
}

std::vector<BatchSlice> VnMapping::slices() const {
  return split_batch(global_batch(), vn_batches_);
}

std::int64_t VnMapping::device_of(std::int32_t vn) const {
  check_index(vn, total_vns(), "virtual node");
  for (std::int64_t d = 0; d < num_devices(); ++d) {
    for (const std::int32_t id : device_vns_[static_cast<std::size_t>(d)])
      if (id == vn) return d;
  }
  throw VfError("unreachable: validated mapping lost a virtual node");
}

std::string VnMapping::describe() const {
  std::string s = std::to_string(num_devices()) + " device(s), " +
                  std::to_string(total_vns()) + " VN(s), global batch " +
                  std::to_string(global_batch());
  return s;
}

}  // namespace vf
