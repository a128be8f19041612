#include "nn/state.h"

#include "util/common.h"

namespace vf {

Tensor& VnState::slot(const std::string& key, const std::vector<std::int64_t>& shape) {
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    it = slots_.emplace(key, Tensor(shape)).first;
  } else {
    check(it->second.shape() == shape,
          [&] { return "VnState slot '" + key + "' shape mismatch"; });
  }
  return it->second;
}

const Tensor& VnState::get(const std::string& key) const {
  auto it = slots_.find(key);
  check(it != slots_.end(), [&] { return "VnState slot '" + key + "' not found"; });
  return it->second;
}

void VnState::put(const std::string& key, Tensor value) {
  slots_[key] = std::move(value);
}

std::vector<std::string> VnState::keys() const {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const auto& [k, v] : slots_) out.push_back(k);
  return out;
}

std::int64_t VnState::total_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& [k, v] : slots_) bytes += v.size() * static_cast<std::int64_t>(sizeof(float));
  return bytes;
}

}  // namespace vf
