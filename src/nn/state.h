// Per-virtual-node stateful-kernel storage.
//
// The paper (§4.1) calls out that some kernels carry state that is computed
// independently on each worker and never synchronized — the canonical
// example is batch normalization's moving mean/variance. VirtualFlow must
// migrate this state when virtual nodes move between accelerators, or the
// state is effectively reset and convergence suffers.
//
// We generalize: stateful kernels store their tensors in a VnState owned by
// the *virtual node*, not by the device or the model replica. The elastic
// controller migrates VnState objects alongside model parameters in the
// bootstrap all-gather. This is also what makes training bit-exact under
// remapping: the state travels with the logical VN id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace vf {

/// Keyed tensor slots for one virtual node's stateful kernels.
class VnState {
 public:
  /// Returns the slot for `key`, creating it zero-initialized with `shape`
  /// on first use. The shape must match on subsequent calls.
  Tensor& slot(const std::string& key, const std::vector<std::int64_t>& shape);

  /// True if the slot exists already.
  bool has(const std::string& key) const { return slots_.count(key) > 0; }

  /// Read-only access; throws if missing.
  const Tensor& get(const std::string& key) const;

  /// Overwrites (or creates) a slot. Used by state migration.
  void put(const std::string& key, Tensor value);

  /// All keys in deterministic (lexicographic) order.
  std::vector<std::string> keys() const;

  /// Total bytes held (for migration-cost accounting).
  std::int64_t total_bytes() const;

  bool empty() const { return slots_.empty(); }

 private:
  std::map<std::string, Tensor> slots_;
};

}  // namespace vf
