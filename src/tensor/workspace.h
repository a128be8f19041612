// vf::Workspace — a reusable tensor arena for the training/serving hot path.
//
// The engine replays each device's virtual nodes serially, and every pass
// needs the same set of intermediates (activations, loss gradients, weight-
// gradient temporaries, flattened gradient sums) with the same shapes step
// after step. Allocating them fresh each time dominated steady-state cost;
// the workspace instead hands out named slots whose tensors keep their heap
// buffers across steps.
//
// Keying: slots are addressed by (virtual-node id, tag). Keying by the
// *logical* VN id — not by device or worker — is what keeps the arena out
// of the bit-exactness story entirely: under any mapping and any pool
// worker count, the worker running device d touches exactly the slots of
// d's VNs and nobody else's, so there are no races and no scheduling-
// dependent buffer contents. (Two workers may concurrently create slots
// for *different* VNs; each VN's slot map is an independent object, so
// that is safe. A single VN is always driven by one worker at a time.)
//
// Confinement tripwire (debug builds): the one-worker-per-VN contract
// above is load-bearing but was previously unchecked — a future caller
// letting two pool workers drive the same VN would corrupt buffers
// silently. In builds without NDEBUG every acquisition verifies that the
// acquiring thread is the VN's sole owner within the current ownership
// region (begin_region() opens a new one; the engine calls it before
// every parallel section). The check costs one atomic op per acquisition
// and compiles out of release builds.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "tensor/tensor.h"

namespace vf {

class Workspace {
 public:
  Workspace() = default;
  explicit Workspace(std::int64_t num_vns) { ensure_vns(num_vns); }

  // Movable (the engine is movable), not copyable: two workspaces sharing
  // a history would double-count the audit. The atomic counter needs the
  // moves spelled out.
  Workspace(Workspace&& other) noexcept
      : vns_(std::move(other.vns_)),
        owners_(std::move(other.owners_)),
        generation_(other.generation_.load(std::memory_order_relaxed)),
        allocs_(other.allocs_.load(std::memory_order_relaxed)) {}
  Workspace& operator=(Workspace&& other) noexcept {
    vns_ = std::move(other.vns_);
    owners_ = std::move(other.owners_);
    generation_.store(other.generation_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    allocs_.store(other.allocs_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Grows the per-VN slot table to at least `num_vns` entries. NOT
  /// thread-safe — call from single-threaded setup (engine construction /
  /// reconfiguration), never inside a parallel region.
  void ensure_vns(std::int64_t num_vns);

  /// Drops every slot (and its buffers) of VNs at or beyond `num_vns`.
  /// The engine calls this on reconfigure: when a new mapping has fewer
  /// virtual nodes, the departed VNs' slots must not outlive it — before
  /// this existed they pinned their buffers for the engine's lifetime.
  /// Same thread-safety contract as ensure_vns (setup only).
  void shrink_vns(std::int64_t num_vns);

  std::int64_t num_vns() const { return static_cast<std::int64_t>(vns_.size()); }

  /// Opens a new ownership region for the debug confinement check: the
  /// first thread to acquire a VN's slots after this call owns that VN
  /// until the next begin_region(). Callers bracket every parallel
  /// section with it (worker -> VN assignment may legitimately change
  /// between sections, never within one). Cheap enough to call always;
  /// the per-acquisition check compiles out of NDEBUG builds.
  void begin_region() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  /// The reusable tensor in slot (vn, tag), created empty on first use.
  /// The caller reshapes (ensure_shape) and overwrites it; contents from
  /// the previous acquisition are stale, never meaningful.
  Tensor& acquire(std::int32_t vn, std::int32_t tag);

  /// Heap-buffer allocations observed across this workspace's slots so
  /// far (audited by capacity changes at acquisition time and on this
  /// call). After warm-up this must stop moving — the zero-allocation
  /// steady-state test asserts exactly that.
  std::int64_t heap_allocs() const;

 private:
  struct Slot {
    Tensor t;
    mutable std::size_t audited_capacity = 0;
  };

  /// Per-VN ownership word for the debug confinement check, packed as
  /// (region generation << 32) | 32-bit thread tag. One atomic so the
  /// claim race between two violating threads is itself data-race-free
  /// (the tripwire must not trip TSan). Movable wrapper because the slot
  /// table resizes during single-threaded setup.
  struct VnOwner {
    std::atomic<std::uint64_t> word{0};
    VnOwner() = default;
    VnOwner(VnOwner&& o) noexcept : word(o.word.load(std::memory_order_relaxed)) {}
    VnOwner& operator=(VnOwner&& o) noexcept {
      word.store(o.word.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  /// Re-audits one slot's capacity, charging any growth since last look.
  void audit(const Slot& s) const;

#ifndef NDEBUG
  /// Debug confinement check: throws VfError when a second thread touches
  /// `vn`'s slots within the current ownership region.
  void assert_vn_owner(std::int32_t vn);
#endif

  // One independent slot map per VN: concurrent first-use insertions for
  // different VNs touch different maps. std::map keeps node addresses
  // stable, so Tensor& references survive later insertions. The audit
  // total is atomic because workers acquiring *different* VNs' slots
  // charge it concurrently (relaxed: it is a diagnostic counter, read
  // from quiescent contexts only).
  std::vector<std::map<std::int32_t, Slot>> vns_;
  std::vector<VnOwner> owners_;
  // Region generations start at 1 so the zero-initialized owner words can
  // never look like a live claim.
  std::atomic<std::uint64_t> generation_{1};
  mutable std::atomic<std::int64_t> allocs_{0};
};

}  // namespace vf
