// vf::Workspace — a reusable tensor arena for the training/serving hot path.
//
// Every pass needs the same set of intermediates with the same shapes step
// after step. Allocating them fresh each time dominated steady-state cost;
// the workspace instead hands out named slots whose tensors keep their
// heap buffers across steps.
//
// Keying: slots are addressed by (row, tag), and each row has one driver
// at a time. The engine keys rows by host lane: lane w runs its virtual
// nodes one after another on one worker, so row w holds the transients of
// whichever VN that lane is running, and the rows stay as many as the
// lanes whatever the VN count. vfbench's phase replay
// (benchmark/src/train.cpp) keys its rows by VN id. Either way no two
// workers share a row, so there are no races and no scheduling-dependent
// buffer contents. (Two workers may concurrently create slots in
// *different* rows; each row's slot map is an independent object, so that
// is safe.)
//
// Confinement tripwire (debug builds): the one-worker-per-row contract
// above is load-bearing — a caller letting two pool workers drive the
// same row would corrupt buffers silently. In builds without NDEBUG every
// acquisition verifies that the acquiring thread is the row's sole owner
// within the current ownership region (begin_region() opens a new one;
// the engine calls it before every parallel section). The check costs one
// atomic op per acquisition and compiles out of release builds.
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

  /// Grows the slot table to at least `num_vns` rows (named for vfbench's
  /// replay, which keys rows by VN; the engine sizes it to its lanes).
  /// NOT thread-safe — call from single-threaded setup, never inside a
  /// parallel region.
  void ensure_vns(std::int64_t num_vns);

  /// Opens a new ownership region for the debug confinement check: the
  /// first thread to acquire a row's slots after this call owns that row
  /// until the next begin_region(). Callers bracket every parallel
  /// section with it (worker -> row assignment may legitimately change
  /// between sections, never within one). Cheap enough to call always;
  /// the per-acquisition check compiles out of NDEBUG builds.
  void begin_region() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  /// The reusable tensor in slot (row `vn`, tag), created empty on first
  /// use. The caller reshapes (ensure_shape) and overwrites it; contents
  /// from the previous acquisition are stale, never meaningful.
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

  /// Per-row ownership word for the debug confinement check, packed as
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
  /// row `vn`'s slots within the current ownership region.
  void assert_vn_owner(std::int32_t vn);
#endif

  // One independent slot map per row: concurrent first-use insertions for
  // different rows touch different maps. std::map keeps node addresses
  // stable, so Tensor& references survive later insertions. The audit
  // total is atomic because workers acquiring *different* rows' slots
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
