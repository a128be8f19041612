#include "tensor/workspace.h"

#ifndef NDEBUG
#include <functional>
#include <thread>
#endif

#include "util/common.h"

namespace vf {

void Workspace::ensure_vns(std::int64_t num_vns) {
  check(num_vns >= 0, "workspace row count must be non-negative");
  if (static_cast<std::int64_t>(vns_.size()) < num_vns) {
    vns_.resize(static_cast<std::size_t>(num_vns));
    owners_.resize(static_cast<std::size_t>(num_vns));
  }
}

void Workspace::audit(const Slot& s) const {
  const std::size_t cap = s.t.buffer_capacity();
  if (cap != s.audited_capacity) {
    // Capacity only ever moves on (re)allocation; charge one per change.
    allocs_.fetch_add(1, std::memory_order_relaxed);
    s.audited_capacity = cap;
  }
}

#ifndef NDEBUG
namespace {
/// Nonzero 32-bit tag for the calling thread (folded hash of its id).
/// A tag collision between two live threads would mask a violation, never
/// invent one — acceptable odds for a debug tripwire.
std::uint64_t thread_tag32() {
  static thread_local const std::uint64_t tag = [] {
    const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto folded = static_cast<std::uint32_t>(h ^ (h >> 17) ^ (h >> 31));
    return static_cast<std::uint64_t>(folded == 0 ? 1U : folded);
  }();
  return tag;
}
}  // namespace

void Workspace::assert_vn_owner(std::int32_t vn) {
  const std::uint64_t gen =
      generation_.load(std::memory_order_acquire) & 0xffffffffULL;
  const std::uint64_t me = thread_tag32();
  std::atomic<std::uint64_t>& word = owners_[static_cast<std::size_t>(vn)].word;
  std::uint64_t cur = word.load(std::memory_order_acquire);
  for (;;) {
    if ((cur >> 32) == gen) {
      // The row is claimed in this region; only its owner may touch it.
      check((cur & 0xffffffffULL) == me, [&] {
        return "workspace confinement violated: row " + std::to_string(vn) +
               " acquired by a second thread within one region (slots assume "
               "one worker per row; see Workspace docs)";
      });
      return;
    }
    // Unclaimed this region: claim it. A lost CAS means another thread
    // claimed concurrently — loop back and the ownership check above
    // reports the violation.
    if (word.compare_exchange_weak(cur, (gen << 32) | me,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return;
    }
  }
}
#endif

Tensor& Workspace::acquire(std::int32_t vn, std::int32_t tag) {
  check_index(vn, static_cast<std::int64_t>(vns_.size()), "workspace row");
#ifndef NDEBUG
  // Ownership check first: a violating thread throws before it can touch
  // (and race on) the slot's non-atomic state.
  assert_vn_owner(vn);
#endif
  Slot& s = vns_[static_cast<std::size_t>(vn)][tag];
  audit(s);
  return s.t;
}

std::int64_t Workspace::heap_allocs() const {
  for (const auto& slots : vns_)
    for (const auto& kv : slots) audit(kv.second);
  return allocs_;
}

}  // namespace vf
