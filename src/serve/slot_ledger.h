// SlotLedger: per-virtual-node slot accounting for continuous batching.
//
// Where the batch-boundary BatchFormer drains a FIFO prefix all at once,
// continuous batching treats every virtual node as an independent slot: a
// slice of requests is admitted into a free slot the moment one exists,
// runs to its own completion time, and frees the slot for the next slice
// — arrivals join the partially-formed in-flight batch instead of waiting
// for the next full drain.
//
// Determinism contract (same as the rest of vf::serve): every transition
// is driven by the virtual clock and resolved in a fixed order — admission
// takes the FIFO queue prefix (ascending request id by construction),
// free slots are claimed in ascending VN-id order, and due completions
// are processed in (completion time, VN id) order. Host threads never
// enter the picture; the in-flight schedule is a pure function of
// (trace, policy, cost model).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "serve/request.h"

namespace vf::serve {

/// Virtual-clock schedule of one continuously batched slice dispatch.
struct SliceSchedule {
  double start_s = 0.0;    ///< when the device begins the pass
  double compute_s = 0.0;  ///< forward time actually charged (warm or cold)
  double done_s = 0.0;     ///< completion incl. the logits return
  bool warm = false;       ///< amortized dispatch (device was mid-pass)
};

/// The warm/cold dispatch pricing rule of every serving dispatch (one
/// definition, so no path can price differently): a slice landing on a
/// device that is still mid-pass (`device_free_s > now_s`) pipelines
/// behind it — the per-dispatch framework overhead hides under the
/// running pass and only the forward time is charged; a cold dispatch
/// (idle device) pays the full overhead. Pure function of virtual-clock
/// state.
inline SliceSchedule price_slice_dispatch(double now_s, double device_free_s,
                                          const SliceCost& cost) {
  SliceSchedule s;
  s.warm = device_free_s > now_s;
  s.compute_s = cost.pass_s + (s.warm ? 0.0 : cost.overhead_s);
  s.start_s = now_s > device_free_s ? now_s : device_free_s;
  s.done_s = s.start_s + s.compute_s + cost.comm_s;
  return s;
}

/// One in-flight slice occupying a virtual-node slot.
struct Slot {
  bool busy = false;
  SliceKind kind = SliceKind::kClassify;  ///< scheduling class of the slice
  double dispatch_s = 0.0;  ///< when the slice was admitted into the slot
  double done_s = 0.0;      ///< scheduled completion on the virtual clock
  /// Device count that hosts the slice: 1 — a single-VN slice runs on the
  /// one device its VN maps to (it used to misreport the full device-set
  /// size, so per-event accounting disagreed with the per-device trace).
  std::int64_t devices = 0;
  std::int64_t device = -1; ///< hosting device id under the dispatch mapping
  bool warm = false;        ///< warm/cold dispatch pricing (see SliceSchedule)
  double compute_s = 0.0;   ///< cost-model forward time of the slice
  double comm_s = 0.0;      ///< logits-return time of the slice
  /// TraceRecorder span index of this slice's dispatch (obs/trace.h);
  /// obs::TraceRecorder::kNoSpan when no recorder was attached.
  std::int64_t trace_span = -1;
  std::vector<InferRequest> requests;  ///< FIFO order within the slice
  std::vector<std::int64_t> predictions;  ///< one per request, same order
};

class SlotLedger {
 public:
  /// One slot per virtual node. The VN count is stable across elastic
  /// resizes (resize remaps VNs onto devices, never changes them), so a
  /// ledger survives any number of reconfigurations.
  explicit SlotLedger(std::int64_t total_vns);

  std::int64_t total_slots() const { return static_cast<std::int64_t>(slots_.size()); }
  std::int64_t busy_count() const { return busy_; }
  bool all_free() const { return busy_ == 0; }
  /// Requests currently in flight across all busy slots. The elasticity
  /// loop adds this to the queue depth when deciding to *shrink*: a queue
  /// can be momentarily empty while a full in-flight batch is mid-pass,
  /// and shrinking on that illusion of idleness makes the device set
  /// oscillate under load.
  std::int64_t inflight_requests() const { return inflight_; }

  /// Lowest-id free slot, or -1 when every slot is in flight. Claiming
  /// the lowest VN id first is part of the determinism contract.
  std::int32_t lowest_free() const;

  /// Admit transition: occupy slot `vn` with a slice dispatched at
  /// `slot.dispatch_s` and completing at `slot.done_s`. The slot must be
  /// free, hold at least one request, and respect dispatch_s <= done_s.
  void admit(std::int32_t vn, Slot slot);

  /// VN ids of every slot due at or before `now_s`, in (done_s, VN id)
  /// order — the canonical completion-processing order.
  std::vector<std::int32_t> due(double now_s) const;

  /// Complete transition: free slot `vn` (which must be busy) and return
  /// the slice it held.
  Slot complete(std::int32_t vn);

  /// Readmit transition: atomically swap the finished slice in busy slot
  /// `vn` for its continuation `next`, returning the finished slice. This
  /// is how a token stream's decode chain holds its slot: the slot never
  /// passes through the free state between slices, so no queued admission
  /// can steal it mid-stream. The slot must be busy and already due
  /// (slot.done_s <= next.dispatch_s); `next` obeys the same invariants as
  /// an admitted slice.
  Slot readmit(std::int32_t vn, Slot next);

  /// Evict transition (fault recovery): free busy slot `vn` whose slice
  /// will never complete — its device died — and return the slice so the
  /// caller can requeue the requests. Identical bookkeeping to complete()
  /// but counted separately (an eviction is not a served slice) and legal
  /// at any stamp, including before the slice's scheduled done_s.
  Slot evict(std::int32_t vn);

  /// Read-only view of slot `vn` (busy or free).
  const Slot& slot(std::int32_t vn) const;

  /// Attaches admit/readmit/complete transition counters under
  /// `prefix` ("<prefix>slots.admits" etc). The registry must outlive the
  /// ledger; counter pointers are cached here so the transitions stay
  /// allocation-free. Null detaches.
  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);

 private:
  std::vector<Slot> slots_;
  std::int64_t busy_ = 0;
  std::int64_t inflight_ = 0;
  // Cached instrument pointers (null = off); see set_metrics.
  obs::Counter* admits_ = nullptr;
  obs::Counter* readmits_ = nullptr;
  obs::Counter* completes_ = nullptr;
  obs::Counter* evictions_ = nullptr;
};

}  // namespace vf::serve
