// SliceDispatcher: the one engine-facing dispatch path of vf::serve.
//
// The three engine-facing bodies of serving — gather-features/infer/price
// for a continuous slice, the formed-batch execution of batch-boundary
// mode, and the per-request completion recording — live here once; the
// serving loop (ColocatedServer, which Server fronts) owns one
// SliceDispatcher per engine.
//
// Everything here is virtual-clock pure (same determinism contract as the
// rest of vf::serve): a dispatch consumes the caller's clock and per-device
// free horizon, prices via the analytic cost model, and returns schedule
// stamps — host threads can change wall-clock speed, never a stamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "serve/batch_former.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/slo_tracker.h"
#include "serve/slot_ledger.h"

namespace vf::serve {

/// Static display name of a slice kind ("classify"/"prefill"/"decode") —
/// the trace span names, shared so the trace and tables cannot disagree.
const char* slice_kind_name(SliceKind kind);

/// One unit of executed work during a replay: a formed batch in
/// batch-boundary mode, or a single VN slice in continuous mode.
struct BatchEvent {
  double start_s = 0.0;
  double finish_s = 0.0;
  std::int64_t size = 0;
  /// Device count that served it: the hosting device (1) for a
  /// continuous-mode slice, the full set for a formed batch.
  std::int64_t devices = 0;
  std::int64_t queue_depth_after = 0;
  std::int32_t vn = -1;  ///< slice's virtual node (continuous mode); -1 = batch
  std::int32_t model = -1;  ///< registry id (co-located serving); -1 = single model
  SliceKind kind = SliceKind::kClassify;  ///< scheduling class of the work
  std::int64_t device = -1;  ///< hosting device id (continuous mode); -1 = all
  bool warm = false;         ///< warm/cold dispatch pricing of the slice
  /// TraceRecorder span of the dispatch; obs::TraceRecorder::kNoSpan when
  /// recording is off. Servers finalize the span's queue depth and model
  /// through it.
  std::int64_t trace_span = obs::TraceRecorder::kNoSpan;
};

/// Records the completions of one finished classify slice or formed batch
/// (per-request stamps all derive from the slot's schedule). A stream's
/// record is assembled token by token by the TokenStreamer instead.
void record_slice_requests(const Slot& done, SloTracker& tracker);

/// The BatchEvent of one finished slice on VN `vn` (-1 for a formed
/// batch). The caller finalizes `model` (co-located serving) if it has one.
BatchEvent make_slice_event(const Slot& done, std::int32_t vn,
                            std::int64_t queue_depth_after);

/// Applies a pending one-shot injected comm fault to a freshly dispatched
/// slot: the slice retries its logits return, so done_s slips by one comm
/// charge. Identity when `injector` is null or no comm fault is pending.
Slot with_comm_fault(Slot slot, fault::FaultInjector* injector);

class SliceDispatcher {
 public:
  /// Both referents must outlive the dispatcher. One dispatcher per
  /// engine: the gather/slice scratch inside is sized to that engine's
  /// request traffic and reused dispatch after dispatch.
  SliceDispatcher(VirtualFlowEngine& engine, const Dataset& request_pool);

  SliceDispatcher(const SliceDispatcher&) = delete;
  SliceDispatcher& operator=(const SliceDispatcher&) = delete;
  /// Movable so per-model serving state can live in a vector
  /// (ColocatedServer); the reference members rebind nowhere, they just
  /// travel with the state.
  SliceDispatcher(SliceDispatcher&&) = default;

  /// Attaches observability sinks (either pointer may be null — the
  /// default handle is the null sink, one pointer test per dispatch).
  /// Every subsequent dispatch records a span named by its slice kind and
  /// bumps "<metrics_prefix>slices.<kind>" counters; `model` stamps the
  /// spans' model id (-1 = single-model serving). The referents must
  /// outlive the dispatcher.
  void set_observability(obs::Observability obs, std::int32_t model,
                         const std::string& metrics_prefix);

  /// Dispatches one continuous-mode slice of arbitrary request-pool rows
  /// onto VN `vn`: gather -> forward -> warm/cold price against
  /// `device_free` (updated in place: the hosting device is busy for the
  /// forward pass; the logits return rides the link). `requests` is the
  /// slice's request set for completion accounting — for decode/prefill
  /// slices the rows are the stream's feature schedule, not one row per
  /// request. Returns the priced Slot, ready for SlotLedger admit/readmit.
  Slot dispatch_rows(std::int32_t vn, SliceKind kind, double now_s,
                     std::vector<double>& device_free,
                     std::vector<InferRequest> requests,
                     const std::vector<std::int64_t>& rows);

  /// Classify-slice convenience: one feature row per request, taken from
  /// each request's own `example_index`.
  Slot dispatch_classify(std::int32_t vn, double now_s,
                         std::vector<double>& device_free,
                         std::vector<InferRequest> requests);

  /// Batch-boundary execution: pops `take` requests, packs them across VNs
  /// (former.pack), runs the whole formed batch to its barrier, records
  /// every completion, and returns the BatchEvent (finish_s is the new
  /// clock; the caller finalizes queue_depth_after and `model`).
  BatchEvent run_formed_batch(RequestQueue& queue, const BatchFormer& former,
                              SloTracker& tracker, double start_s,
                              std::int64_t take);

 private:
  VirtualFlowEngine& engine_;
  const Dataset& request_pool_;

  // Observability (null sinks by default). Per-kind slice counters are
  // resolved once at attach time so the dispatch hot path never touches a
  // metric name.
  obs::Observability obs_;
  std::int32_t model_ = -1;
  obs::Counter* kind_counters_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* batch_counter_ = nullptr;

  // Reusable dispatch scratch: the gather index list, the (discarded)
  // request-pool labels, and the slice vector handed to engine.infer.
  // Feature matrices keep their buffers across dispatches, so the
  // server-side half of a dispatch reallocates nothing once warm (the
  // engine's forward pass reuses its per-VN workspace likewise, but
  // infer() itself still builds per-call result vectors — serving is not
  // under the training loop's zero-allocation contract).
  std::vector<std::int64_t> idx_scratch_;
  std::vector<std::int64_t> labels_scratch_;
  std::vector<InferSlice> slices_scratch_;
};

}  // namespace vf::serve
