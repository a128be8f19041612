#include "serve/dispatch.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace vf::serve {

const char* slice_kind_name(SliceKind kind) {
  switch (kind) {
    case SliceKind::kClassify: return "classify";
    case SliceKind::kPrefill: return "prefill";
    case SliceKind::kDecode: return "decode";
  }
  return "unknown";
}

void record_slice_requests(const Slot& done, SloTracker& tracker) {
  for (std::size_t i = 0; i < done.requests.size(); ++i) {
    const InferRequest& r = done.requests[i];
    RequestRecord rec;
    rec.id = r.id;
    rec.arrival_s = r.arrival_s;
    rec.dispatch_s = done.dispatch_s;
    // Honest accounting across fault retries: waits that preceded evicted
    // dispatches accumulate on the request, and the final stretch runs
    // from the latest queue entry (requeue stamp after an eviction).
    rec.queue_wait_s =
        r.queue_wait_accum_s + (done.dispatch_s - r.enqueued_s());
    rec.retries = r.retries;
    rec.compute_s = done.compute_s;
    rec.comm_s = done.comm_s;
    rec.finish_s = done.done_s;
    rec.prediction = done.predictions[i];
    tracker.record_completion(std::move(rec));
  }
}

Slot with_comm_fault(Slot slot, fault::FaultInjector* injector) {
  if (injector != nullptr && injector->take_comm_fault()) {
    slot.done_s += slot.comm_s;
    slot.comm_s *= 2.0;
  }
  return slot;
}

BatchEvent make_slice_event(const Slot& done, std::int32_t vn,
                            std::int64_t queue_depth_after) {
  BatchEvent ev;
  ev.start_s = done.dispatch_s;
  ev.finish_s = done.done_s;
  ev.size = static_cast<std::int64_t>(done.requests.size());
  // The hosting-device count that dispatched the slice — a slice can span
  // a seamless resize, and it ran on the mapping it was launched under.
  ev.devices = done.devices;
  ev.queue_depth_after = queue_depth_after;
  ev.vn = vn;
  ev.kind = done.kind;
  ev.device = done.device;
  ev.warm = done.warm;
  ev.trace_span = done.trace_span;
  return ev;
}

SliceDispatcher::SliceDispatcher(VirtualFlowEngine& engine,
                                 const Dataset& request_pool)
    : engine_(engine), request_pool_(request_pool) {}

void SliceDispatcher::set_observability(obs::Observability obs,
                                        std::int32_t model,
                                        const std::string& metrics_prefix) {
  obs_ = obs;
  model_ = model;
  if (obs.metrics == nullptr) {
    kind_counters_[0] = kind_counters_[1] = kind_counters_[2] = nullptr;
    batch_counter_ = nullptr;
    return;
  }
  kind_counters_[0] = &obs.metrics->counter(metrics_prefix + "slices.classify");
  kind_counters_[1] = &obs.metrics->counter(metrics_prefix + "slices.prefill");
  kind_counters_[2] = &obs.metrics->counter(metrics_prefix + "slices.decode");
  batch_counter_ = &obs.metrics->counter(metrics_prefix + "batches.formed");
}

Slot SliceDispatcher::dispatch_rows(std::int32_t vn, SliceKind kind,
                                    double now_s,
                                    std::vector<double>& device_free,
                                    std::vector<InferRequest> requests,
                                    const std::vector<std::int64_t>& rows) {
  check(!rows.empty(), "a dispatched slice needs at least one feature row");
  slices_scratch_.resize(1);
  InferSlice& slice = slices_scratch_.front();
  slice.vn = vn;
  slice.decode = kind == SliceKind::kDecode;
  request_pool_.gather(rows, slice.features, labels_scratch_);
  InferStats stats = engine_.infer(slices_scratch_);
  const SliceCost& cost = stats.slice_costs.front();

  // Warm/cold dispatch pricing (price_slice_dispatch, shared by every
  // serving path so the price models cannot diverge).
  const auto dev = static_cast<std::size_t>(cost.device);
  const SliceSchedule sched = price_slice_dispatch(now_s, device_free[dev], cost);
  Slot slot;
  slot.kind = kind;
  slot.dispatch_s = now_s;
  // A single-VN slice runs on exactly the one device hosting its VN
  // (reporting the full device-set size here made BatchEvent accounting
  // disagree with the per-device trace spans).
  slot.devices = 1;
  slot.device = cost.device;
  slot.warm = sched.warm;
  slot.compute_s = sched.compute_s;
  slot.comm_s = cost.comm_s;
  slot.done_s = sched.done_s;
  // The device is busy for the forward pass; the logits return rides
  // the link while the device moves on to its next slice.
  device_free[dev] = sched.start_s + sched.compute_s;
  if (obs_.trace != nullptr) {
    // The span covers the device's busy window plus the logits return;
    // queue depth is finalized by the server once post-dispatch admissions
    // have settled.
    slot.trace_span =
        obs_.trace->span(slice_kind_name(kind), sched.start_s, sched.done_s,
                         static_cast<std::int32_t>(cost.device), vn, model_,
                         static_cast<std::int64_t>(requests.size()), sched.warm);
  }
  if (kind_counters_[0] != nullptr)
    kind_counters_[static_cast<std::size_t>(kind)]->add();
  slot.requests = std::move(requests);
  slot.predictions = std::move(stats.predictions);
  return slot;
}

Slot SliceDispatcher::dispatch_classify(std::int32_t vn, double now_s,
                                        std::vector<double>& device_free,
                                        std::vector<InferRequest> requests) {
  idx_scratch_.clear();
  idx_scratch_.reserve(requests.size());
  for (const InferRequest& r : requests) idx_scratch_.push_back(r.example_index);
  return dispatch_rows(vn, SliceKind::kClassify, now_s, device_free,
                       std::move(requests), idx_scratch_);
}

BatchEvent SliceDispatcher::run_formed_batch(RequestQueue& queue,
                                             const BatchFormer& former,
                                             SloTracker& tracker,
                                             double start_s, std::int64_t take) {
  std::vector<InferRequest> batch = queue.pop(take);
  const std::vector<VnPack> packs = former.pack(take, engine_.mapping());

  // Packs take FIFO positions contiguously in ascending VN order, so the
  // engine's slice-ordered prediction vector lines up with batch position.
  // The slice vector and each slice's feature matrix are member scratch,
  // reused batch after batch.
  slices_scratch_.resize(packs.size());
  for (std::size_t pi = 0; pi < packs.size(); ++pi) {
    const VnPack& p = packs[pi];
    idx_scratch_.clear();
    idx_scratch_.reserve(p.positions.size());
    for (const std::int64_t pos : p.positions)
      idx_scratch_.push_back(batch[static_cast<std::size_t>(pos)].example_index);
    InferSlice& s = slices_scratch_[pi];
    s.vn = p.vn;
    s.decode = false;
    request_pool_.gather(idx_scratch_, s.features, labels_scratch_);
  }

  InferStats stats = engine_.infer(slices_scratch_);
  Slot done;
  done.dispatch_s = start_s;
  done.done_s = start_s + stats.compute_s + stats.comm_s;
  done.devices = static_cast<std::int64_t>(engine_.devices().size());
  done.compute_s = stats.compute_s;
  done.comm_s = stats.comm_s;
  if (obs_.trace != nullptr) {
    // A formed batch runs to a barrier across the whole device set, so its
    // span lives on the control track (device -1), sized by the take.
    done.trace_span = obs_.trace->span("batch", start_s, done.done_s, /*device=*/-1,
                                       /*vn=*/-1, model_, take, /*warm=*/false);
  }
  if (batch_counter_ != nullptr) batch_counter_->add();
  done.requests = std::move(batch);
  done.predictions = std::move(stats.predictions);
  record_slice_requests(done, tracker);
  // queue_depth_after is finalized by the caller once the arrivals that
  // landed during this batch's service window are admitted.
  return make_slice_event(done, /*vn=*/-1, queue.size());
}

}  // namespace vf::serve
