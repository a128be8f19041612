#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "data/batch.h"
#include "sched/elastic.h"
#include "util/common.h"

namespace vf::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void validate_elastic_policy(const ElasticPolicy& e, std::int64_t vn_count) {
  check(e.min_devices >= 1, "elastic min_devices must be >= 1");
  check(e.max_devices >= e.min_devices, "elastic max_devices < min_devices");
  check(e.max_devices <= vn_count,
        "elastic max_devices (" + std::to_string(e.max_devices) +
            ") exceeds the virtual-node count (" + std::to_string(vn_count) +
            "); devices beyond the VN count would idle");
  check(e.high_watermark > e.low_watermark,
        "elastic watermarks must satisfy high > low (hysteresis)");
  check(e.cooldown_batches >= 0, "elastic cooldown must be non-negative");
}

Server::Server(VirtualFlowEngine& engine, const Dataset& request_pool,
               ServerConfig config)
    : engine_(engine),
      request_pool_(request_pool),
      config_(config),
      queue_(config.queue_capacity),
      former_(config.batch),
      tracker_(config.deadline_s),
      dispatcher_(engine, request_pool) {
  // Backpressure accounting lives at the backpressure point: the queue
  // reports every dropped request (with its id) straight to the tracker
  // (and, when a recorder is attached, as a "reject" marker on the control
  // track), so both replay modes share one drop-accounting path.
  queue_.set_reject_observer([this](const InferRequest& r, double now_s) {
    tracker_.record_rejection(r, now_s);
    if (obs_.trace != nullptr)
      obs_.trace->instant("reject", now_s, /*device=*/-1, /*vn=*/-1,
                          /*model=*/-1, /*arg0=*/r.id);
  });
  // Deadline-aware load shedding (opt-in): requests already past the SLO
  // at admission are bounced at the door rather than queued to a miss.
  if (config_.shed_expired) queue_.set_deadline(config_.deadline_s);
  if (config_.elastic.enabled)
    validate_elastic_policy(config_.elastic, engine_.mapping().total_vns());
}

void Server::set_observability(obs::Observability obs) {
  check(!replayed_, "attach observability before replay()");
  obs_ = obs;
  dispatcher_.set_observability(obs, /*model=*/-1, "serve.");
  tracker_.set_metrics(obs.metrics, "serve.");
}

void Server::set_fault_injector(fault::FaultInjector* injector) {
  check(!replayed_, "attach the fault injector before replay()");
  check(injector == nullptr || config_.continuous,
        "fault injection requires continuous batching "
        "(ServerConfig::continuous) — recovery re-dispatches through the "
        "slot ledger, which batch-boundary mode has no notion of");
  injector_ = injector;
}

void Server::replay(const std::vector<InferRequest>& trace) {
  if (config_.continuous) {
    begin(trace);
    pump(kInf);
    finish();
    return;
  }
  check(!replayed_, "a Server replays exactly one trace");
  replayed_ = true;
  for (std::size_t i = 1; i < trace.size(); ++i)
    check(trace[i - 1].arrival_s <= trace[i].arrival_s,
          "trace must be sorted by arrival time");
  for (const InferRequest& r : trace)
    check(!TokenStreamer::is_stream(r),
          "token streams require continuous batching "
          "(ServerConfig::continuous) — a stream is a slice chain through "
          "a VN slot, which batch-boundary mode has no notion of");
  replay_batch_boundary(trace);
  finish();
}

void Server::set_cluster_governed() {
  check(!replayed_, "switch to cluster governance before replay()/begin()");
  check(config_.continuous,
        "cluster governance requires continuous batching — grants reuse "
        "the seamless slice-level resize path");
  // The ElasticPolicy band parameterizes the load() signal even when the
  // internal loop is off, so it must be coherent regardless of `enabled`.
  validate_elastic_policy(config_.elastic, engine_.mapping().total_vns());
  cluster_governed_ = true;
}

void Server::begin(const std::vector<InferRequest>& trace) {
  check(!replayed_, "a Server replays exactly one trace");
  check(config_.continuous,
        "externally stepped serving requires continuous batching");
  replayed_ = true;
  for (std::size_t i = 1; i < trace.size(); ++i)
    check(trace[i - 1].arrival_s <= trace[i].arrival_s,
          "trace must be sorted by arrival time");
  flight_ = std::make_unique<Flight>(
      trace, engine_.mapping().total_vns(),
      static_cast<std::int64_t>(request_pool_.size()),
      engine_.devices().size());
  flight_->ledger.set_metrics(obs_.metrics, "serve.");
}

void Server::finish() {
  if (finished_) return;
  finished_ = true;
  if (obs_.metrics != nullptr) {
    SloTracker::export_summary(tracker_.summary(), *obs_.metrics, "serve.",
                               clock_);
    obs_.metrics->gauge("serve.devices")
        .set(static_cast<double>(engine_.devices().size()), clock_);
  }
}

double Server::next_event_s() const {
  if (flight_ == nullptr) return kInf;
  return next_event_internal();
}

bool Server::drained() const {
  if (flight_ == nullptr) return false;
  const Flight& f = *flight_;
  return f.next_arrival == f.trace->size() && queue_.empty() &&
         f.ledger.all_free() && !f.streamer.has_paused() &&
         f.continuations.empty();
}

sched::LoadSignal Server::load() const {
  check(flight_ != nullptr, "begin() a trace before reading the load signal");
  const ElasticPolicy& e = config_.elastic;
  sched::LoadSignal s;
  s.queue_depth = queue_.size();
  s.inflight =
      flight_->ledger.inflight_requests() + flight_->streamer.paused_streams();
  s.devices = static_cast<std::int64_t>(engine_.devices().size());
  // Killed devices cap the live ceiling until their recover events lift
  // it — the cluster policy must not re-grow onto hardware that is gone.
  std::int64_t max_dev = e.max_devices;
  if (injector_ != nullptr)
    max_dev = std::max<std::int64_t>(
        1, std::min(max_dev, injector_->capacity_cap(e.max_devices)));
  s.max_devices = max_dev;
  s.min_devices = std::min(e.min_devices, max_dev);
  s.high_watermark = e.high_watermark;
  s.low_watermark = e.low_watermark;
  s.deadline_s = config_.deadline_s;
  if (!queue_.empty())
    s.oldest_wait_s = std::max(0.0, clock_ - queue_.front().enqueued_s());
  s.drained = drained();
  return s;
}

double Server::apply_grant(std::int64_t devices) {
  check(cluster_governed_,
        "apply_grant() requires cluster governance (set_cluster_governed)");
  check(flight_ != nullptr, "begin() a trace before granting devices");
  const auto cur = static_cast<std::int64_t>(engine_.devices().size());
  if (devices == cur) return 0.0;
  check(devices >= 1, "a device grant must keep at least one device");
  check(devices <= engine_.mapping().total_vns(),
        "device grant exceeds the virtual-node count");
  const double before = clock_;
  perform_resize(devices, queue_.size());
  flight_->device_free.assign(engine_.devices().size(), clock_);
  // Arrivals that landed during the migration window queue behind it.
  admit_up_to_clock();
  return clock_ - before;
}

void Server::replay_batch_boundary(const std::vector<InferRequest>& trace) {
  std::size_t next_arrival = 0;
  // Admits every arrival up to the current virtual time, in trace order.
  // Rejections (queue full) happen at the request's own arrival stamp;
  // with shedding on, expired requests bounce at the admission stamp.
  const auto admit_up_to_clock = [&]() {
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival_s <= clock_) {
      if (config_.shed_expired) {
        queue_.push(trace[next_arrival], clock_);
      } else {
        queue_.push(trace[next_arrival]);
      }
      ++next_arrival;
    }
  };

  while (true) {
    admit_up_to_clock();

    const std::int64_t ready = former_.ready_count(queue_, clock_);
    if (ready == 0) {
      // Nothing to form yet: jump to the next event — the oldest queued
      // request's timeout or the next arrival, whichever is earlier.
      double next_t = kInf;
      if (!queue_.empty()) next_t = former_.timeout_deadline_s(queue_);
      if (next_arrival < trace.size())
        next_t = std::min(next_t, trace[next_arrival].arrival_s);
      if (next_t == kInf) break;  // queue drained, trace exhausted
      clock_ = std::max(clock_, next_t);
      continue;
    }

    execute_batch(std::min(ready, engine_.mapping().global_batch()));
    // The batch advanced the clock; admit everything that arrived during
    // its service window so the resize decision sees the true depth (a
    // burst's pressure registers the batch it builds up in, not one
    // batch later).
    admit_up_to_clock();
    batches_.back().queue_depth_after = queue_.size();
    if (obs_.trace != nullptr)
      obs_.trace->set_queue_depth(batches_.back().trace_span,
                                  batches_.back().queue_depth_after);
    maybe_resize();
  }
}

void Server::admit_up_to_clock() {
  Flight& f = *flight_;
  while (f.next_arrival < f.trace->size() &&
         (*f.trace)[f.next_arrival].arrival_s <= clock_) {
    if (config_.shed_expired) {
      queue_.push((*f.trace)[f.next_arrival], clock_);
    } else {
      queue_.push((*f.trace)[f.next_arrival]);
    }
    ++f.next_arrival;
  }
}

// Finalizes the newest slice event's trace span with the queue depth the
// event recorded (a no-op without a recorder or span).
void Server::finalize_span_depth() {
  if (obs_.trace != nullptr)
    obs_.trace->set_queue_depth(batches_.back().trace_span,
                                batches_.back().queue_depth_after);
}

// Completion transition, in (done_s, VN id) order. Classify slices free
// their slot and record their requests; stream slices stamp one token
// and either chain (continuation), retire (last token), or — under
// disaggregated scheduling — yield the slot to a queued prefill at this
// token boundary.
void Server::complete_due() {
  Flight& f = *flight_;
  for (const std::int32_t vn : f.ledger.due(clock_)) {
    if (f.ledger.slot(vn).kind == SliceKind::kClassify) {
      const Slot done = f.ledger.complete(vn);
      record_slice_requests(done, tracker_);
      ++work_since_resize_;
      batches_.push_back(make_slice_event(done, vn, queue_.size()));
      finalize_span_depth();
      continue;
    }
    const bool more = f.streamer.absorb(vn, f.ledger.slot(vn));
    ++work_since_resize_;
    batches_.push_back(make_slice_event(f.ledger.slot(vn), vn, queue_.size()));
    finalize_span_depth();
    if (!more) {
      f.ledger.complete(vn);
      tracker_.record_completion(f.streamer.finish(vn));
    } else if (config_.stream.disaggregate && !f.streamer.has_paused() &&
               f.ledger.lowest_free() < 0 && !queue_.empty() &&
               TokenStreamer::is_stream(queue_.front())) {
      // Token-boundary preemption: every slot is busy and a stream heads
      // the queue — park this stream (at most one parked at a time, so
      // churn stays bounded) and lend its slot to the waiting prefill.
      // Admissions run before resumes within an instant, so the freed
      // slot goes to the queue first and the parked stream takes the
      // next one.
      const Slot freed = f.ledger.complete(vn);
      f.streamer.pause(vn);
      if (obs_.trace != nullptr)
        obs_.trace->instant("preempt", clock_,
                            static_cast<std::int32_t>(freed.device), vn,
                            /*model=*/-1);
      if (obs_.metrics != nullptr)
        obs_.metrics->counter("serve.preemptions").add();
    } else {
      f.continuations.push_back(vn);
    }
  }
}

// Fault transition: fires every injected event due at the current stamp.
// Ordering contract: complete_due runs first within an instant, so a
// slice finishing exactly at a kill's stamp survives (its work is done;
// only un-finished work is on the dead device). A kill evicts the dead
// device's in-flight slices — classify/prefill requests requeue at the
// queue head with honest retry stamps, decode chains park and later
// resume from their last landed token — then remaps its VNs onto the
// survivors through the engine's seamless-migration machinery. Eviction
// matches slices by their dispatch-time device slot; a slice that
// straddled an elastic resize keeps its old slot index (the documented
// approximation — see docs/fault_tolerance.md).
void Server::process_faults_due() {
  if (injector_ == nullptr) return;
  Flight& f = *flight_;
  for (const fault::FaultEvent& ev : injector_->due(clock_)) {
    FaultRecord rec;
    rec.time_s = clock_;
    rec.kind = ev.kind;
    rec.device = ev.device;
    switch (ev.kind) {
      case fault::FaultKind::kKill: {
        const auto ndev = static_cast<std::int64_t>(engine_.devices().size());
        if (ndev <= 1) {
          // The last device cannot die without ending the replay; the
          // kill is skipped (capacity loss reverted) and recorded.
          injector_->kill_skipped();
          rec.skipped = true;
          break;
        }
        const std::int64_t dead = ev.device % ndev;
        rec.device = dead;
        std::vector<InferRequest> requeue;
        for (std::int32_t vn = 0; vn < f.ledger.total_slots(); ++vn) {
          const Slot& s = f.ledger.slot(vn);
          if (!s.busy || s.device != dead) continue;
          // A slice absorbed this instant (pending decode continuation)
          // finished before the kill; its chain re-dispatches on the
          // post-migration mapping below.
          if (std::find(f.continuations.begin(), f.continuations.end(), vn) !=
              f.continuations.end())
            continue;
          Slot evicted = f.ledger.evict(vn);
          ++rec.evicted_slices;
          if (evicted.kind == SliceKind::kClassify) {
            for (InferRequest& r : evicted.requests) {
              r.queue_wait_accum_s += evicted.dispatch_s - r.enqueued_s();
              ++r.retries;
              requeue.push_back(std::move(r));
            }
          } else if (evicted.kind == SliceKind::kPrefill) {
            // No token landed yet: abort the stream and requeue the
            // request; its next prefill restarts the chain.
            InferRequest r = f.streamer.cancel(vn);
            r.queue_wait_accum_s += evicted.dispatch_s - r.enqueued_s();
            ++r.retries;
            requeue.push_back(std::move(r));
          } else {
            // Decode chain with landed tokens: never recompute them —
            // park the stream; resume re-dispatches only the lost token.
            f.streamer.mark_retry(vn);
            f.streamer.pause(vn);
          }
        }
        // VN remap onto the survivors (the paper's fault story §7),
        // charged to the serving clock like any elastic migration.
        const double before = engine_.sim_time_s();
        engine_.fail_device(dead);
        const double migration = engine_.sim_time_s() - before;
        clock_ += migration;
        rec.migration_s = migration;
        rec.requeued_requests = static_cast<std::int64_t>(requeue.size());
        // Requeue at the head, lowest id first (in-flight requests are
        // always older than anything queued, so FIFO order is restored).
        std::sort(requeue.begin(), requeue.end(),
                  [](const InferRequest& a, const InferRequest& b) {
                    return a.id < b.id;
                  });
        for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
          it->requeue_s = clock_;
          queue_.push_front(*it);
        }
        f.device_free.assign(engine_.devices().size(), clock_);
        // The migration landed the VNs on fresh slots; re-apply any
        // straggler windows still active.
        injector_->apply_slowdowns(engine_);
        work_since_resize_ = 0;
        ResizeEvent rev;
        rev.time_s = clock_;
        rev.from_devices = ndev;
        rev.to_devices = ndev - 1;
        rev.queue_depth = queue_.size();
        rev.migration_s = migration;
        resizes_.push_back(rev);
        if (obs_.metrics != nullptr) {
          obs_.metrics->counter("serve.faults.requeued").add(rec.requeued_requests);
          obs_.metrics->gauge("serve.devices")
              .set(static_cast<double>(ndev - 1), clock_);
        }
        break;
      }
      case fault::FaultKind::kRecover:
        // Capacity returns to the elastic budget (capacity_cap); the
        // resize rule re-grows on observed load, not on the event. Under
        // cluster governance the recover lifts the lease's advertised
        // ceiling (load()), and the next policy grant re-expands.
        break;
      case fault::FaultKind::kStragglerStart:
      case fault::FaultKind::kStragglerEnd:
        injector_->apply_slowdowns(engine_);
        break;
      case fault::FaultKind::kCommFault:
        // One-shot; consumed by the next dispatch (with_comm_fault).
        break;
    }
    faults_.push_back(rec);
  }
}

// Resize decisions use the same hysteresis as batch mode, and the
// resize itself is as seamless as the paper's: in-flight slices keep
// the completion times the old mapping scheduled for them (compute is
// never interrupted), while the migration charge lands on the clock and
// so on every *subsequent* dispatch — the new device set starts clean
// once the all-gather is done.
//
// Under cluster governance the local rule is disabled outright: the
// ClusterController owns the device count and the same signals flow to
// it through load() instead (elastic_resize_target demoted to one input
// of the policy's desired-size derivation).
void Server::resize_if_needed() {
  if (cluster_governed_) return;
  Flight& f = *flight_;
  const ElasticPolicy& e = config_.elastic;
  if (!e.enabled) return;
  if (work_since_resize_ < e.cooldown_batches) return;
  const std::int64_t depth = queue_.size();
  const auto cur = static_cast<std::int64_t>(engine_.devices().size());
  // The shared hysteresis rule (src/sched/elastic.h) acts on *system*
  // load — queue plus in-flight — in both directions: the queue empties
  // the instant a burst is admitted into slots, so depth alone both
  // shrinks too eagerly and (the PR-6 blind spot) fails to grow while
  // every slot saturates under a shallow queue. Parked streams count as
  // in-flight: each holds an un-served request that is merely between
  // slots.
  // Killed devices are budget loss: the elastic ceiling drops by the
  // capacity currently dead (floored at min_devices), so the rule
  // degrades gracefully instead of re-growing onto hardware that is
  // gone, and re-expands when a recover lifts the cap.
  std::int64_t max_dev = e.max_devices;
  if (injector_ != nullptr)
    max_dev = std::max(e.min_devices,
                       std::min(max_dev, injector_->capacity_cap(e.max_devices)));
  const std::int64_t target = sched::elastic_resize_target(
      depth, f.ledger.inflight_requests() + f.streamer.paused_streams(), cur,
      e.high_watermark, e.low_watermark, e.min_devices, max_dev);
  if (target == cur) return;
  perform_resize(target, depth);
  f.device_free.assign(engine_.devices().size(), clock_);
  // Arrivals that landed during the migration window queue behind it.
  admit_up_to_clock();
}

// Admit transition: fill free slots (lowest VN id first) from the FIFO
// prefix. A stream admits alone — one prefill slice claims the whole
// slot. Classify requests pool into slices as before: a slice
// dispatches when a full slice's worth is waiting, when the oldest
// request has timed out, or when a queued stream blocks the prefix (the
// classify prefix is then complete by definition — FIFO order never
// lets a classify slice jump over a stream).
void Server::try_dispatch() {
  Flight& f = *flight_;
  while (!queue_.empty()) {
    const std::int32_t vn = f.ledger.lowest_free();
    if (vn < 0) break;
    if (TokenStreamer::is_stream(queue_.front())) {
      std::vector<InferRequest> one = queue_.pop(1);
      Slot slot = f.streamer.prefill(dispatcher_, vn, clock_, f.device_free,
                                     std::move(one.front()));
      f.ledger.admit(vn, with_comm_fault(std::move(slot), injector_));
      continue;
    }
    const std::int64_t cap = engine_.mapping().vn_batch(vn);
    std::int64_t prefix = 0;
    while (prefix < queue_.size() && prefix < cap &&
           !TokenStreamer::is_stream(queue_.at(prefix)))
      ++prefix;
    const bool full_slice = prefix >= cap || prefix < queue_.size();
    const bool timed_out =
        clock_ >= queue_.front().arrival_s + config_.batch.max_wait_s;
    if (!full_slice && !timed_out) break;
    Slot slot =
        dispatcher_.dispatch_classify(vn, clock_, f.device_free, queue_.pop(prefix));
    f.ledger.admit(vn, with_comm_fault(std::move(slot), injector_));
  }
}

// Chain transition: swap each finished stream slice for its next decode
// slice in the same (still busy) slot.
void Server::readmit_continuations() {
  Flight& f = *flight_;
  for (const std::int32_t vn : f.continuations) {
    Slot slot = f.streamer.next_decode(dispatcher_, vn, clock_, f.device_free);
    f.ledger.readmit(vn, with_comm_fault(std::move(slot), injector_));
  }
  f.continuations.clear();
}

// Un-park transition: paused streams take free slots left over after
// admissions (disaggregated mode only; FIFO never pauses).
void Server::try_resumes() {
  Flight& f = *flight_;
  while (f.streamer.has_paused()) {
    const std::int32_t vn = f.ledger.lowest_free();
    if (vn < 0) break;
    Slot slot = f.streamer.resume(dispatcher_, vn, clock_, f.device_free);
    f.ledger.admit(vn, with_comm_fault(std::move(slot), injector_));
  }
}

// Next event: earliest in-flight completion, next arrival, or — when
// a partial classify slice is waiting on a free slot — the oldest
// request's timeout. (A stream at the head of the queue needs no
// timeout term: it is always dispatchable, so if it is still queued
// here there is no free slot and a completion must come first.)
double Server::next_event_internal() const {
  const Flight& f = *flight_;
  double next_t = f.ledger.earliest_done_s();
  if (f.next_arrival < f.trace->size())
    next_t = std::min(next_t, (*f.trace)[f.next_arrival].arrival_s);
  if (!queue_.empty() && !TokenStreamer::is_stream(queue_.front()) &&
      f.ledger.lowest_free() >= 0)
    next_t = std::min(next_t,
                      queue_.front().arrival_s + config_.batch.max_wait_s);
  if (injector_ != nullptr) next_t = std::min(next_t, injector_->next_event_s());
  return next_t;
}

void Server::pump(double horizon_s) {
  check(flight_ != nullptr, "begin() a trace before pump()");
  while (true) {
    admit_up_to_clock();
    complete_due();
    // Faults after completions at the same stamp: a slice finishing
    // exactly when its device dies has already finished.
    process_faults_due();
    resize_if_needed();
    if (config_.stream.disaggregate) {
      // Admission-class work first (that is the point of preemption),
      // then decode chains, then parked streams into leftover slots.
      try_dispatch();
      readmit_continuations();
      try_resumes();
    } else {
      // FIFO: running streams chain ahead of new admissions and nothing
      // is ever preemption-parked — a stream holds its slot from prefill
      // to last token. A device kill can still park decode chains, so
      // resumes run here too (a no-op without faults).
      readmit_continuations();
      try_dispatch();
      try_resumes();
    }
    const double next_t = next_event_internal();
    if (next_t == kInf) break;  // ledger idle, queue drained, trace exhausted
    if (next_t > horizon_s) break;  // next event beyond this pump's horizon
    clock_ = std::max(clock_, next_t);
  }
  // A bounded pump leaves the clock at its horizon so the next load()
  // snapshot and grant charge from a consistent stamp.
  if (horizon_s < kInf && clock_ < horizon_s) clock_ = horizon_s;
}

void Server::execute_batch(std::int64_t take) {
  BatchEvent ev =
      dispatcher_.run_formed_batch(queue_, former_, tracker_, clock_, take);
  clock_ = ev.finish_s;
  ++work_since_resize_;
  batches_.push_back(ev);
}

void Server::maybe_resize() {
  const ElasticPolicy& e = config_.elastic;
  if (!e.enabled) return;
  if (work_since_resize_ < e.cooldown_batches) return;

  const std::int64_t depth = queue_.size();
  const auto cur = static_cast<std::int64_t>(engine_.devices().size());
  // Batch-boundary decision points have nothing in flight (the batch
  // barrier just drained), so the shared rule sees inflight = 0.
  const std::int64_t target = sched::elastic_resize_target(
      depth, /*inflight=*/0, cur, e.high_watermark, e.low_watermark,
      e.min_devices, e.max_devices);
  if (target == cur) return;
  perform_resize(target, depth);
}

void Server::perform_resize(std::int64_t target, std::int64_t depth) {
  // The engine charges the seamless all-gather migration to its own
  // simulated clock; serving requests queue behind it on ours.
  const auto cur = static_cast<std::int64_t>(engine_.devices().size());
  const double before = engine_.sim_time_s();
  engine_.resize(make_devices(config_.elastic.device, target));
  const double migration = engine_.sim_time_s() - before;
  clock_ += migration;

  ResizeEvent ev;
  ev.time_s = clock_;
  ev.from_devices = cur;
  ev.to_devices = target;
  ev.queue_depth = depth;
  ev.migration_s = migration;
  resizes_.push_back(ev);
  work_since_resize_ = 0;

  // The elastic_resize_target decision, marked on the control track and
  // counted by direction; the devices gauge tracks the set's size over
  // virtual time.
  if (obs_.trace != nullptr)
    obs_.trace->instant("resize", clock_, /*device=*/-1, /*vn=*/-1,
                        /*model=*/-1, /*arg0=*/cur, /*arg1=*/target,
                        /*arg_s=*/migration);
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter(target > cur ? "serve.resizes.grow"
                                       : "serve.resizes.shrink")
        .add();
    obs_.metrics->gauge("serve.devices").set(static_cast<double>(target), clock_);
  }
}

}  // namespace vf::serve
