#include "serve/colocation.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "sched/elastic.h"
#include "util/common.h"

namespace vf::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// ---- ModelRegistry ---------------------------------------------------------

std::int32_t ModelRegistry::add(VirtualFlowEngine& engine, const Dataset& request_pool,
                                ModelConfig config) {
  for (const Entry& e : entries_)
    check(e.engine != &engine,
          "an engine registers at most once (its virtual nodes are one "
          "model's identity)");
  check(config.queue_capacity > 0, "model queue capacity must be positive");
  check(config.deadline_s > 0.0, "model deadline must be positive");
  check(config.share > 0.0, "model share weight must be positive");
  Entry e;
  e.engine = &engine;
  e.pool = &request_pool;
  e.config = std::move(config);
  entries_.push_back(std::move(e));
  return static_cast<std::int32_t>(entries_.size() - 1);
}

VirtualFlowEngine& ModelRegistry::engine(std::int32_t m) const {
  check_index(m, size(), "model");
  return *entries_[static_cast<std::size_t>(m)].engine;
}

const Dataset& ModelRegistry::pool(std::int32_t m) const {
  check_index(m, size(), "model");
  return *entries_[static_cast<std::size_t>(m)].pool;
}

const ModelConfig& ModelRegistry::config(std::int32_t m) const {
  check_index(m, size(), "model");
  return entries_[static_cast<std::size_t>(m)].config;
}

// ---- ColocatedServer -------------------------------------------------------

ColocatedServer::ColocatedServer(ModelRegistry& registry, ColocationConfig config)
    : registry_(registry), config_(std::move(config)) {
  check(registry_.size() >= 1, "co-location needs at least one registered model");

  const auto shared = static_cast<std::int64_t>(registry_.engine(0).devices().size());
  for (std::int32_t m = 0; m < registry_.size(); ++m) {
    check(static_cast<std::int64_t>(registry_.engine(m).devices().size()) == shared,
          "co-located engines must start on identical device counts (model " +
              std::to_string(m) + " differs); they share one device set");
  }

  if (config_.elastic.enabled) validate_elastic_policy(config_.elastic, min_vns());

  models_.reserve(static_cast<std::size_t>(registry_.size()));
  double total_share = 0.0;
  for (std::int32_t m = 0; m < registry_.size(); ++m) {
    const ModelConfig& mc = registry_.config(m);
    models_.emplace_back(registry_.engine(m), registry_.pool(m), mc);
    total_share += mc.share;
  }
  dispatch_ready_.assign(models_.size(), 0.0);
  share_weight_.resize(models_.size());
  for (std::int32_t m = 0; m < registry_.size(); ++m)
    share_weight_[static_cast<std::size_t>(m)] =
        registry_.config(m).share / total_share;
  share_time_.assign(models_.size(), 0.0);
  device_seconds_.assign(models_.size(), 0.0);

  // Drop accounting lives at each model's backpressure point, exactly as
  // in the single-model server. models_ never resizes after this loop, so
  // indexing through `this` stays valid.
  for (std::int32_t m = 0; m < registry_.size(); ++m) {
    models_[static_cast<std::size_t>(m)].queue.set_reject_observer(
        [this, m](const InferRequest& r, double now_s) {
          models_[static_cast<std::size_t>(m)].tracker.record_rejection(r, now_s);
          if (obs_.trace != nullptr)
            obs_.trace->instant("reject", now_s, /*device=*/-1, /*vn=*/-1,
                                m, /*arg0=*/r.id);
        });
    if (registry_.config(m).shed_expired)
      models_[static_cast<std::size_t>(m)].queue.set_deadline(
          registry_.config(m).deadline_s);
  }
}

void ColocatedServer::set_observability(obs::Observability obs) {
  check(!replayed_, "attach observability before replay()");
  obs_ = obs;
  share_gauges_.clear();
  for (std::int32_t m = 0; m < static_cast<std::int32_t>(models_.size()); ++m) {
    ModelState& st = models_[static_cast<std::size_t>(m)];
    const std::string prefix = "serve." + registry_.config(m).name + ".";
    st.dispatcher.set_observability(obs, m, prefix);
    st.tracker.set_metrics(obs.metrics, prefix);
    st.ledger.set_metrics(obs.metrics, prefix);
    if (obs.metrics != nullptr)
      share_gauges_.push_back(&obs.metrics->gauge(prefix + "share_vtime"));
  }
}

void ColocatedServer::set_fault_injector(fault::FaultInjector* injector) {
  check(!replayed_, "attach the fault injector before replay()");
  check(injector == nullptr || config_.continuous,
        "fault injection requires continuous batching (recovery re-dispatches "
        "at slice granularity)");
  injector_ = injector;
}

std::int64_t ColocatedServer::min_vns() const {
  std::int64_t vns = registry_.engine(0).mapping().total_vns();
  for (std::int32_t m = 1; m < registry_.size(); ++m)
    vns = std::min(vns, registry_.engine(m).mapping().total_vns());
  return vns;
}

std::int64_t ColocatedServer::shared_devices() const {
  return static_cast<std::int64_t>(registry_.engine(0).devices().size());
}

const SloTracker& ColocatedServer::slo(std::int32_t m) const {
  // Bounds come from models_, the state frozen at construction — the
  // registry object could have grown since (see the replay() check).
  check_index(m, static_cast<std::int64_t>(models_.size()), "model");
  return models_[static_cast<std::size_t>(m)].tracker;
}

const RequestQueue& ColocatedServer::queue(std::int32_t m) const {
  check_index(m, static_cast<std::int64_t>(models_.size()), "model");
  return models_[static_cast<std::size_t>(m)].queue;
}

double ColocatedServer::device_time_used(std::int32_t m) const {
  check_index(m, static_cast<std::int64_t>(models_.size()), "model");
  return device_seconds_[static_cast<std::size_t>(m)];
}

void ColocatedServer::replay(const std::vector<std::vector<InferRequest>>& traces) {
  if (config_.continuous) {
    begin(traces);
    pump(kInf);
    finish();
    traces_ = nullptr;
    return;
  }
  check(!replayed_, "a ColocatedServer replays exactly one trace set");
  replayed_ = true;
  check(registry_.size() == static_cast<std::int64_t>(models_.size()),
        "the registry grew after this server was built (it serves the " +
            std::to_string(models_.size()) + " models registered at construction)");
  check(traces.size() == models_.size(),
        "one trace per registered model (got " + std::to_string(traces.size()) +
            ", registry holds " + std::to_string(models_.size()) + ")");
  for (const auto& trace : traces) {
    for (std::size_t i = 1; i < trace.size(); ++i)
      check(trace[i - 1].arrival_s <= trace[i].arrival_s,
            "each trace must be sorted by arrival time");
    for (const InferRequest& r : trace)
      check(!TokenStreamer::is_stream(r),
            "token streams require continuous batching "
            "(ColocationConfig::continuous)");
  }
  traces_ = &traces;
  replay_batch_boundary();
  traces_ = nullptr;
  finish();
}

void ColocatedServer::set_cluster_governed() {
  check(!replayed_, "switch to cluster governance before replay()/begin()");
  check(config_.continuous,
        "cluster governance requires continuous batching — grants reuse "
        "the rolling slice-level migration path");
  // The ElasticPolicy band parameterizes the load() signal even when the
  // internal loop is off, so it must be coherent regardless of `enabled`.
  validate_elastic_policy(config_.elastic, min_vns());
  cluster_governed_ = true;
}

void ColocatedServer::begin(const std::vector<std::vector<InferRequest>>& traces) {
  check(!replayed_, "a ColocatedServer replays exactly one trace set");
  check(config_.continuous,
        "externally stepped serving requires continuous batching");
  replayed_ = true;
  check(registry_.size() == static_cast<std::int64_t>(models_.size()),
        "the registry grew after this server was built (it serves the " +
            std::to_string(models_.size()) + " models registered at construction)");
  check(traces.size() == models_.size(),
        "one trace per registered model (got " + std::to_string(traces.size()) +
            ", registry holds " + std::to_string(models_.size()) + ")");
  for (const auto& trace : traces)
    for (std::size_t i = 1; i < trace.size(); ++i)
      check(trace[i - 1].arrival_s <= trace[i].arrival_s,
            "each trace must be sorted by arrival time");
  traces_ = &traces;
  device_free_.assign(static_cast<std::size_t>(shared_devices()), 0.0);
}

void ColocatedServer::finish() {
  if (finished_) return;
  finished_ = true;
  if (obs_.metrics != nullptr) {
    for (std::int32_t m = 0; m < static_cast<std::int32_t>(models_.size()); ++m) {
      const ModelState& st = models_[static_cast<std::size_t>(m)];
      const std::string prefix = "serve." + registry_.config(m).name + ".";
      SloTracker::export_summary(st.tracker.summary(), *obs_.metrics, prefix,
                                 clock_);
      obs_.metrics->gauge(prefix + "device_seconds")
          .set(device_time_used(m), clock_);
    }
    obs_.metrics->gauge("serve.devices")
        .set(static_cast<double>(shared_devices()), clock_);
  }
}

double ColocatedServer::next_event_s() const {
  if (traces_ == nullptr) return kInf;
  return next_event_internal();
}

bool ColocatedServer::drained() const {
  if (traces_ == nullptr) return false;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelState& st = models_[m];
    if (st.next_arrival != (*traces_)[m].size() || !st.queue.empty() ||
        !st.ledger.all_free() || st.streamer.has_paused() ||
        !st.continuations.empty())
      return false;
  }
  return true;
}

sched::LoadSignal ColocatedServer::load() const {
  check(traces_ != nullptr, "begin() traces before reading the load signal");
  const ElasticPolicy& e = config_.elastic;
  sched::LoadSignal s;
  // The co-located set is sized as one unit, so the signal is combined:
  // total backlog, total in-flight — and the SLO terms come from the
  // model under the worst RELATIVE deadline pressure (oldest wait divided
  // by its own deadline), which is the tenant a size decision must save.
  double worst_pressure = -1.0;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelState& st = models_[m];
    s.queue_depth += st.queue.size();
    s.inflight += st.ledger.inflight_requests() + st.streamer.paused_streams();
    const double deadline =
        registry_.config(static_cast<std::int32_t>(m)).deadline_s;
    const double wait =
        st.queue.empty() ? 0.0
                         : std::max(0.0, clock_ - st.queue.front().enqueued_s());
    if (deadline > 0.0 && wait / deadline > worst_pressure) {
      worst_pressure = wait / deadline;
      s.oldest_wait_s = wait;
      s.deadline_s = deadline;
    }
  }
  s.devices = shared_devices();
  std::int64_t max_dev = e.max_devices;
  if (injector_ != nullptr)
    max_dev = std::max<std::int64_t>(
        1, std::min(max_dev, injector_->capacity_cap(e.max_devices)));
  s.max_devices = max_dev;
  s.min_devices = std::min(e.min_devices, max_dev);
  s.high_watermark = e.high_watermark;
  s.low_watermark = e.low_watermark;
  s.drained = drained();
  // A rolling migration is atomic: until the last model has cut over, the
  // set is not resizable, so the band collapses to the current size. The
  // cluster policy can then only re-grant the size we already are (a
  // no-op), never interleave a second migration schedule.
  if (migration_in_progress()) s.min_devices = s.max_devices = s.devices;
  return s;
}

double ColocatedServer::apply_grant(std::int64_t devices) {
  check(cluster_governed_,
        "apply_grant() requires cluster governance (set_cluster_governed)");
  check(traces_ != nullptr, "begin() traces before granting devices");
  const std::int64_t cur = shared_devices();
  if (devices == cur) return 0.0;
  check(devices >= 1, "a device grant must keep at least one device");
  for (std::int32_t m = 0; m < registry_.size(); ++m)
    check(devices <= registry_.engine(m).mapping().total_vns(),
          "device grant exceeds model " + std::to_string(m) +
              "'s virtual-node count");
  // A rolling migration is atomic; a grant mid-cutover would interleave
  // two migration schedules. load() collapses the [min, max] band to the
  // current size while cutting over, so a correct policy can only re-grant
  // the current size (the no-op early return above) until the last model
  // has cut over — reaching here mid-migration means a buggy policy.
  check(!migration_in_progress(),
        "device grant while a rolling migration is still cutting over");
  std::int64_t depth = 0;
  for (const ModelState& st : models_) depth += st.queue.size();
  perform_resize(devices, depth);
  device_free_.assign(static_cast<std::size_t>(shared_devices()), clock_);
  return resizes_.back().migration_s;
}

void ColocatedServer::charge(std::int32_t m, double compute_s) {
  const auto i = static_cast<std::size_t>(m);
  global_vtime_ = std::max(global_vtime_, share_time_[i]);
  share_time_[i] += compute_s / share_weight_[i];
  device_seconds_[i] += compute_s;
  // The arbiter key's share-debt term over virtual time: the gauge pair
  // (value, stamp) plots each model's weighted consumption, which is where
  // share starvation shows up first.
  if (!share_gauges_.empty()) share_gauges_[i]->set(share_time_[i], clock_);
}

std::int64_t ColocatedServer::classify_prefix(const ModelState& st,
                                              std::int64_t cap) const {
  std::int64_t prefix = 0;
  while (prefix < st.queue.size() && prefix < cap &&
         !TokenStreamer::is_stream(st.queue.at(prefix)))
    ++prefix;
  return prefix;
}

void ColocatedServer::admit_up_to_clock() {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelState& st = models_[m];
    const auto& trace = (*traces_)[m];
    const bool was_idle = st.queue.empty() && st.ledger.all_free() &&
                          !st.streamer.has_paused();
    bool admitted = false;
    const bool shed = registry_.config(static_cast<std::int32_t>(m)).shed_expired;
    while (st.next_arrival < trace.size() &&
           trace[st.next_arrival].arrival_s <= clock_) {
      // Shedding models stamp admission at the loop's clock so a request
      // already past its SLO is bounced, not queued to a guaranteed miss.
      if (shed)
        st.queue.push(trace[st.next_arrival], clock_);
      else
        st.queue.push(trace[st.next_arrival]);
      ++st.next_arrival;
      admitted = true;
    }
    // Re-activation: a fully idle model's share debt snaps up to the
    // system virtual time, so a model cannot bank device-time credit by
    // idling and then starve its co-tenants with a stale (low) debt.
    if (was_idle && admitted)
      share_time_[m] = std::max(share_time_[m], global_vtime_);
  }
}

bool ColocatedServer::migration_in_progress() const {
  for (const double ready : dispatch_ready_)
    if (ready > clock_) return true;
  return false;
}

void ColocatedServer::resize_if_needed(std::int64_t combined_inflight) {
  // Under cluster governance the ClusterController owns the size of the
  // shared set; the same signals flow to it through load().
  if (cluster_governed_) return;
  const ElasticPolicy& e = config_.elastic;
  if (!e.enabled) return;
  if (work_since_resize_ < e.cooldown_batches) return;
  // A rolling migration is atomic: no new decision until the last model
  // has cut over to the current target.
  if (migration_in_progress()) return;
  // The shared budget reacts to the COMBINED system load: the sum of every
  // model's backlog plus every model's in-flight requests, in both
  // directions — one bursting model is enough to grow the set all models
  // run on, which is the whole point of co-locating.
  std::int64_t depth = 0;
  for (const ModelState& st : models_) depth += st.queue.size();
  const std::int64_t cur = shared_devices();
  // Killed devices shrink the elastic budget until their recover events
  // lift the cap — growth cannot resurrect lost capacity.
  std::int64_t max_dev = e.max_devices;
  if (injector_ != nullptr)
    max_dev = std::max(e.min_devices,
                       std::min(max_dev, injector_->capacity_cap(e.max_devices)));
  const std::int64_t target = sched::elastic_resize_target(
      depth, combined_inflight, cur, e.high_watermark, e.low_watermark,
      e.min_devices, max_dev);
  if (target == cur) return;
  perform_resize(target, depth);
  device_free_.assign(static_cast<std::size_t>(shared_devices()), clock_);
}

void ColocatedServer::perform_resize(std::int64_t target, std::int64_t depth) {
  const std::int64_t cur = shared_devices();

  // Rolling migration order: deepest backlog first (it is the model the
  // resize exists for), model id breaking ties — a pure function of
  // replay state, so the cutover sequence is part of the determinism
  // contract.
  std::vector<std::int32_t> order(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m)
    order[m] = static_cast<std::int32_t>(m);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const std::int64_t qa = models_[static_cast<std::size_t>(a)].queue.size();
    const std::int64_t qb = models_[static_cast<std::size_t>(b)].queue.size();
    if (qa != qb) return qa > qb;
    return a < b;
  });

  // The state all-gathers share the links, so the charges serialize; but
  // each model's NEW dispatches resume the moment ITS state has landed —
  // the urgent (deepest-backlog) model pays only the price a dedicated
  // server would have charged it. The mapping itself switches now;
  // in-flight slices keep their old schedules (seamless), and a deferred
  // decode chain resumes at its model's cutover stamp.
  double migration = 0.0;
  for (const std::int32_t m : order) {
    VirtualFlowEngine& eng = registry_.engine(m);
    const double before = eng.sim_time_s();
    eng.resize(make_devices(config_.elastic.device, target));
    migration += eng.sim_time_s() - before;
    dispatch_ready_[static_cast<std::size_t>(m)] = clock_ + migration;
    // Rolling migration: one "cutover" marker per model at its
    // dispatch-resume stamp, in cutover (deepest-backlog-first) order.
    if (obs_.trace != nullptr)
      obs_.trace->instant("cutover", clock_ + migration, /*device=*/-1,
                          /*vn=*/-1, m);
  }

  ResizeEvent ev;
  ev.time_s = clock_ + migration;  // shared set fully live
  ev.from_devices = cur;
  ev.to_devices = target;
  ev.queue_depth = depth;
  ev.migration_s = migration;
  resizes_.push_back(ev);
  work_since_resize_ = 0;

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

void ColocatedServer::dispatch_slice(std::int32_t m) {
  ModelState& st = models_[static_cast<std::size_t>(m)];
  const std::int32_t vn = st.ledger.lowest_free();
  if (TokenStreamer::is_stream(st.queue.front())) {
    std::vector<InferRequest> one = st.queue.pop(1);
    Slot slot = with_comm_fault(
        st.streamer.prefill(st.dispatcher, vn, clock_, device_free_,
                            std::move(one.front())),
        injector_);
    charge(m, slot.compute_s);
    st.ledger.admit(vn, std::move(slot));
    return;
  }
  const std::int64_t cap = registry_.engine(m).mapping().vn_batch(vn);
  const std::int64_t prefix = classify_prefix(st, cap);
  Slot slot = with_comm_fault(
      st.dispatcher.dispatch_classify(vn, clock_, device_free_, st.queue.pop(prefix)),
      injector_);
  charge(m, slot.compute_s);
  st.ledger.admit(vn, std::move(slot));
}

// Finalizes the newest slice event's trace span: post-admission queue
// depth (the dispatcher stamped the model already).
void ColocatedServer::finalize_span_depth() {
  if (obs_.trace != nullptr)
    obs_.trace->set_queue_depth(batches_.back().trace_span,
                                batches_.back().queue_depth_after);
}

// Completion transition: across ALL models, process every slot due at
// the current clock in (done_s, model id, VN id) order — the canonical
// multi-model completion order. Slots awaiting a deferred decode
// continuation (pending_chain) were already absorbed and are skipped.
void ColocatedServer::complete_due() {
  std::vector<std::tuple<double, std::int32_t, std::int32_t>> due;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelState& st = models_[m];
    for (const std::int32_t vn : st.ledger.due(clock_)) {
      if (st.pending_chain[static_cast<std::size_t>(vn)]) continue;
      due.emplace_back(st.ledger.slot(vn).done_s, static_cast<std::int32_t>(m), vn);
    }
  }
  std::sort(due.begin(), due.end());
  for (const auto& [done_s, m, vn] : due) {
    static_cast<void>(done_s);
    ModelState& st = models_[static_cast<std::size_t>(m)];
    if (st.ledger.slot(vn).kind == SliceKind::kClassify) {
      const Slot done = st.ledger.complete(vn);
      record_slice_requests(done, st.tracker);
      ++work_since_resize_;
      BatchEvent ev = make_slice_event(done, vn, st.queue.size());
      ev.model = m;
      batches_.push_back(ev);
      finalize_span_depth();
      continue;
    }
    // Stream slice: stamp one token off the finished slice, then chain,
    // retire, or yield the slot at this token boundary.
    const bool more = st.streamer.absorb(vn, st.ledger.slot(vn));
    ++work_since_resize_;
    BatchEvent ev = make_slice_event(st.ledger.slot(vn), vn, st.queue.size());
    ev.model = m;
    batches_.push_back(ev);
    finalize_span_depth();
    if (!more) {
      st.ledger.complete(vn);
      st.tracker.record_completion(st.streamer.finish(vn));
    } else if (config_.stream.disaggregate &&
               clock_ >= dispatch_ready_[static_cast<std::size_t>(m)] &&
               !st.streamer.has_paused() && st.ledger.lowest_free() < 0 &&
               !st.queue.empty() &&
               TokenStreamer::is_stream(st.queue.front())) {
      // Token-boundary preemption, per model: every slot of THIS model
      // is busy and a stream heads its queue — park the chain (at most
      // one parked per model) and lend the slot to the waiting prefill.
      const Slot freed = st.ledger.complete(vn);
      st.streamer.pause(vn);
      if (obs_.trace != nullptr)
        obs_.trace->instant("preempt", clock_,
                            static_cast<std::int32_t>(freed.device), vn, m);
      if (obs_.metrics != nullptr)
        obs_.metrics->counter("serve." + registry_.config(m).name +
                              ".preemptions")
            .add();
    } else {
      st.continuations.push_back(vn);
      st.pending_chain[static_cast<std::size_t>(vn)] = 1;
    }
  }
}

// Chain transition: swap finished stream slices for their next decode
// slices, model-id order, completion order within a model. Gated on the
// model's cutover stamp — a chain stalls while its model's state is
// mid-migration and resumes at dispatch_ready_.
void ColocatedServer::readmit_continuations() {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelState& st = models_[m];
    if (st.continuations.empty() || clock_ < dispatch_ready_[m]) continue;
    for (const std::int32_t vn : st.continuations) {
      Slot next = with_comm_fault(
          st.streamer.next_decode(st.dispatcher, vn, clock_, device_free_), injector_);
      charge(static_cast<std::int32_t>(m), next.compute_s);
      st.ledger.readmit(vn, std::move(next));
      st.pending_chain[static_cast<std::size_t>(vn)] = 0;
    }
    st.continuations.clear();
  }
}

// The share-weighted deadline arbiter: while any model has a
// dispatchable slice (free slot + stream at the head, full classify
// prefix, or timed-out oldest request), claim slots in ascending
// (deadline key + share debt, model id, VN id) order. Under contention
// the debt term dominates — an over-served model's key drifts up and it
// yields — fixing the small-batch starvation the deadline-only arbiter
// had. The VN-id part comes free: within a model, lowest_free() claims
// ascending VN ids.
void ColocatedServer::try_dispatch() {
  for (;;) {
    std::int32_t best = -1;
    double best_key = kInf;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& st = models_[m];
      if (clock_ < dispatch_ready_[m]) continue;  // still cutting over
      if (st.queue.empty()) continue;
      const std::int32_t vn = st.ledger.lowest_free();
      if (vn < 0) continue;
      const ModelConfig& mc = registry_.config(static_cast<std::int32_t>(m));
      bool dispatchable;
      if (TokenStreamer::is_stream(st.queue.front())) {
        dispatchable = true;  // a prefill admits alone, always ready
      } else {
        const std::int64_t cap =
            registry_.engine(static_cast<std::int32_t>(m)).mapping().vn_batch(vn);
        const std::int64_t prefix = classify_prefix(st, cap);
        const bool full_slice = prefix >= cap || prefix < st.queue.size();
        const bool timed_out =
            clock_ >= st.queue.front().arrival_s + mc.batch.max_wait_s;
        dispatchable = full_slice || timed_out;
      }
      if (!dispatchable) continue;
      // Strict < keeps the lowest model id on key ties (scan order).
      const double key = st.queue.front().arrival_s + mc.deadline_s +
                         share_time_[m];
      if (key < best_key) {
        best_key = key;
        best = static_cast<std::int32_t>(m);
      }
    }
    if (best < 0) break;
    dispatch_slice(best);
  }
}

// Un-park transition: paused streams take free slots left over after
// admissions, least share debt first (model id tie-break by the strict
// <). A paused stream only fits its own model's slots.
void ColocatedServer::try_resumes() {
  for (;;) {
    std::int32_t best = -1;
    double best_key = kInf;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& st = models_[m];
      if (clock_ < dispatch_ready_[m]) continue;
      if (!st.streamer.has_paused()) continue;
      if (st.ledger.lowest_free() < 0) continue;
      if (share_time_[m] < best_key) {
        best_key = share_time_[m];
        best = static_cast<std::int32_t>(m);
      }
    }
    if (best < 0) break;
    ModelState& st = models_[static_cast<std::size_t>(best)];
    const std::int32_t vn = st.ledger.lowest_free();
    Slot slot = with_comm_fault(
        st.streamer.resume(st.dispatcher, vn, clock_, device_free_), injector_);
    charge(best, slot.compute_s);
    st.ledger.admit(vn, std::move(slot));
  }
}

// Fault transition: fires every injected event due at the current stamp
// (complete_due first — a slice finishing exactly at a kill's stamp
// survives). A kill tears the dead device slot's in-flight slices off
// EVERY model with the single-model Server's per-kind recovery
// (classify/prefill requeue with honest retry stamps, decode chains park
// and resume from their last landed token), then remaps each engine's
// VNs onto the survivors as a ROLLING migration: the fail_device
// all-gathers serialize deepest-backlog-first (model id tie-break, like
// perform_resize), each model's new dispatches resuming at its own
// cutover stamp — on top of any cutover stamps still pending from an
// in-progress elastic migration, which is why the base is the max of the
// clock and the existing dispatch_ready_ horizon.
void ColocatedServer::process_faults_due() {
  if (injector_ == nullptr) return;
  for (const fault::FaultEvent& ev : injector_->due(clock_)) {
    FaultRecord rec;
    rec.time_s = clock_;
    rec.kind = ev.kind;
    rec.device = ev.device;
    switch (ev.kind) {
      case fault::FaultKind::kKill: {
        const std::int64_t ndev = shared_devices();
        if (ndev <= 1) {
          injector_->kill_skipped();
          rec.skipped = true;
          break;
        }
        const std::int64_t dead = ev.device % ndev;
        rec.device = dead;
        std::int64_t depth = 0;
        for (std::size_t m = 0; m < models_.size(); ++m) {
          ModelState& st = models_[m];
          std::vector<InferRequest> requeue;
          for (std::int32_t vn = 0; vn < st.ledger.total_slots(); ++vn) {
            const Slot& s = st.ledger.slot(vn);
            if (!s.busy || s.device != dead) continue;
            // A slice absorbed this instant (pending decode chain)
            // finished before the kill; it re-dispatches after cutover.
            if (st.pending_chain[static_cast<std::size_t>(vn)]) continue;
            Slot evicted = st.ledger.evict(vn);
            ++rec.evicted_slices;
            if (evicted.kind == SliceKind::kClassify) {
              for (InferRequest& r : evicted.requests) {
                r.queue_wait_accum_s += evicted.dispatch_s - r.enqueued_s();
                ++r.retries;
                requeue.push_back(std::move(r));
              }
            } else if (evicted.kind == SliceKind::kPrefill) {
              InferRequest r = st.streamer.cancel(vn);
              r.queue_wait_accum_s += evicted.dispatch_s - r.enqueued_s();
              ++r.retries;
              requeue.push_back(std::move(r));
            } else {
              st.streamer.mark_retry(vn);
              st.streamer.pause(vn);
            }
          }
          rec.requeued_requests += static_cast<std::int64_t>(requeue.size());
          std::sort(requeue.begin(), requeue.end(),
                    [](const InferRequest& a, const InferRequest& b) {
                      return a.id < b.id;
                    });
          for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
            it->requeue_s = clock_;
            st.queue.push_front(*it);
          }
          depth += st.queue.size();
        }

        // Rolling VN remap, deepest combined backlog first.
        std::vector<std::int32_t> order(models_.size());
        for (std::size_t m = 0; m < models_.size(); ++m)
          order[m] = static_cast<std::int32_t>(m);
        std::sort(order.begin(), order.end(),
                  [&](std::int32_t a, std::int32_t b) {
                    const std::int64_t qa =
                        models_[static_cast<std::size_t>(a)].queue.size();
                    const std::int64_t qb =
                        models_[static_cast<std::size_t>(b)].queue.size();
                    if (qa != qb) return qa > qb;
                    return a < b;
                  });
        double base = clock_;
        for (const double ready : dispatch_ready_)
          base = std::max(base, ready);
        double migration = 0.0;
        for (const std::int32_t m : order) {
          VirtualFlowEngine& eng = registry_.engine(m);
          const double before = eng.sim_time_s();
          eng.fail_device(dead);
          migration += eng.sim_time_s() - before;
          dispatch_ready_[static_cast<std::size_t>(m)] = base + migration;
          if (obs_.trace != nullptr)
            obs_.trace->instant("cutover", base + migration, /*device=*/-1,
                                /*vn=*/-1, m);
        }
        rec.migration_s = migration;
        device_free_.assign(static_cast<std::size_t>(shared_devices()), clock_);
        for (std::size_t m = 0; m < models_.size(); ++m)
          injector_->apply_slowdowns(registry_.engine(static_cast<std::int32_t>(m)));
        work_since_resize_ = 0;
        ResizeEvent rev;
        rev.time_s = base + migration;
        rev.from_devices = ndev;
        rev.to_devices = ndev - 1;
        rev.queue_depth = depth;
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
        // Capacity returns to the shared elastic budget (capacity_cap);
        // the resize rule re-grows on observed load, not on the event.
        break;
      case fault::FaultKind::kStragglerStart:
      case fault::FaultKind::kStragglerEnd:
        for (std::size_t m = 0; m < models_.size(); ++m)
          injector_->apply_slowdowns(registry_.engine(static_cast<std::int32_t>(m)));
        break;
      case fault::FaultKind::kCommFault:
        // One-shot; consumed by the next dispatch (with_comm_fault).
        break;
    }
    faults_.push_back(rec);
  }
}

// Next event over all models: earliest in-flight completion, next
// arrival, a deferred decode chain's cutover stamp, a parked stream's
// resume opportunity, or — where a partial classify slice waits on a
// free slot — the oldest request's timeout. Terms at or before the
// clock denote states the dispatch phases have already consumed, so
// the pump loop always advances.
double ColocatedServer::next_event_internal() const {
  double next_t = kInf;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelState& st = models_[m];
    // Earliest in-flight completion, excluding slots already absorbed
    // into a deferred decode chain (pending_chain): their done_s is
    // stale — at or before the clock — and their real next event is the
    // cutover stamp added below. Reading them through earliest_done_s()
    // would pin the horizon at the clock and livelock the loop.
    for (std::int32_t vn = 0; vn < st.ledger.total_slots(); ++vn) {
      const Slot& s = st.ledger.slot(vn);
      if (s.busy && !st.pending_chain[static_cast<std::size_t>(vn)])
        next_t = std::min(next_t, s.done_s);
    }
    const auto& trace = (*traces_)[m];
    if (st.next_arrival < trace.size())
      next_t = std::min(next_t, trace[st.next_arrival].arrival_s);
    if (!st.continuations.empty())
      next_t = std::min(next_t, dispatch_ready_[m]);
    if (st.streamer.has_paused() && st.ledger.lowest_free() >= 0)
      next_t = std::min(next_t, dispatch_ready_[m]);
    if (!st.queue.empty() && st.ledger.lowest_free() >= 0) {
      if (TokenStreamer::is_stream(st.queue.front())) {
        // A gated prefill fires at the cutover stamp; ungated it would
        // have been admitted already.
        next_t = std::min(next_t, dispatch_ready_[m]);
      } else {
        const std::int64_t cap = registry_.engine(static_cast<std::int32_t>(m))
                                     .mapping()
                                     .vn_batch(st.ledger.lowest_free());
        const std::int64_t prefix = classify_prefix(st, cap);
        const bool full_slice = prefix >= cap || prefix < st.queue.size();
        const double timeout =
            st.queue.front().arrival_s +
            registry_.config(static_cast<std::int32_t>(m)).batch.max_wait_s;
        const double t = full_slice
                             ? dispatch_ready_[m]
                             : std::max(timeout, dispatch_ready_[m]);
        next_t = std::min(next_t, t);
      }
    }
  }
  if (injector_ != nullptr) next_t = std::min(next_t, injector_->next_event_s());
  return next_t;
}

void ColocatedServer::pump(double horizon_s) {
  check(traces_ != nullptr, "begin() traces before pump()");
  while (true) {
    admit_up_to_clock();
    complete_due();
    process_faults_due();
    std::int64_t inflight = 0;
    for (const ModelState& st : models_)
      inflight += st.ledger.inflight_requests() + st.streamer.paused_streams();
    resize_if_needed(inflight);
    if (config_.stream.disaggregate) {
      // Admission-class work first (the point of disaggregation), then
      // decode chains, then parked streams into leftover slots.
      try_dispatch();
      readmit_continuations();
      try_resumes();
    } else {
      readmit_continuations();
      try_dispatch();
      // A kill can park decode chains even in FIFO mode (no-op without
      // faults: nothing pauses streams otherwise).
      try_resumes();
    }
    const double next_t = next_event_internal();
    if (next_t == kInf) break;  // ledgers idle, queues drained, traces done
    if (next_t > horizon_s) break;  // next event beyond this pump's horizon
    clock_ = std::max(clock_, next_t);
  }
  // A bounded pump leaves the clock at its horizon so the next load()
  // snapshot and grant charge from a consistent stamp.
  if (horizon_s < kInf && clock_ < horizon_s) clock_ = horizon_s;
}

void ColocatedServer::execute_model_batch(std::int32_t m, std::int64_t take) {
  ModelState& st = models_[static_cast<std::size_t>(m)];
  BatchEvent ev =
      st.dispatcher.run_formed_batch(st.queue, st.former, st.tracker, clock_, take);
  clock_ = ev.finish_s;
  ++work_since_resize_;
  ev.model = m;
  batches_.push_back(ev);
}

void ColocatedServer::replay_batch_boundary() {
  while (true) {
    admit_up_to_clock();

    // Deadline-ordered batch arbitration: among models whose former says
    // a batch is ready, serve the one whose oldest request's deadline is
    // earliest (model id breaks ties); each batch runs on the FULL shared
    // device set, so batches of different models serialize. (The
    // share-weighted arbiter is a continuous-mode feature; this baseline
    // stays deadline-only.)
    std::int32_t best = -1;
    double best_key = kInf;
    std::int64_t best_take = 0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& st = models_[m];
      if (clock_ < dispatch_ready_[m]) continue;  // still cutting over
      const std::int64_t ready = st.former.ready_count(st.queue, clock_);
      if (ready == 0) continue;
      const ModelConfig& mc = registry_.config(static_cast<std::int32_t>(m));
      const double key = st.queue.front().arrival_s + mc.deadline_s;
      if (key < best_key) {
        best_key = key;
        best = static_cast<std::int32_t>(m);
        best_take = std::min(
            ready,
            registry_.engine(static_cast<std::int32_t>(m)).mapping().global_batch());
      }
    }

    if (best >= 0) {
      execute_model_batch(best, best_take);
      // Admit the service window's arrivals before recording depth and
      // deciding elasticity, exactly like the single-model server.
      admit_up_to_clock();
      batches_.back().queue_depth_after =
          models_[static_cast<std::size_t>(best)].queue.size();
      resize_if_needed(/*combined_inflight=*/0);
      continue;
    }

    // Nothing ready: jump to the next event — a queued model's timeout
    // (no earlier than its cutover stamp) or the next arrival of any
    // model.
    double next_t = kInf;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const ModelState& st = models_[m];
      if (!st.queue.empty()) {
        const double formable =
            st.former.ready_count(st.queue, clock_) > 0
                ? dispatch_ready_[m]  // gated batch fires at cutover
                : std::max(st.former.timeout_deadline_s(st.queue),
                           dispatch_ready_[m]);
        next_t = std::min(next_t, formable);
      }
      const auto& trace = (*traces_)[m];
      if (st.next_arrival < trace.size())
        next_t = std::min(next_t, trace[st.next_arrival].arrival_s);
    }
    if (next_t == kInf) break;  // queues drained, traces exhausted
    clock_ = std::max(clock_, next_t);
  }
}

}  // namespace vf::serve
