#include "serve/colocation.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "device/spec.h"
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
  const DeviceType type = registry_.engine(0).devices().front().type;
  for (std::int32_t m = 0; m < registry_.size(); ++m) {
    const std::vector<Device>& devices = registry_.engine(m).devices();
    check(static_cast<std::int64_t>(devices.size()) == shared,
          "co-located engines must start on identical device counts (model " +
              std::to_string(m) + " differs); they share one device set");
    for (const Device& d : devices)
      check(d.type == type, "co-located engines must all run one device type (model " +
                                std::to_string(m) + " differs); a resize keeps it");
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

  // Drop accounting lives at each model's backpressure point: the queue
  // reports every dropped request straight to the model's tracker (and a
  // "reject" marker). models_ never resizes after this loop, so indexing
  // through `this` stays valid.
  for (std::int32_t m = 0; m < registry_.size(); ++m) {
    models_[static_cast<std::size_t>(m)].queue.set_reject_observer(
        [this, m](const InferRequest& r, double now_s) {
          models_[static_cast<std::size_t>(m)].tracker.record_rejection(r, now_s);
          if (obs_.trace != nullptr)
            obs_.trace->instant("reject", now_s, /*device=*/-1, /*vn=*/-1,
                                label(m), /*arg0=*/r.id);
        });
  }
}

void ColocatedServer::set_observability(obs::Observability obs) {
  check(!replayed_, "attach observability before replay()");
  obs_ = obs;
  share_gauges_.clear();
  for (std::int32_t m = 0; m < static_cast<std::int32_t>(models_.size()); ++m) {
    ModelState& st = models_[static_cast<std::size_t>(m)];
    const std::string prefix = metrics_prefix(m);
    st.dispatcher.set_observability(obs, label(m), prefix);
    st.tracker.set_metrics(obs.metrics, prefix);
    // Slot counters only where a ledger runs; one model reports no share
    // gauges (Server's instruments).
    if (config_.continuous) st.ledger.set_metrics(obs.metrics, prefix);
    if (obs.metrics != nullptr && !one_model())
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

std::string ColocatedServer::metrics_prefix(std::int32_t m) const {
  return one_model() ? "serve." : "serve." + registry_.config(m).name + ".";
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

void ColocatedServer::replay(std::span<const std::vector<InferRequest>> traces) {
  open(traces);
  if (config_.continuous) {
    pump(kInf);
  } else {
    replay_batch_boundary();
  }
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

void ColocatedServer::begin(std::span<const std::vector<InferRequest>> traces) {
  check(config_.continuous, "externally stepped serving requires continuous batching");
  open(traces);
}

void ColocatedServer::open(std::span<const std::vector<InferRequest>> traces) {
  check(!replayed_, "a server replays exactly one trace set");
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
      check(config_.continuous || !TokenStreamer::is_stream(r),
            "token streams require continuous batching — a stream is a slice "
            "chain through a VN slot, which batch-boundary mode has no notion of");
    traces_.emplace_back(trace);
  }
  device_free_.assign(static_cast<std::size_t>(shared_devices()), 0.0);
}

void ColocatedServer::finish() {
  if (finished_) return;
  finished_ = true;
  if (obs_.metrics == nullptr) return;
  for (std::int32_t m = 0; m < static_cast<std::int32_t>(models_.size()); ++m) {
    const std::string prefix = metrics_prefix(m);
    SloTracker::export_summary(models_[static_cast<std::size_t>(m)].tracker.summary(),
                               *obs_.metrics, prefix, clock_);
    if (!one_model())
      obs_.metrics->gauge(prefix + "device_seconds").set(device_time_used(m), clock_);
  }
  obs_.metrics->gauge("serve.devices").set(static_cast<double>(shared_devices()), clock_);
}

double ColocatedServer::next_event_s() const {
  if (traces_.empty()) return kInf;
  if (!kept_next_) return next_event_internal();
  const double next = with_faults(*kept_next_);
#ifndef NDEBUG
  // Stale-stamp tripwire: the kept stamp must equal a full scan, or the
  // pump's skip would jump over an event.
  check(next == next_event_internal(), [&] {
    return "kept next-event stamp " + std::to_string(next) + " differs from the scan's " +
           std::to_string(next_event_internal()) + " at clock " + std::to_string(clock_);
  });
#endif
  return next;
}

bool ColocatedServer::drained() const {
  if (traces_.empty()) return false;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelState& st = models_[m];
    if (st.next_arrival != traces_[m].size() || !st.queue.empty() ||
        !st.ledger.all_free() || st.streamer.has_paused() ||
        !st.continuations.empty())
      return false;
  }
  return true;
}

sched::LoadSignal ColocatedServer::load() const {
  check(!traces_.empty(), "begin() traces before reading the load signal");
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
  s.max_devices = device_ceiling();
  s.min_devices = std::min(e.min_devices, s.max_devices);
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
  check(!traces_.empty(), "begin() traces before granting devices");
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
  perform_resize(devices);
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
    const std::span<const InferRequest> trace = traces_[m];
    const bool was_idle = st.queue.empty() && st.ledger.all_free() &&
                          !st.streamer.has_paused();
    bool admitted = false;
    while (st.next_arrival < trace.size() &&
           trace[st.next_arrival].arrival_s <= clock_) {
      st.queue.push(trace[st.next_arrival]);
      ++st.next_arrival;
      admitted = true;
    }
    // A shedding model drops its expired head at the clock, so no request
    // already past its SLO dispatches to a guaranteed miss.
    const ModelConfig& mc = registry_.config(static_cast<std::int32_t>(m));
    if (mc.shed_expired) st.queue.shed_expired(clock_, mc.deadline_s);
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
  const std::int64_t ceiling = device_ceiling();
  const std::int64_t target = sched::elastic_resize_target(
      depth, combined_inflight, cur, e.high_watermark, e.low_watermark,
      std::min(e.min_devices, ceiling), ceiling);
  if (target != cur) perform_resize(target);
}

std::int64_t ColocatedServer::device_ceiling() const {
  const std::int64_t max_dev = config_.elastic.max_devices;
  if (injector_ == nullptr) return max_dev;
  return std::max<std::int64_t>(1, std::min(max_dev, injector_->capacity_cap(max_dev)));
}

void ColocatedServer::perform_resize(std::int64_t target) {
  const std::int64_t cur = shared_devices();
  std::vector<std::int64_t> backlog;
  for (const ModelState& st : models_) backlog.push_back(st.queue.size());
  const double migration = cut_over(target, /*dead=*/-1, backlog);
  if (obs_.trace != nullptr)
    obs_.trace->instant("resize", clock_, /*device=*/-1, /*vn=*/-1,
                        /*model=*/-1, /*arg0=*/cur, /*arg1=*/target,
                        /*arg_s=*/migration);
  if (obs_.metrics != nullptr)
    obs_.metrics->counter(target > cur ? "serve.resizes.grow" : "serve.resizes.shrink")
        .add();
}

double ColocatedServer::cut_over(std::int64_t to_devices, std::int64_t dead,
                                 const std::vector<std::int64_t>& backlog) {
  const std::int64_t from = shared_devices();
  // Deepest backlog first (it is the model the change exists for), model
  // id breaking ties — a pure function of replay state, so the cutover
  // sequence is part of the determinism contract.
  std::vector<std::int32_t> order(models_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const std::int64_t qa = backlog[static_cast<std::size_t>(a)];
    const std::int64_t qb = backlog[static_cast<std::size_t>(b)];
    return qa != qb ? qa > qb : a < b;
  });
  // The state all-gathers share the links, so the charges serialize —
  // after any cutover still pending — but each model's NEW dispatches
  // resume the moment ITS state has landed. The mapping itself switches
  // now; in-flight slices keep their old schedules (seamless).
  double base = clock_;
  for (const double ready : dispatch_ready_) base = std::max(base, ready);
  double migration = 0.0;
  for (const std::int32_t m : order) {
    VirtualFlowEngine& eng = registry_.engine(m);
    const double before = eng.sim_time_s();
    if (dead >= 0) {
      eng.fail_device(dead);
    } else {
      eng.resize(make_devices(eng.devices().front().type, to_devices));
    }
    migration += eng.sim_time_s() - before;
    dispatch_ready_[static_cast<std::size_t>(m)] = base + migration;
    if (obs_.trace != nullptr)
      obs_.trace->instant("cutover", base + migration, /*device=*/-1, /*vn=*/-1, label(m));
  }
  device_free_.assign(static_cast<std::size_t>(shared_devices()), clock_);
  work_since_resize_ = 0;
  kept_next_.reset();  // the cutover moved stamps the kept one was taken from

  ResizeEvent ev;
  ev.time_s = base + migration;  // shared set fully live
  ev.from_devices = from;
  ev.to_devices = to_devices;
  ev.queue_depth = std::accumulate(backlog.begin(), backlog.end(), std::int64_t{0});
  ev.migration_s = migration;
  resizes_.push_back(ev);
  if (obs_.metrics != nullptr)
    obs_.metrics->gauge("serve.devices").set(static_cast<double>(to_devices), clock_);
  return migration;
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
    BatchEvent ev = make_slice_event(st.ledger.slot(vn), vn, st.queue.size());
    ev.model = label(m);
    batches_.push_back(ev);
    finalize_span_depth();
    ++work_since_resize_;
    if (st.ledger.slot(vn).kind == SliceKind::kClassify) {
      record_slice_requests(st.ledger.complete(vn), st.tracker);
      continue;
    }
    // Stream slice: stamp one token off the finished slice, then chain,
    // retire, or yield the slot at this token boundary.
    const bool more = st.streamer.absorb(vn, st.ledger.slot(vn));
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
                            static_cast<std::int32_t>(freed.device), vn, label(m));
      if (obs_.metrics != nullptr)
        obs_.metrics->counter(metrics_prefix(m) + "preemptions").add();
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

double ColocatedServer::dispatch_stamp(std::int32_t m) const {
  const ModelState& st = models_[static_cast<std::size_t>(m)];
  if (st.queue.empty()) return kInf;
  bool full;
  if (config_.continuous) {
    const std::int32_t vn = st.ledger.lowest_free();
    if (vn < 0) return kInf;
    const std::int64_t cap = registry_.engine(m).mapping().vn_batch(vn);
    const std::int64_t prefix = classify_prefix(st, cap);
    // A stream head has an empty classify prefix, which stops short of
    // the queue: it is full, like a slice that fills the VN.
    full = prefix >= cap || prefix < st.queue.size();
  } else {
    full = st.queue.size() >= st.former.policy().max_batch;
  }
  const double cutover = dispatch_ready_[static_cast<std::size_t>(m)];
  return full ? cutover : std::max(st.former.timeout_deadline_s(st.queue), cutover);
}

// Strict < keeps the lowest model id on key ties (scan order). The key's
// sum order is part of the determinism contract; batch-boundary mode
// never charges the ledger, so there it adds 0.0 to the deadline key.
std::int32_t ColocatedServer::next_dispatch() const {
  std::int32_t best = -1;
  double best_key = kInf;
  for (std::int32_t m = 0; m < num_models(); ++m) {
    if (dispatch_stamp(m) > clock_) continue;
    const auto i = static_cast<std::size_t>(m);
    const double key = models_[i].queue.front().arrival_s +
                       registry_.config(m).deadline_s + share_time_[i];
    if (key < best_key) {
      best_key = key;
      best = m;
    }
  }
  return best;
}

// Claims slots in arbiter order while any model can dispatch. The VN-id
// part of the order comes free: within a model, lowest_free() claims
// ascending VN ids.
void ColocatedServer::try_dispatch() {
  for (std::int32_t m = next_dispatch(); m >= 0; m = next_dispatch()) dispatch_slice(m);
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
// EVERY model — classify/prefill requests requeue at the queue head with
// honest retry stamps, decode chains park and later resume from their
// last landed token — then remaps each engine's VNs onto the survivors
// through cut_over, the requeues counting toward the backlog order. The
// requeues are stamped at the kill (the clock); they dispatch again from
// their model's cutover stamp. Eviction matches slices by their
// dispatch-time device slot; a slice that straddled an elastic resize
// keeps its old slot index (see docs/fault_tolerance.md).
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
          // The last device cannot die without ending the replay; the
          // kill is skipped (capacity loss reverted) and recorded.
          injector_->kill_skipped();
          rec.skipped = true;
          break;
        }
        const std::int64_t dead = ev.device % ndev;
        rec.device = dead;
        std::vector<std::vector<InferRequest>> requeue(models_.size());
        std::vector<std::int64_t> backlog(models_.size());
        for (std::size_t m = 0; m < models_.size(); ++m) {
          ModelState& st = models_[m];
          for (std::int32_t vn = 0; vn < st.ledger.total_slots(); ++vn) {
            const Slot& s = st.ledger.slot(vn);
            if (!s.busy || s.device != dead) continue;
            // A slice absorbed this instant (pending decode chain)
            // finished before the kill; it re-dispatches after cutover.
            if (st.pending_chain[static_cast<std::size_t>(vn)]) continue;
            Slot evicted = st.ledger.evict(vn);
            ++rec.evicted_slices;
            if (evicted.kind == SliceKind::kDecode) {
              // Never recompute landed tokens: park the chain; its resume
              // re-dispatches only the lost token.
              st.streamer.mark_retry(vn);
              st.streamer.pause(vn);
              continue;
            }
            // Classify requests requeue as they were; a prefill landed no
            // token yet, so its stream aborts and the request requeues (its
            // next prefill restarts the chain).
            std::vector<InferRequest> lost;
            if (evicted.kind == SliceKind::kPrefill) {
              lost.push_back(st.streamer.cancel(vn));
            } else {
              lost = std::move(evicted.requests);
            }
            for (InferRequest& r : lost) {
              r.queue_wait_accum_s += evicted.dispatch_s - r.enqueued_s();
              ++r.retries;
              requeue[m].push_back(std::move(r));
            }
          }
          rec.requeued_requests += static_cast<std::int64_t>(requeue[m].size());
          backlog[m] = st.queue.size() + static_cast<std::int64_t>(requeue[m].size());
        }
        rec.migration_s = cut_over(ndev - 1, dead, backlog);
        for (std::size_t m = 0; m < models_.size(); ++m) {
          // Requeue at the head, lowest id first (in-flight requests are
          // always older than anything queued, so FIFO order is restored).
          std::vector<InferRequest>& rq = requeue[m];
          std::sort(rq.begin(), rq.end(), [](const InferRequest& a, const InferRequest& b) {
            return a.id < b.id;
          });
          for (auto it = rq.rbegin(); it != rq.rend(); ++it) {
            it->requeue_s = clock_;
            models_[m].queue.push_front(*it);
          }
          // The remap landed the VNs on fresh slots; re-apply any
          // straggler windows still active.
          injector_->apply_slowdowns(registry_.engine(static_cast<std::int32_t>(m)));
        }
        if (obs_.metrics != nullptr)
          obs_.metrics->counter("serve.faults.requeued").add(rec.requeued_requests);
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

// Called after the dispatch phases, every term lies ahead of the clock:
// a stamp at or before it would have been consumed, so the loop always
// advances.
double ColocatedServer::next_model_event() const {
  double next_t = kInf;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ModelState& st = models_[m];
    // Earliest in-flight completion, excluding slots already absorbed
    // into a deferred decode chain (pending_chain): their done_s is
    // stale — at or before the clock — and their real next event is the
    // cutover stamp added below. Counting them would pin the horizon at
    // the clock and livelock the loop.
    for (std::int32_t vn = 0; vn < st.ledger.total_slots(); ++vn) {
      const Slot& s = st.ledger.slot(vn);
      if (s.busy && !st.pending_chain[static_cast<std::size_t>(vn)])
        next_t = std::min(next_t, s.done_s);
    }
    if (st.next_arrival < traces_[m].size())
      next_t = std::min(next_t, traces_[m][st.next_arrival].arrival_s);
    const double ready = dispatch_ready_[m];
    if (ready > clock_ && (!st.continuations.empty() ||
                           (st.streamer.has_paused() && st.ledger.lowest_free() >= 0)))
      next_t = std::min(next_t, ready);
    next_t = std::min(next_t, dispatch_stamp(static_cast<std::int32_t>(m)));
  }
  return next_t;
}

double ColocatedServer::with_faults(double t) const {
  return injector_ == nullptr ? t : std::min(t, injector_->next_event_s());
}

bool ColocatedServer::sheds_at_clock() const {
  for (std::size_t m = 0; m < models_.size(); ++m)
    if (registry_.config(static_cast<std::int32_t>(m)).shed_expired &&
        !models_[m].queue.empty())
      return true;
  return false;
}

void ColocatedServer::pump(double horizon_s) {
  check(!traces_.empty(), "begin() traces before pump()");
  check(horizon_s == kInf || cluster_governed_,
        "a finite pump horizon requires cluster governance (set_cluster_governed): "
        "the self-driven elastic rule reads the clock between events");
  if (kept_next_ && !sheds_at_clock()) {
    // Nothing moved since the last pump's final iteration, so an iteration
    // at the clock would find nothing due: start at the kept stamp, or
    // only move the clock when the stamp lies past the horizon.
    const double next_t = next_event_s();
    if (next_t == kInf || next_t > horizon_s) {
      if (horizon_s < kInf) clock_ = std::max(clock_, horizon_s);
      return;
    }
    clock_ = std::max(clock_, next_t);
  }
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
    kept_next_ = next_model_event();
    const double next_t = with_faults(*kept_next_);
    if (next_t == kInf) break;  // ledgers idle, queues drained, traces done
    if (next_t > horizon_s) break;  // next event beyond this pump's horizon
    clock_ = std::max(clock_, next_t);
  }
  // A bounded pump leaves the clock at its horizon so the next load()
  // snapshot and grant charge from a consistent stamp.
  if (horizon_s < kInf && clock_ < horizon_s) clock_ = horizon_s;
}

// The same arbiter picks whole formed batches; each runs on the FULL
// shared device set, so batches of different models serialize.
void ColocatedServer::replay_batch_boundary() {
  while (true) {
    admit_up_to_clock();
    const std::int32_t m = next_dispatch();
    if (m < 0) {
      // Nothing ready: no slot, chain or fault injector is live in this
      // mode, so the next event is a dispatch stamp or an arrival.
      const double next_t = next_event_internal();
      if (next_t == kInf) break;  // queues drained, traces exhausted
      clock_ = std::max(clock_, next_t);
      continue;
    }
    ModelState& st = models_[static_cast<std::size_t>(m)];
    const std::int64_t take =
        std::min({st.queue.size(), st.former.policy().max_batch,
                  registry_.engine(m).mapping().global_batch()});
    BatchEvent ev =
        st.dispatcher.run_formed_batch(st.queue, st.former, st.tracker, clock_, take);
    clock_ = ev.finish_s;
    ++work_since_resize_;
    ev.model = label(m);
    batches_.push_back(ev);
    // Admit the service window's arrivals before recording depth and
    // deciding elasticity, so a burst's pressure registers the batch it
    // builds up in, not one batch later.
    admit_up_to_clock();
    batches_.back().queue_depth_after = st.queue.size();
    finalize_span_depth();
    resize_if_needed(/*combined_inflight=*/0);
  }
}

}  // namespace vf::serve
