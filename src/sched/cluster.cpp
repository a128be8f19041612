#include "sched/cluster.h"

#include <algorithm>
#include <limits>

#include "sched/elastic.h"
#include "sched/throughput.h"
#include "util/common.h"

namespace vf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// An analytic job whose remaining work is below this is finished.
constexpr double kStepEps = 1e-6;
// Event budget of one run; exceeding it means a policy/lease livelock,
// which fails loudly instead of spinning.
constexpr std::int64_t kMaxEvents = 2'000'000;

std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::max(lo, std::min(hi, v));
}

// The spec checks every training tenant passes, analytic or leased.
void check_train_spec(const JobSpec& spec, const char* caller) {
  check(spec.kind == JobKind::kTrain,
        [&] { return std::string(caller) + " needs a kTrain spec"; });
  check(spec.total_steps > 0, "training job needs total_steps > 0");
  check(spec.demand_gpus > 0, "training job needs demand_gpus > 0");
  check(spec.global_batch > 0, "training job needs global_batch > 0");
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterController
// ---------------------------------------------------------------------------

ClusterController::ClusterController(ClusterInventory cluster, Scheduler& policy)
    : cluster_(std::move(cluster)), policy_(policy) {
  check(cluster_.total() > 0, "cluster inventory is empty");
}

void ClusterController::set_observability(obs::Observability obs) {
  obs_ = obs;
  events_counter_ =
      obs.metrics != nullptr ? &obs.metrics->counter("sched.events") : nullptr;
  idle_pumps_counter_ =
      obs.metrics != nullptr ? &obs.metrics->counter("sched.idle_pumps") : nullptr;
}

void ClusterController::Tenant::set_alloc(Allocation a) {
  counts = {};
  devices = 0;
  for (const auto& [type, count] : a.per_type) {
    counts[static_cast<std::size_t>(type)] = count;
    devices += count;
  }
  state.alloc = std::move(a);
}

void ClusterController::add_tenant(JobSpec spec, sched::DeviceLease* lease) {
  check(!ran_, "cannot add jobs after run()");
  check(spec.arrival_s >= 0.0, "job arrival must be >= 0");
  for (const Tenant& t : tenants_) {
    check(t.state.spec.id != spec.id,
          [&] { return "duplicate job id " + std::to_string(spec.id); });
  }
  Tenant t;
  t.state.spec = std::move(spec);
  t.state.remaining_steps = static_cast<double>(t.state.spec.total_steps);
  t.lease = lease;
  t.step_time_s = kInf;
  if (!t.state.is_serve()) {
    // A function of the spec alone: computed once here, not per event.
    t.reference_tput =
        reference_throughput(t.state.spec.profile, t.state.spec.global_batch);
  }
  tenants_.push_back(std::move(t));
}

void ClusterController::add_train_job(JobSpec spec) {
  check_train_spec(spec, "add_train_job");
  add_tenant(std::move(spec), nullptr);
}

void ClusterController::add_serve_job(JobSpec spec, sched::DeviceLease& lease) {
  check(spec.kind == JobKind::kServe, "add_serve_job needs a kServe spec");
  check(spec.min_gpus >= 1, "serving job needs min_gpus >= 1");
  check(spec.max_gpus >= spec.min_gpus, "serving job needs max_gpus >= min_gpus");
  add_tenant(std::move(spec), &lease);
}

void ClusterController::add_train_lease(JobSpec spec, sched::DeviceLease& lease) {
  check_train_spec(spec, "add_train_lease");
  add_tenant(std::move(spec), &lease);
}

void ClusterController::advance_analytic(double now, double t_next) {
  const double dt_total = t_next - now;
  if (dt_total <= 0.0) return;
  for (Tenant& t : tenants_) {
    if (t.lease != nullptr) continue;
    JobState& js = t.state;
    if (js.finished() || t.devices == 0) continue;
    const double start = std::max(now, js.pause_until_s);
    const double dt = t_next - start;
    if (dt <= 0.0) continue;
    const double steps = dt / t.step_time_s;
    js.remaining_steps -= steps;
    const double tput = static_cast<double>(js.spec.global_batch) / t.step_time_s;
    js.attained_service += dt * tput / t.reference_tput;
    if (js.remaining_steps <= kStepEps) {
      // Done: the devices return to the pool at the completion stamp.
      js.remaining_steps = 0.0;
      js.completion_s = t_next;
      close_segment(t, t_next);
      t.set_alloc({});
      t.step_time_s = kInf;
    }
  }
}

void ClusterController::close_segment(Tenant& t, double now) {
  if (t.open_since_s >= 0.0 && now > t.open_since_s && t.devices > 0) {
    t.state.timeline.push_back({t.open_since_s, now, t.state.alloc});
  }
  t.open_since_s = -1.0;
}

void ClusterController::refresh_from_leases(double now) {
  for (Tenant& t : tenants_) {
    if (t.lease == nullptr || t.retired || t.state.finished()) continue;
    if (!t.state.arrived(now)) continue;
    JobState& js = t.state;
    if (!js.is_serve()) {
      const sched::LoadSignal sig = t.lease->load();
      js.remaining_steps = std::max(0.0, static_cast<double>(sig.queue_depth));
      // Attained service in the same normalized units analytic jobs use,
      // so LAS-style policies rank live engines against them.
      const double done =
          static_cast<double>(js.spec.total_steps) - js.remaining_steps;
      if (t.step_time_s < kInf && t.step_time_s > 0.0) {
        const double tput =
            static_cast<double>(js.spec.global_batch) / t.step_time_s;
        js.attained_service = done * t.step_time_s * tput / t.reference_tput;
      }
      continue;
    }
    // Serving: the whole point of the refactor. The lease reports facts;
    // the controller turns them into the policy-facing demand.
    const sched::LoadSignal sig = t.lease->load();
    // The live band intersects the spec's band with the lease's: the
    // lease's max caps both sides (fault kills shrink capacity), and its
    // min floors them (a mid-cutover rolling migration reports
    // min == max == devices, pinning the set until the cutover lands).
    js.live_min_gpus = std::max<std::int64_t>(
        1, std::min(std::max(js.spec.min_gpus, sig.min_devices),
                    sig.max_devices));
    js.live_max_gpus =
        std::max(js.live_min_gpus, std::min(js.spec.max_gpus, sig.max_devices));
    std::int64_t desired = sched::elastic_resize_target(
        sig.queue_depth, sig.inflight, sig.devices, sig.high_watermark,
        sig.low_watermark, js.live_min_gpus, js.live_max_gpus);
    js.slo_pressure =
        sig.deadline_s > 0.0 ? sig.oldest_wait_s / sig.deadline_s : 0.0;
    if (js.slo_pressure > 1.0) {
      // The oldest request has already blown its deadline: doubling one
      // step at a time would pay a migration per doubling while the
      // backlog keeps aging, so ask for the whole band ceiling at once.
      desired = js.live_max_gpus;
    } else if (js.slo_pressure > 0.5) {
      // Deadline pressure overrides hysteresis: the oldest request has
      // burned half its SLO budget, so ask for double the devices now
      // rather than waiting for the watermark to trip.
      desired = std::max(desired, std::min(js.live_max_gpus, sig.devices * 2));
    }
    js.desired_gpus = clamp64(desired, js.live_min_gpus, js.live_max_gpus);
    // Reconcile the recorded allocation with the lease's actual device
    // count — a fault kill shrinks the set without any grant being issued.
    if (sig.devices != t.devices && t.devices > 0) {
      const DeviceType pool = js.alloc.per_type.begin()->first;
      close_segment(t, now);
      t.set_alloc(Allocation::of(pool, sig.devices));
      t.open_since_s = now;
    }
  }
}

double ClusterController::next_event(double now) {
  double t_next = kInf;
  for (Tenant& t : tenants_) {
    const JobState& js = t.state;
    if (js.finished() || t.retired) continue;
    if (!js.arrived(now)) {
      t_next = std::min(t_next, js.spec.arrival_s);
      continue;
    }
    if (t.lease != nullptr) {
      t.lease_next_s = t.lease->next_event_s();
      if (t.lease_next_s < kInf) t_next = std::min(t_next, std::max(t.lease_next_s, now));
      continue;
    }
    if (t.devices > 0 && t.step_time_s < kInf) {
      const double start = std::max(now, js.pause_until_s);
      t_next = std::min(t_next, start + js.remaining_steps * t.step_time_s);
    }
  }
  const double round = policy_.round_interval_s();
  if (round > 0.0) {
    const double tick = static_cast<double>(round_index(now, round) + 1) * round;
    t_next = std::min(t_next, tick);
  }
  return t_next;
}

void ClusterController::apply_train_alloc(Tenant& t, const Allocation& next,
                                          double now) {
  JobState& js = t.state;
  if (next == js.alloc) return;
  close_segment(t, now);
  const bool had_run = js.first_start_s >= 0.0;
  t.set_alloc(next);
  if (!next.empty()) {
    if (!had_run) {
      js.first_start_s = now;
    } else {
      // Changing an in-flight allocation costs a pause: VirtualFlow's
      // ~1 s all-gather, or a checkpoint-restart for baselines.
      ++js.resizes;
      js.pause_until_s = now + policy_.resize_penalty_s();
    }
    t.open_since_s = now;
    t.step_time_s =
        allocation_step_time_s(js.spec.profile, js.spec.global_batch, next);
  } else {
    t.step_time_s = kInf;
  }
}

void ClusterController::grant(Tenant& t, const Allocation& next, double now) {
  JobState& js = t.state;
  const std::int64_t cur = t.devices;
  const std::int64_t want = next.total();
  if (js.is_serve()) {
    check(want >= js.live_min_gpus && want <= js.live_max_gpus, [&] {
      return "policy " + policy_.name() + " granted serving job " +
             std::to_string(js.spec.id) + " " + std::to_string(want) +
             " devices, outside its live band [" + std::to_string(js.live_min_gpus) +
             ", " + std::to_string(js.live_max_gpus) + "]";
    });
  } else {
    check(next.per_type.size() <= 1, [&] {
      return "train lease grants must be homogeneous (job " +
             std::to_string(js.spec.id) + ")";
    });
  }
  const double migration_s = t.lease->apply_grant(want);
  if (want == cur) return;
  if (js.first_start_s < 0.0 && want > 0) js.first_start_s = now;
  ++js.resizes;
  close_segment(t, now);
  t.set_alloc(next);
  if (want > 0) t.open_since_s = now;
  if (!js.is_serve() && !next.empty()) {
    // Refresh the cost-model step time so attained service stays
    // comparable with analytic jobs after a resize.
    t.step_time_s =
        allocation_step_time_s(js.spec.profile, js.spec.global_batch, next);
  }
  grants_.push_back({now, js.spec.id, cur, want, migration_s});
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("sched.grants").add();
    obs_.metrics->counter(want > cur ? "sched.grants.grow" : "sched.grants.shrink")
        .add();
  }
  if (obs_.trace != nullptr) {
    obs_.trace->instant("grant", now, /*device=*/-1,
                        /*vn=*/static_cast<std::int32_t>(js.spec.id),
                        /*model=*/-1, cur, want, migration_s);
  }
}

void ClusterController::consult_policy(double now) {
  inputs_.clear();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (t.state.finished() || t.retired || !t.state.arrived(now)) continue;
    const JobState& js = t.state;
    inputs_.push_back({i, t.counts, js.live_min_gpus, js.live_max_gpus, js.desired_gpus});
  }
  if (inputs_.empty()) return;
  // The Scheduler contract: a policy reads nothing else that changes
  // between events, and answers unchanged inputs as it did last time. The
  // remembered inputs come from a consult that moved no allocation, so a
  // skipped consult could only re-grant what every tenant already holds.
  const double round_s = policy_.round_interval_s();
  const std::int64_t round = round_s > 0.0 ? round_index(now, round_s) : 0;
  if (round == last_round_ && inputs_ == last_inputs_) return;
  active_jobs_.clear();
  active_tenants_.clear();
  for (const ConsultInput& in : inputs_) {
    active_jobs_.push_back(&tenants_[in.tenant].state);
    active_tenants_.push_back(&tenants_[in.tenant]);
  }
  const std::map<std::int64_t, Allocation> allocs =
      policy_.schedule(cluster_, active_jobs_, now);
  // The defensive over-commit check: a buggy policy dies HERE, at the
  // decision point, not as corrupted downstream accounting.
  validate_allocations(cluster_, allocs);
  if (obs_.metrics != nullptr) obs_.metrics->counter("sched.policy_calls").add();
  std::int64_t serve_devices = 0;
  std::int64_t train_devices = 0;
  std::int64_t running = 0;
  static const Allocation kNone;
  for (Tenant* t : active_tenants_) {
    const auto it = allocs.find(t->state.spec.id);
    const Allocation& next = it == allocs.end() ? kNone : it->second;
    if (t->lease != nullptr) {
      grant(*t, next, now);
    } else {
      apply_train_alloc(*t, next, now);
    }
    if (t->state.is_serve()) serve_devices += t->devices; else train_devices += t->devices;
    if (t->devices > 0) ++running;
  }
  // A consult that moved an allocation changed its own inputs, so the next
  // event consults again; only a consult that moved nothing is remembered.
  bool moved = false;
  for (std::size_t k = 0; k < active_tenants_.size(); ++k)
    moved |= active_tenants_[k]->counts != inputs_[k].alloc;
  if (moved) {
    last_inputs_.clear();
  } else {
    last_inputs_.swap(inputs_);
    last_round_ = round;
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics->gauge("sched.devices.serve")
        .set(static_cast<double>(serve_devices), now);
    obs_.metrics->gauge("sched.devices.train")
        .set(static_cast<double>(train_devices), now);
    obs_.metrics->gauge("sched.jobs.running").set(static_cast<double>(running),
                                                  now);
  }
}

ClusterReport ClusterController::run() {
  check(!ran_, "ClusterController::run() may only be called once");
  ran_ = true;
  check(!tenants_.empty(), "no jobs added");

  double now = 0.0;
  std::int64_t events = 0;
  refresh_from_leases(now);
  consult_policy(now);  // jobs arriving at t = 0 get their first decision

  auto unfinished = [&]() {
    for (const Tenant& t : tenants_) {
      if (t.lease != nullptr) {
        if (!t.retired) return true;
      } else if (!t.state.finished()) {
        return true;
      }
    }
    return false;
  };

  while (unfinished()) {
    check(++events <= kMaxEvents,
          "cluster controller exceeded its event budget (policy/lease livelock?)");
    if (events_counter_ != nullptr) events_counter_->add();
    const double t_next = next_event(now);
    check(t_next < kInf, [&] {
      return "cluster controller stalled: jobs remain but no future event (policy " +
             policy_.name() + " starving a job?)";
    });
    advance_analytic(now, std::max(now, t_next));
    now = std::max(now, t_next);
    // Pump live holders up to the new stamp, in add order. A pump before
    // the lease's next event (as next_event() read it) finds nothing due.
    for (Tenant& t : tenants_) {
      if (t.lease == nullptr || t.retired || t.state.finished()) continue;
      if (!t.state.arrived(now)) continue;
      if (idle_pumps_counter_ != nullptr && t.lease_next_s > now) idle_pumps_counter_->add();
      t.lease->pump(now);
    }
    // Retire drained leases: devices return to the pool at this stamp. A
    // drained lease still reporting a finite next event (EngineTrainLease
    // whose last step overshot the horizon) keeps its devices until that
    // stamp, so completion lands on the holder's own clock.
    for (Tenant& t : tenants_) {
      if (t.lease == nullptr || t.retired) continue;
      if (!t.state.arrived(now) || !t.lease->drained()) continue;
      if (t.lease->next_event_s() < kInf) continue;
      if (t.state.is_serve()) {
        // Serving drains only once its trace is exhausted; a mid-run empty
        // queue with future arrivals reports drained() == false.
        t.state.completion_s = now;
      } else if (t.state.completion_s < 0.0) {
        t.state.completion_s = now;
      }
      close_segment(t, now);
      t.set_alloc({});
      t.retired = true;
    }
    refresh_from_leases(now);
    consult_policy(now);
  }

  ClusterReport report;
  report.end_s = now;
  for (Tenant& t : tenants_) {
    close_segment(t, now);
    if (t.state.spec.kind == JobKind::kTrain && t.state.finished()) {
      report.train_makespan_s =
          std::max(report.train_makespan_s, t.state.completion_s);
    }
    report.jobs.push_back(t.state);
  }
  report.grants = grants_;
  return report;
}

// ---------------------------------------------------------------------------
// StaticPartitionScheduler
// ---------------------------------------------------------------------------

StaticPartitionScheduler::StaticPartitionScheduler(Scheduler& inner,
                                                   DeviceType pool_type)
    : inner_(inner), pool_type_(pool_type) {}

std::map<std::int64_t, Allocation> StaticPartitionScheduler::schedule(
    const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
    double now) {
  ClusterInventory remainder = cluster;
  std::map<std::int64_t, Allocation> out;
  std::vector<const JobState*> train;
  for (const JobState* j : jobs) {
    if (!j->is_serve()) {
      train.push_back(j);
      continue;
    }
    // The static partition: the serving job gets its provisioned size no
    // matter the load, clamped into the live band so a device kill still
    // caps it and the floor stays honoured.
    const std::int64_t pinned =
        clamp64(j->spec.demand_gpus, j->live_min_gpus, j->live_max_gpus);
    auto& free = remainder.per_type[pool_type_];
    check(pinned <= free,
          "static partition does not fit: serving job " +
              std::to_string(j->spec.id) + " pins " + std::to_string(pinned) +
              " devices but only " + std::to_string(free) + " remain");
    free -= pinned;
    out[j->spec.id] = Allocation::of(pool_type_, pinned);
  }
  std::map<std::int64_t, Allocation> train_out =
      inner_.schedule(remainder, train, now);
  out.insert(train_out.begin(), train_out.end());
  return out;
}

// ---------------------------------------------------------------------------
// EngineTrainLease
// ---------------------------------------------------------------------------

EngineTrainLease::EngineTrainLease(VirtualFlowEngine& engine,
                                   std::int64_t total_steps, DeviceType pool_type)
    : engine_(engine), total_steps_(total_steps), pool_type_(pool_type) {
  check(total_steps_ > 0, "EngineTrainLease needs total_steps > 0");
  for (const Device& d : engine_.devices())
    check(d.type == pool_type_, "EngineTrainLease: the engine must run on pool_type devices");
}

double EngineTrainLease::clock_now() const {
  return std::max(clock_, engine_.sim_time_s() + clock_offset_);
}

double EngineTrainLease::next_event_s() const {
  if (granted_ == 0) return kInf;
  if (drained()) {
    // The final step overshot the last pumped horizon; report its true
    // completion stamp once so the controller retires the lease at the
    // engine's clock, not one event early.
    const double ahead = engine_.sim_time_s() + clock_offset_;
    return ahead > clock_ ? ahead : kInf;
  }
  return clock_now();
}

void EngineTrainLease::pump(double horizon_s) {
  if (granted_ > 0) {
    // Run whole steps until the engine's offset clock passes the horizon.
    // `<=` is deliberate: stopping exactly AT the horizon would report the
    // same stamp as the next event and livelock the controller.
    while (!drained() && clock_now() <= horizon_s) {
      engine_.train_step();
      ++steps_done_;
    }
  }
  if (horizon_s < kInf) clock_ = std::max(clock_, horizon_s);
}

sched::LoadSignal EngineTrainLease::load() const {
  sched::LoadSignal sig;
  sig.queue_depth = std::max<std::int64_t>(0, total_steps_ - steps_done_);
  sig.devices = granted_;
  sig.min_devices = 0;  // training tolerates full preemption
  sig.max_devices = engine_.mapping().total_vns();
  sig.drained = drained();
  return sig;
}

double EngineTrainLease::apply_grant(std::int64_t devices) {
  check(devices >= 0, "negative device grant");
  if (devices == granted_) return 0.0;
  if (devices == 0) {
    // Full preemption: the engine keeps its device set (no resize cost
    // now) but stops stepping until a positive re-grant.
    granted_ = 0;
    return 0.0;
  }
  check(devices <= engine_.mapping().total_vns(),
        "grant exceeds the engine's VN count");
  if (granted_ == 0) {
    // Re-basing the offset charges the preempted span to the lease: the
    // engine's clock stood still while the controller's moved on.
    clock_offset_ = clock_ - engine_.sim_time_s();
  }
  const double before = engine_.sim_time_s();
  if (devices != static_cast<std::int64_t>(engine_.devices().size())) {
    engine_.resize(make_devices(pool_type_, devices));
  }
  granted_ = devices;
  return engine_.sim_time_s() - before;
}

}  // namespace vf
