// ClusterController — one device economy for training AND serving.
//
// The controller is the cluster's only event loop: simulate() is a thin
// wrapper that runs a trace of analytic training jobs through it with no
// leases, and every mixed train+serve run drives it directly. Serving
// loops do not size themselves under it; ONE pluggable policy decides:
//
//   ClusterInventory (shared pool)
//        |
//   ClusterController ── event loop on the virtual clock
//        |     analytic training jobs (closed-form step advancement)
//        |     + live DeviceLease holders (Server, ColocatedServer,
//        |       EngineTrainLease) pumped between events
//        v
//   Scheduler policy (gavel, WFS, priority, static-partition decorator)
//        |     sees serving device-sets as first-class JobState entries:
//        |     desired/min/max derived from the lease's load signal, SLO
//        |     deadline pressure folded into the desire; consulted only
//        |     when a decision input changed
//        v
//   device GRANTS ── applied through DeviceLease::apply_grant (the same
//                    seamless/rolling-migration resize paths underneath)
//
// elastic_resize_target is demoted from the decision-maker to one load
// signal among several: the controller derives each serving job's
// desired_gpus from it, escalates under deadline pressure (an oldest
// request past half its SLO budget asks for double the devices), and the
// policy arbitrates those desires against training demand.
//
// Determinism contract: the controller is an event loop on the virtual
// clock — leases are pumped in add-order at each event, the policy
// consulted at an event only when one of its decision inputs changed,
// grants applied in job-id order. Every decision is a pure function of
// (job specs, traces, policy, cost model), so a full cluster run —
// hundreds of devices, mixed train+serve — replays bit-identically across
// host worker counts.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/obs.h"
#include "sched/job.h"
#include "sched/lease.h"
#include "sched/simulator.h"

namespace vf {

/// One device grant the controller issued to a lease holder.
struct GrantRecord {
  double time_s = 0.0;
  std::int64_t job_id = 0;
  std::int64_t from_devices = 0;
  std::int64_t to_devices = 0;
  double migration_s = 0.0;  ///< seamless/rolling migration charge
};

/// Result of one cluster run.
struct ClusterReport {
  std::vector<JobState> jobs;        ///< final states, add order
  double train_makespan_s = 0.0;     ///< last training completion
  double end_s = 0.0;                ///< final controller clock
  std::vector<GrantRecord> grants;   ///< every lease resize, in issue order
};

/// Drives a mixed train+serve job set over a shared inventory, asking the
/// policy for allocations whenever its decision inputs change and issuing
/// device grants through the DeviceLease interface. One run per controller.
class ClusterController {
 public:
  /// `policy` must outlive the controller; `cluster` is the shared pool
  /// the policy allocates from (validated against on every consult). The
  /// controller is purely event-driven: it wakes at arrivals, completions,
  /// lease events and policy round ticks, and at each event consults the
  /// policy only if a decision input changed since the last consult (the
  /// active set, each active tenant's allocation, live band and desire,
  /// and the round index; see Scheduler in sched/simulator.h).
  ClusterController(ClusterInventory cluster, Scheduler& policy);

  /// Attaches observability sinks before run(): "sched.*" counters/gauges
  /// (events, policy_calls, grants, idle_pumps, per-class device gauges)
  /// plus one "grant" instant per issued grant on the control track.
  void set_observability(obs::Observability obs);

  /// Adds an analytic training job (closed-form advancement: step times
  /// from the cost model, attained service for LAS policies, resize
  /// penalties as pauses; the allocation is released at completion). Ids
  /// must be unique across all added jobs.
  void add_train_job(JobSpec spec);

  /// Adds a live serving device-set. `spec.kind` must be kServe with
  /// min_gpus >= 1 and max_gpus >= min_gpus; spec.demand_gpus records the
  /// static-partition size baselines pin it to. The lease must be
  /// cluster-governed and begun (Server::set_cluster_governed() +
  /// begin()) before run(), and must outlive the controller. The job is
  /// active from spec.arrival_s until the lease drains; call the
  /// holder's finish() after run() to export its summary metrics.
  void add_serve_job(JobSpec spec, sched::DeviceLease& lease);

  /// Adds a REAL training engine as a lease (EngineTrainLease): the
  /// engine steps on the virtual clock between events and consumes grants
  /// through the same interface as serving. `spec.kind` must be kTrain;
  /// total_steps is taken from the spec.
  void add_train_lease(JobSpec spec, sched::DeviceLease& lease);

  /// Runs the whole job set to completion: every training job finished,
  /// every serving lease drained. Throws VfError on a buggy policy
  /// (over-commit, serve grant outside [live_min, live_max]) or livelock.
  ClusterReport run();

 private:
  /// A tenant's kind is derived, never stored: a null lease is an
  /// analytic job, and a lease serves or trains by its spec.kind.
  struct Tenant {
    JobState state;
    sched::DeviceLease* lease = nullptr;  ///< null for analytic jobs
    double step_time_s = 0.0;             ///< current cost-model step time
    /// reference_throughput() of the spec, fixed at add time (training
    /// tenants only): the attained-service normalizer.
    double reference_tput = 0.0;
    double open_since_s = -1.0;           ///< open timeline segment start
    bool retired = false;                 ///< lease drained and released
    /// state.alloc's per-type device counts and total, kept by set_alloc()
    /// so the event loop never walks the allocation's map.
    std::array<std::int64_t, kNumDeviceTypes> counts{};
    std::int64_t devices = 0;
    /// The lease's next_event_s() as next_event() last read it; -inf until
    /// then (a lease that has not been read counts as due).
    double lease_next_s = -std::numeric_limits<double>::infinity();

    /// The one way state.alloc changes: keeps `counts` and `devices`.
    void set_alloc(Allocation a);
  };

  /// One active tenant's decision inputs: the per-tenant state a policy
  /// may read that changes between events.
  struct ConsultInput {
    std::size_t tenant = 0;  ///< index into tenants_ (add order)
    std::array<std::int64_t, kNumDeviceTypes> alloc{};
    std::int64_t live_min_gpus = 0;
    std::int64_t live_max_gpus = 0;
    std::int64_t desired_gpus = 0;
    bool operator==(const ConsultInput&) const = default;
  };

  void add_tenant(JobSpec spec, sched::DeviceLease* lease);
  void advance_analytic(double now, double t_next);
  void refresh_from_leases(double now);
  /// The next event stamp after `now`; records each arrived lease's
  /// next_event_s() in its tenant (lease_next_s).
  double next_event(double now);
  void consult_policy(double now);
  void apply_train_alloc(Tenant& t, const Allocation& next, double now);
  void grant(Tenant& t, const Allocation& next, double now);
  /// Ends the tenant's open timeline segment at `now` (if it has one).
  void close_segment(Tenant& t, double now);

  ClusterInventory cluster_;
  Scheduler& policy_;
  obs::Observability obs_;
  std::vector<Tenant> tenants_;
  std::vector<GrantRecord> grants_;
  // consult_policy() scratch, reused so a consult allocates nothing itself.
  std::vector<const JobState*> active_jobs_;
  std::vector<Tenant*> active_tenants_;
  std::vector<ConsultInput> inputs_;
  // The decision inputs of the last consult that moved no allocation; an
  // event whose inputs equal them skips the policy.
  std::vector<ConsultInput> last_inputs_;
  std::int64_t last_round_ = -1;
  obs::Counter* events_counter_ = nullptr;  ///< "sched.events", when attached
  obs::Counter* idle_pumps_counter_ = nullptr;  ///< "sched.idle_pumps", when attached
  bool ran_ = false;
};

/// Static-partition baseline: pins every serving job at its configured
/// spec.demand_gpus (clamped into the live [min, max] band, so a device
/// kill still caps it) and lets `inner` schedule training over the
/// REDUCED inventory. This is the "two static clusters" deployment the
/// co-scheduled economy is benchmarked against (bench_cosched).
class StaticPartitionScheduler : public Scheduler {
 public:
  /// `inner` must outlive this decorator.
  StaticPartitionScheduler(Scheduler& inner, DeviceType pool_type);

  std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) override;

  double round_interval_s() const override { return inner_.round_interval_s(); }
  double resize_penalty_s() const override { return inner_.resize_penalty_s(); }
  std::string name() const override { return "static(" + inner_.name() + ")"; }

 private:
  Scheduler& inner_;
  DeviceType pool_type_;
};

/// Adapts a real VirtualFlowEngine to the DeviceLease protocol so the
/// cluster policy sizes live training the same way it sizes serving.
/// pump() runs whole train_steps until the engine's clock (offset onto
/// the controller clock across full preemptions) passes the horizon.
/// Unlike serving leases, apply_grant(0) is legal and means FULL
/// PREEMPTION: the engine keeps its last device set but steps stop until
/// a positive re-grant (which also re-bases the clock offset).
class EngineTrainLease : public sched::DeviceLease {
 public:
  /// The engine must outlive the lease and run on `pool_type` devices,
  /// the type grants are filled with; `total_steps` is the training work
  /// to run.
  EngineTrainLease(VirtualFlowEngine& engine, std::int64_t total_steps,
                   DeviceType pool_type);

  double next_event_s() const override;
  void pump(double horizon_s) override;
  sched::LoadSignal load() const override;
  double apply_grant(std::int64_t devices) override;
  bool drained() const override { return steps_done_ >= total_steps_; }

  std::int64_t steps_done() const { return steps_done_; }

 private:
  double clock_now() const;  ///< engine sim time on the controller clock

  VirtualFlowEngine& engine_;
  std::int64_t total_steps_;
  DeviceType pool_type_;
  std::int64_t steps_done_ = 0;
  std::int64_t granted_ = 0;     ///< 0 = fully preempted (no stepping)
  double clock_offset_ = 0.0;    ///< controller time = engine time + offset
  double clock_ = 0.0;           ///< last pumped horizon
};

}  // namespace vf
