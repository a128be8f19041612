// Cluster-scheduling vocabulary (inventory, policy interface) and the
// trace-driven simulate() entry point.
//
// simulate() runs a trace of analytic training jobs through the
// ClusterController (sched/cluster.h) with no leases: time advances
// between scheduling events (job arrivals, completions, and — for
// round-based policies like Gavel — periodic round boundaries), and the
// policy is asked for fresh allocations at each event whose decision
// inputs changed (see Scheduler). Allocation changes cost time: a
// seamless VirtualFlow resize pauses the job for ~1 s (the §4.1
// all-gather), while restart-based baselines pay a checkpoint-restore
// penalty, matching the paper's comparison axis.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/job.h"
#include "sched/throughput.h"

namespace vf {

/// Typed GPU inventory of the simulated cluster.
struct ClusterInventory {
  std::map<DeviceType, std::int64_t> per_type;
  std::int64_t total() const;
};

/// Index of the policy round of `round_s` seconds that holds `now`. The
/// 1e-9 slack, in units of rounds, puts a stamp within float noise below a
/// boundary into the round that boundary opens. The controller's round
/// ticks and consult key and GavelScheduler's recompute test all use this
/// one rule, so they agree on where a round starts.
inline std::int64_t round_index(double now, double round_s) {
  return static_cast<std::int64_t>(std::floor(now / round_s + 1e-9));
}

/// Scheduling policy interface.
///
/// What a policy may read. The ClusterController calls schedule() only at
/// an event whose decision inputs changed since its last call:
///   * the active job set, in add order;
///   * each active job's `alloc`, `live_min_gpus`, `live_max_gpus` and
///     `desired_gpus`;
///   * for a round-based policy, round_index(now, round_interval_s()).
/// Anything else a policy reads must be fixed for the run (`cluster`, each
/// job's `spec`) or count only when an input changed. `attained_service`
/// moves at every event, so it counts only at a round boundary: Gavel
/// ranks by it when a round is recomputed, and the event-based policies
/// never read it. `slo_pressure` reaches a policy only through
/// `desired_gpus`, which the controller escalates with it. A stateful
/// policy must give the same answer, and keep the same state, when asked
/// again with unchanged inputs: those are the calls the controller skips,
/// and each could only have re-granted what every job already holds.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Returns the desired allocation for every *arrived, unfinished* job
  /// (jobs omitted from the result are left queued/preempted with no
  /// GPUs). Must never over-commit the inventory — the ClusterController
  /// enforces this with validate_allocations() and fails loudly on a buggy
  /// policy.
  ///
  /// Mixed job sets: `jobs` may contain serving jobs (JobKind::kServe)
  /// alongside training jobs. A policy that supports co-scheduling must
  /// grant every active serving job a count within
  /// [live_min_gpus, live_max_gpus] (desired_gpus is the load-derived
  /// target); gavel and WFS carve serving first and arbitrate training
  /// over the remainder. Policies that predate serving can check() that
  /// no serve jobs are present.
  virtual std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) = 0;

  /// > 0 for round-based policies (Gavel): the controller wakes at every
  /// round boundary even without arrivals/completions, and the round
  /// index is a decision input.
  virtual double round_interval_s() const { return 0.0; }

  /// Seconds a job is paused when its allocation changes. VirtualFlow's
  /// elastic resize is ~1 s; checkpoint-restart baselines take longer.
  virtual double resize_penalty_s() const { return 1.0; }

  virtual std::string name() const = 0;
};

/// Result of simulating one trace under one policy.
struct SimResult {
  std::vector<JobState> jobs;      ///< final states, trace order
  double makespan_s = 0.0;         ///< last completion time
  double avg_utilization = 0.0;    ///< busy GPU-time / (total GPUs x makespan)

  std::vector<double> jcts() const;            ///< completion - arrival
  std::vector<double> queueing_delays() const; ///< first start - arrival
};

/// Runs the trace to completion on a lease-free ClusterController, with
/// gradient synchronization priced on the default LinkSpec. Training jobs
/// only — serving jobs are live replay loops, which need the controller's
/// lease API directly. Jobs come back sorted by arrival.
SimResult simulate(const ClusterInventory& cluster, std::vector<JobSpec> trace,
                   Scheduler& policy);

/// Validates a policy's output against the inventory: no negative counts,
/// no per-type over-commit. Throws VfError naming the offending device
/// type on violation. The ClusterController calls it on every policy
/// output, so a buggy policy fails loudly at the decision point instead of
/// corrupting downstream accounting.
void validate_allocations(const ClusterInventory& cluster,
                          const std::map<std::int64_t, Allocation>& allocs);

/// The serving carve-out shared by the mixed-job policies: every serving
/// job in `jobs` (non-serve entries are ignored) is granted
/// clamp(desired_gpus, live_min, live_max) GPUs of `pool_type` from
/// `pool`, minimums first (throws if the minimums alone do not fit —
/// that is a cluster-sizing error, not a scheduling decision), then the
/// remainder one device at a time in (priority desc, id asc) round-robin
/// order until desires are met or the pool runs dry. On return `pool`
/// has the granted devices subtracted, ready for the training pass.
std::map<std::int64_t, Allocation> carve_serving_grants(
    ClusterInventory& pool, const std::vector<const JobState*>& jobs,
    DeviceType pool_type);

}  // namespace vf
