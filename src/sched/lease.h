// The device-lease protocol between the ClusterController and the
// tenants it governs (sched/cluster.h).
//
// A lease holder is anything that consumes cluster devices on the shared
// virtual clock: a `vf::serve::ColocatedServer` (which implements this
// interface directly; a one-model `Server` is one), or a training engine
// wrapped in an `EngineTrainLease`. The controller drives every holder through the same
// five verbs:
//
//   next_event_s()  — when does the holder next need the clock?
//   pump(horizon)   — process everything due at or before `horizon`
//   load()          — raw load signal for the policy layer
//   apply_grant(n)  — resize the leased device-set to n devices
//   drained()       — all work done; the lease can be retired
//
// The decision of HOW MANY devices a holder runs on lives entirely above
// this interface: the controller derives a desired size from the load
// signal (elastic_resize_target is one input; SLO deadline pressure is
// another) and the pluggable Scheduler policy arbitrates desires against
// the shared ClusterInventory. A holder never resizes itself while
// cluster-governed — it reports load and consumes grants, nothing more.
//
// Determinism contract: every method is a pure function of the holder's
// replay state on the virtual clock. Holders are pumped in job-id order
// and grants are applied in policy-output order, so a whole cluster run
// is bit-identical across host worker counts.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace vf::sched {

/// Raw load signal a lease holder reports at each controller event. The
/// holder reports facts; the controller turns them into a desired device
/// count. Watermarks ride along because they are the holder's calibrated
/// hysteresis band (from its ElasticPolicy) — advisory inputs, not a
/// decision.
struct LoadSignal {
  std::int64_t queue_depth = 0;   ///< backlog not yet admitted into slots
  std::int64_t inflight = 0;      ///< admitted + parked (between-slot) requests
  std::int64_t devices = 0;       ///< current leased device count
  std::int64_t min_devices = 1;   ///< live floor (latency-critical minimum)
  std::int64_t max_devices = 1;   ///< live ceiling (VN count, capped by kills)
  std::int64_t high_watermark = 0;  ///< hysteresis grow threshold
  std::int64_t low_watermark = 0;   ///< hysteresis shrink threshold
  double oldest_wait_s = 0.0;     ///< queue wait of the oldest backlogged request
  double deadline_s = 0.0;        ///< that request's SLO budget (0 = none)
  bool drained = false;           ///< no pending or in-flight work remains
};

/// The one interface through which serving device-sets and training
/// engines consume cluster grants. See the file comment for the protocol.
class DeviceLease {
 public:
  virtual ~DeviceLease() = default;

  /// Virtual stamp of the holder's next internal event (slice completion,
  /// arrival, fault, timeout). +inf when the holder needs nothing until
  /// the next grant or is drained. Between a pump and the next grant it
  /// does not move, whatever clock a pump before it left.
  virtual double next_event_s() const = 0;

  /// Processes every internal event due at or before `horizon_s` and
  /// advances the holder's clock to `horizon_s` (so a grant applied right
  /// after is stamped at controller time). `horizon_s` may be +inf to run
  /// to completion (self-driving replay); a serving holder takes a finite
  /// horizon only under cluster governance. A pump before next_event_s()
  /// finds nothing due, so it only moves the clock: the holder's records
  /// cannot depend on how often it is pumped between its events.
  virtual void pump(double horizon_s) = 0;

  /// Raw load signal at the holder's current clock.
  virtual LoadSignal load() const = 0;

  /// Resizes the leased device-set to `devices` through the holder's own
  /// seamless/rolling-migration machinery. Returns the migration seconds
  /// the change charged (a serving holder gates dispatch behind them). A
  /// no-op (and 0.0) when `devices` equals the current count. Serving
  /// holders require `devices` >= 1 (they cannot run on nothing);
  /// EngineTrainLease additionally accepts 0 as full preemption.
  virtual double apply_grant(std::int64_t devices) = 0;

  /// True once all work has drained; the controller retires the lease and
  /// returns its devices to the pool.
  virtual bool drained() const = 0;
};

}  // namespace vf::sched
