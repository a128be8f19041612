// Job and allocation model for the cluster-scheduling experiments (§4.2,
// §6.4, §6.5.2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/model_profile.h"
#include "device/spec.h"

namespace vf {

/// A (possibly heterogeneous) GPU allocation: device type -> count.
struct Allocation {
  std::map<DeviceType, std::int64_t> per_type;

  std::int64_t total() const;
  bool empty() const { return total() == 0; }
  bool heterogeneous() const;
  bool operator==(const Allocation& other) const { return per_type == other.per_type; }
  std::string describe() const;

  static Allocation of(DeviceType t, std::int64_t count);
};

/// What kind of tenant a job is. Training jobs run a fixed amount of work
/// (total_steps) and finish; serving jobs are elastic device-sets that
/// live while their request trace drains, with a demand that moves with
/// load (JobState::desired_gpus) instead of a static demand_gpus.
enum class JobKind { kTrain, kServe };

/// Static description of one job in a trace.
struct JobSpec {
  std::int64_t id = 0;
  JobKind kind = JobKind::kTrain;
  double arrival_s = 0.0;
  double priority = 1.0;       ///< WFS weight (paper uses 1 / 5 / 10)
  std::string workload;        ///< model-profile name (drives the cost model)
  std::string task;            ///< proxy-task name (for accuracy replay), may be ""
  ModelProfile profile;
  std::int64_t global_batch = 0;
  std::int64_t total_steps = 0;  ///< training work
  std::int64_t demand_gpus = 0;  ///< train: requested size; serve: static-partition size
  /// Serving jobs only: the elastic range the device-set may be granted.
  /// A policy must keep an active serving job within [min_gpus, max_gpus]
  /// (the latency-critical floor and the VN-count ceiling).
  std::int64_t min_gpus = 0;
  std::int64_t max_gpus = 0;
};

/// One segment of a job's allocation timeline (for Figs 10, 11, 16).
struct AllocSegment {
  double t0 = 0.0, t1 = 0.0;
  Allocation alloc;
};

/// Mutable job state tracked by the event simulator / cluster controller.
struct JobState {
  JobSpec spec;
  double remaining_steps = 0.0;
  Allocation alloc;            ///< empty when queued or fully preempted
  double first_start_s = -1.0;
  double completion_s = -1.0;
  double pause_until_s = 0.0;  ///< resize/restart penalty in effect until then
  double attained_service = 0.0;  ///< normalized service for LAS policies
  std::int64_t resizes = 0;
  std::vector<AllocSegment> timeline;

  // Serving-job dynamics, refreshed by the ClusterController from the
  // lease's load signal before every policy consult. `desired_gpus` is
  // the controller's derived target (elastic_resize_target over
  // queue+in-flight load, escalated by SLO deadline pressure);
  // live_min/live_max are the spec bounds tightened by transient capacity
  // loss (a killed device caps the ceiling until its recover).
  std::int64_t desired_gpus = 0;
  std::int64_t live_min_gpus = 0;
  std::int64_t live_max_gpus = 0;
  /// Fraction of the SLO budget the oldest queued request has burned
  /// (0 when idle; > 1 means a deadline is already blown). The controller
  /// escalates desired_gpus with it; policies see it only through
  /// desired_gpus, so it is not a decision input of its own.
  double slo_pressure = 0.0;

  bool is_serve() const { return spec.kind == JobKind::kServe; }
  bool arrived(double now) const { return spec.arrival_s <= now; }
  bool finished() const { return completion_s >= 0.0; }
  bool running() const { return !finished() && !alloc.empty(); }
};

}  // namespace vf
