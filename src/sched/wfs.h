// Elastic Weighted-Fair-Sharing scheduler (paper §4.2, Algorithm 1) and
// the static Priority baseline it is evaluated against (§6.4).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/simulator.h"

namespace vf {

/// Integer weighted fair shares: distributes `total` GPUs proportionally
/// to job weights, capping each job at its demand (water-filling) and
/// resolving fractional remainders largest-first (priority, then lower id,
/// as the deterministic tie-break). Exposed for direct unit testing.
std::map<std::int64_t, std::int64_t> weighted_fair_shares(
    std::int64_t total, const std::vector<const JobState*>& jobs);

/// Elastic WFS (Algorithm 1): dynamically resizes running jobs to their
/// weighted fair shares, admitting queued jobs only while doing so does
/// not shrink any higher-priority job's allocation. Resizing is seamless
/// (virtual-node redistribution, ~1 s pause).
///
/// The cluster is treated as a homogeneous pool of `pool_type` GPUs (the
/// paper's elasticity experiments run on V100s only).
///
/// Mixed job sets: serving jobs (JobKind::kServe) are carved out first —
/// live minimums guaranteed, load-derived desires round-robined — and
/// training water-fills the remainder (carve_serving_grants). Being
/// event-based, WFS re-derives the carve at every consult, so serving
/// grants track bursts at controller-event granularity.
class ElasticWfsScheduler : public Scheduler {
 public:
  explicit ElasticWfsScheduler(DeviceType pool_type = DeviceType::kV100);

  std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) override;

  double resize_penalty_s() const override { return 1.0; }  // §4.1 all-gather
  std::string name() const override { return "elastic-wfs"; }

 private:
  DeviceType pool_type_;
  // Jobs admitted to the running set so far (Algorithm 1's running_jobs).
  std::vector<std::int64_t> admitted_;
};

/// Static priority scheduler: starts the highest-priority queued job when
/// its *full* demand fits in the free pool; never resizes or preempts.
/// Serving jobs carve their grants (carve_serving_grants) from the devices
/// the running jobs leave free, before any queued job is admitted.
class PriorityScheduler : public Scheduler {
 public:
  explicit PriorityScheduler(DeviceType pool_type = DeviceType::kV100);

  std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) override;

  std::string name() const override { return "priority-static"; }

 private:
  DeviceType pool_type_;
};

}  // namespace vf
