// Gavel-style round-based Least-Attained-Service scheduler, with the
// paper's heterogeneous-allocation extension (§6.5.2).
//
// Gavel [36] schedules heterogeneous clusters in fixed rounds (6 minutes
// in the paper), ordering jobs by least attained (weighted) service, but
// only ever gives a job GPUs of a single type per round. The paper's
// extension lets a job additionally use leftover GPUs of *other* types —
// possible only because VirtualFlow's heterogeneous training keeps the
// global batch and convergence semantics intact under uneven splits.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sched/simulator.h"

namespace vf {

/// Configuration for the Gavel simulation.
struct GavelOptions {
  bool heterogeneous_allocations = false;  ///< the paper's +HT extension
  double round_s = 360.0;                  ///< paper: 6-minute rounds
  double restart_penalty_s = 30.0;         ///< checkpoint-restart on change
};

class GavelScheduler : public Scheduler {
 public:
  explicit GavelScheduler(GavelOptions options);

  std::map<std::int64_t, Allocation> schedule(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
      double now) override;

  double round_interval_s() const override { return options_.round_s; }
  double resize_penalty_s() const override { return options_.restart_penalty_s; }
  std::string name() const override {
    return options_.heterogeneous_allocations ? "gavel+ht" : "gavel";
  }

 private:
  std::map<std::int64_t, Allocation> compute_round(
      const ClusterInventory& cluster, const std::vector<const JobState*>& jobs) const;

  GavelOptions options_;
  /// round_index() of the last full recompute; cached_ holds its decision.
  std::int64_t round_ = -1;
  std::map<std::int64_t, Allocation> cached_;
  /// Serving job ids seen at the last consult: a serving arrival or
  /// departure mid-round forces a full recompute (its minimum must be
  /// honored immediately, which only a fresh carve can guarantee).
  std::vector<std::int64_t> last_serve_ids_;
};

}  // namespace vf
