#include "sched/gavel.h"

#include <algorithm>

#include "util/common.h"

namespace vf {
namespace {

// Minimum relative throughput gain for adding another device type to a
// job's allocation (keeps the +HT extension from mixing types for noise).
constexpr double kMinHeteroGain = 0.05;
// Device type serving jobs draw from in mixed job sets (serving engines
// run homogeneous pools; see carve_serving_grants).
constexpr DeviceType kServePool = DeviceType::kV100;

}  // namespace

GavelScheduler::GavelScheduler(GavelOptions options) : options_(options) {
  check(options.round_s > 0.0, "round duration must be positive");
}

std::map<std::int64_t, Allocation> GavelScheduler::schedule(
    const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
    double now) {
  // Mixed job sets: serving tenants are carved out of the pool before the
  // training round (minimums guaranteed; see carve_serving_grants), and —
  // unlike the round-cached training decision — re-carved at EVERY
  // consult: a latency SLO cannot wait for a round boundary. Mid-round
  // the carve draws only from what the cached training round left free,
  // so serving grows into idle capacity immediately but reclaims
  // training devices only at boundaries — the round contract intact. A
  // serving arrival or departure forces a fresh round (its minimum must
  // be honored now, and minimums are only guaranteed by a full carve).
  std::vector<const JobState*> train;
  std::vector<std::int64_t> serve_ids;
  for (const JobState* j : jobs) {
    if (j->is_serve()) {
      serve_ids.push_back(j->spec.id);
    } else {
      train.push_back(j);
    }
  }
  const bool serve_set_changed = serve_ids != last_serve_ids_;
  last_serve_ids_ = std::move(serve_ids);

  // Round-based: training allocations only change at round boundaries.
  // Between boundaries, return the cached decision restricted to
  // still-active jobs (a finished job's GPUs stay idle until the round
  // ends, exactly the slack the paper's elastic approaches exploit).
  const std::int64_t round = round_index(now, options_.round_s);
  if (!serve_set_changed && round == round_) {
    std::map<std::int64_t, Allocation> out;
    ClusterInventory free = cluster;
    for (const JobState* j : train) {
      const auto it = cached_.find(j->spec.id);
      if (it != cached_.end()) {
        out[j->spec.id] = it->second;
        for (const auto& [type, count] : it->second.per_type)
          free.per_type[type] -= count;
      }
    }
    // A recover can raise a serving job's live minimum mid-round past
    // what the cached training round left free; that also forces a fresh
    // round rather than a carve that cannot honor the floor.
    std::int64_t serve_mins = 0;
    for (const JobState* j : jobs)
      if (j->is_serve()) serve_mins += j->live_min_gpus;
    if (serve_mins <= free.per_type[kServePool]) {
      auto serve_out = carve_serving_grants(free, jobs, kServePool);
      out.insert(serve_out.begin(), serve_out.end());
      return out;
    }
  }
  round_ = round;
  ClusterInventory train_pool = cluster;
  auto serve_out = carve_serving_grants(train_pool, jobs, kServePool);
  cached_ = compute_round(train_pool, train);
  std::map<std::int64_t, Allocation> out = cached_;
  out.insert(serve_out.begin(), serve_out.end());
  return out;
}

std::map<std::int64_t, Allocation> GavelScheduler::compute_round(
    const ClusterInventory& cluster, const std::vector<const JobState*>& jobs) const {
  // Least attained (weighted) service first; ties by arrival then id.
  std::vector<const JobState*> order = jobs;
  std::sort(order.begin(), order.end(), [](const JobState* a, const JobState* b) {
    const double la = a->attained_service / a->spec.priority;
    const double lb = b->attained_service / b->spec.priority;
    if (la != lb) return la < lb;
    if (a->spec.arrival_s != b->spec.arrival_s) return a->spec.arrival_s < b->spec.arrival_s;
    return a->spec.id < b->spec.id;
  });

  std::map<DeviceType, std::int64_t> free = cluster.per_type;
  std::map<std::int64_t, Allocation> out;

  // Pass 1 (stock Gavel): each job gets its best single-type allocation
  // from what is left, at most its demand.
  for (const JobState* j : order) {
    Allocation best;
    double best_tput = 0.0;
    for (const auto& [type, avail] : free) {
      if (avail <= 0) continue;
      const std::int64_t count = std::min(j->spec.demand_gpus, avail);
      const Allocation cand = Allocation::of(type, count);
      const double tput =
          allocation_throughput(j->spec.profile, j->spec.global_batch, cand);
      if (tput > best_tput) {
        best_tput = tput;
        best = cand;
      }
    }
    if (!best.empty()) {
      for (const auto& [type, count] : best.per_type) free[type] -= count;
      out[j->spec.id] = best;
    }
  }

  if (!options_.heterogeneous_allocations) return out;

  // Pass 2 (+HT): in the same order, offer each job the leftover GPUs of
  // other types, keeping an addition only if it improves the job's
  // throughput by at least kMinHeteroGain (VirtualFlow's solver fallback
  // behaviour: don't mix when mixing doesn't help).
  for (const JobState* j : order) {
    const auto it = out.find(j->spec.id);
    if (it == out.end()) continue;
    Allocation current = it->second;
    double current_tput =
        allocation_throughput(j->spec.profile, j->spec.global_batch, current);
    for (auto& [type, avail] : free) {
      if (avail <= 0 || current.per_type.count(type) != 0) continue;
      // Try the largest useful extra grant first, shrinking until it helps.
      for (std::int64_t extra = std::min(avail, j->spec.demand_gpus * 2); extra >= 1;
           extra /= 2) {
        Allocation cand = current;
        cand.per_type[type] = extra;
        const double tput =
            allocation_throughput(j->spec.profile, j->spec.global_batch, cand);
        if (tput >= current_tput * (1.0 + kMinHeteroGain)) {
          current = cand;
          current_tput = tput;
          avail -= extra;
          break;
        }
      }
    }
    it->second = current;
  }
  return out;
}

}  // namespace vf
