#include "sched/wfs.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace vf {

std::map<std::int64_t, std::int64_t> weighted_fair_shares(
    std::int64_t total, const std::vector<const JobState*>& jobs) {
  check(total >= 0, "total GPUs must be non-negative");
  std::map<std::int64_t, std::int64_t> out;
  if (jobs.empty()) return out;

  // Water-filling over real-valued shares: repeatedly hand uncapped jobs
  // their weight-proportional slice; jobs that would exceed their demand
  // are frozen at the demand and removed from the pool.
  std::map<std::int64_t, double> share;
  std::vector<const JobState*> uncapped = jobs;
  double remaining = static_cast<double>(total);
  while (!uncapped.empty() && remaining > 1e-9) {
    double weight_sum = 0.0;
    for (const JobState* j : uncapped) weight_sum += j->spec.priority;
    bool any_capped = false;
    std::vector<const JobState*> next;
    for (const JobState* j : uncapped) {
      const double slice = remaining * j->spec.priority / weight_sum;
      const double cap = static_cast<double>(j->spec.demand_gpus);
      if (slice >= cap) {
        share[j->spec.id] = cap;
        any_capped = true;
      } else {
        next.push_back(j);
      }
    }
    if (!any_capped) {
      for (const JobState* j : next)
        share[j->spec.id] = remaining * j->spec.priority / weight_sum;
      break;
    }
    double used = 0.0;
    for (const auto& [id, s] : share) used += s;
    remaining = static_cast<double>(total) - used;
    uncapped = std::move(next);
  }

  // Integerize: floors first, then hand out remainders by largest
  // fractional part (priority, then id, break ties deterministically).
  std::int64_t used = 0;
  std::vector<std::pair<double, const JobState*>> fracs;
  for (const JobState* j : jobs) {
    const double s = share.count(j->spec.id) ? share[j->spec.id] : 0.0;
    const auto fl = static_cast<std::int64_t>(std::floor(s + 1e-9));
    out[j->spec.id] = fl;
    used += fl;
    fracs.push_back({s - static_cast<double>(fl), j});
  }
  std::sort(fracs.begin(), fracs.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    if (a.second->spec.priority != b.second->spec.priority)
      return a.second->spec.priority > b.second->spec.priority;
    return a.second->spec.id < b.second->spec.id;
  });
  for (const auto& [frac, j] : fracs) {
    if (used >= total) break;
    if (out[j->spec.id] < j->spec.demand_gpus) {
      ++out[j->spec.id];
      ++used;
    }
  }
  return out;
}

// -------------------------------------------------- ElasticWfsScheduler

ElasticWfsScheduler::ElasticWfsScheduler(DeviceType pool_type) : pool_type_(pool_type) {}

std::map<std::int64_t, Allocation> ElasticWfsScheduler::schedule(
    const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
    double /*now*/) {
  const auto it = cluster.per_type.find(pool_type_);
  check(it != cluster.per_type.end(), "cluster has no GPUs of the WFS pool type");

  // Mixed job sets: serving device-sets are latency-critical tenants, so
  // they carve their load-derived grants out of the pool first (minimums
  // guaranteed, headroom round-robined — see carve_serving_grants) and
  // the training jobs water-fill over what remains. Event-based like the
  // rest of WFS: every consult re-derives the carve from live load.
  ClusterInventory rest = cluster;
  std::map<std::int64_t, Allocation> serve_out =
      carve_serving_grants(rest, jobs, pool_type_);
  const std::int64_t total = rest.per_type[pool_type_];
  std::vector<const JobState*> train;
  for (const JobState* j : jobs)
    if (!j->is_serve()) train.push_back(j);

  // Algorithm 1, line 2: current running set, dropping finished jobs.
  std::vector<const JobState*> running;
  std::vector<const JobState*> queued;
  for (const JobState* j : train) {
    const bool was_admitted =
        std::find(admitted_.begin(), admitted_.end(), j->spec.id) != admitted_.end();
    (was_admitted ? running : queued).push_back(j);
  }
  // Queue orders by priority (desc), then arrival, then id.
  std::sort(queued.begin(), queued.end(), [](const JobState* a, const JobState* b) {
    if (a->spec.priority != b->spec.priority) return a->spec.priority > b->spec.priority;
    if (a->spec.arrival_s != b->spec.arrival_s) return a->spec.arrival_s < b->spec.arrival_s;
    return a->spec.id < b->spec.id;
  });

  auto current = weighted_fair_shares(total, running);

  // Algorithm 1, lines 3-9: admit the next queued job only if the
  // resulting fair shares do not shrink any strictly-higher-priority
  // running job's allocation.
  for (const JobState* cand : queued) {
    std::vector<const JobState*> with = running;
    with.push_back(cand);
    auto fair = weighted_fair_shares(total, with);
    bool hurts_higher = false;
    for (const JobState* r : running) {
      if (r->spec.priority > cand->spec.priority &&
          fair[r->spec.id] < current[r->spec.id]) {
        hurts_higher = true;
        break;
      }
    }
    if (hurts_higher || fair[cand->spec.id] == 0) break;
    running = std::move(with);
    current = std::move(fair);
    admitted_.push_back(cand->spec.id);
  }

  std::map<std::int64_t, Allocation> out = std::move(serve_out);
  for (const auto& [id, gpus] : current)
    if (gpus > 0) out[id] = Allocation::of(pool_type_, gpus);
  return out;
}

// ----------------------------------------------------- PriorityScheduler

PriorityScheduler::PriorityScheduler(DeviceType pool_type) : pool_type_(pool_type) {}

std::map<std::int64_t, Allocation> PriorityScheduler::schedule(
    const ClusterInventory& cluster, const std::vector<const JobState*>& jobs,
    double /*now*/) {
  const auto it = cluster.per_type.find(pool_type_);
  check(it != cluster.per_type.end(), "cluster has no GPUs of the pool type");

  // Running jobs keep their full demand (no resizing, no preemption).
  std::map<std::int64_t, Allocation> out;
  std::int64_t free = it->second;
  std::vector<const JobState*> queued;
  for (const JobState* j : jobs) {
    if (j->is_serve()) continue;
    if (j->running()) {
      out[j->spec.id] = Allocation::of(pool_type_, j->spec.demand_gpus);
      free -= j->spec.demand_gpus;
    } else {
      queued.push_back(j);
    }
  }
  check(free >= 0, "priority scheduler invariant violated");

  // Serving tenants carve from what the running jobs leave (they are
  // elastic even under a static training baseline — the training side is
  // what "static" refers to), so serving growth never reaches into a
  // running job's devices. If the serving minimums do not fit, the carve
  // says so.
  ClusterInventory rest = cluster;
  rest.per_type[pool_type_] = free;
  out.merge(carve_serving_grants(rest, jobs, pool_type_));
  free = rest.per_type[pool_type_];

  std::sort(queued.begin(), queued.end(), [](const JobState* a, const JobState* b) {
    if (a->spec.priority != b->spec.priority) return a->spec.priority > b->spec.priority;
    if (a->spec.arrival_s != b->spec.arrival_s) return a->spec.arrival_s < b->spec.arrival_s;
    return a->spec.id < b->spec.id;
  });
  // Strict priority order: the head of the queue blocks lower-priority
  // jobs (no backfilling), which is what leaves GPUs idle in Fig 10b.
  for (const JobState* j : queued) {
    if (j->spec.demand_gpus > free) break;
    out[j->spec.id] = Allocation::of(pool_type_, j->spec.demand_gpus);
    free -= j->spec.demand_gpus;
  }
  return out;
}

}  // namespace vf
