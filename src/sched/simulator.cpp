#include "sched/simulator.h"

#include <algorithm>
#include <array>
#include <utility>

#include "sched/cluster.h"
#include "util/common.h"

namespace vf {

std::int64_t ClusterInventory::total() const {
  std::int64_t n = 0;
  for (const auto& [t, c] : per_type) n += c;
  return n;
}

std::vector<double> SimResult::jcts() const {
  std::vector<double> out;
  for (const JobState& j : jobs) out.push_back(j.completion_s - j.spec.arrival_s);
  return out;
}

std::vector<double> SimResult::queueing_delays() const {
  std::vector<double> out;
  for (const JobState& j : jobs) out.push_back(j.first_start_s - j.spec.arrival_s);
  return out;
}

void validate_allocations(const ClusterInventory& cluster,
                          const std::map<std::int64_t, Allocation>& allocs) {
  // Runs on every consult: no heap work unless a check fails.
  std::array<std::int64_t, kNumDeviceTypes> used{};
  for (const auto& [id, a] : allocs)
    for (const auto& [t, c] : a.per_type) {
      check(c >= 0, [&] { return "negative allocation for job " + std::to_string(id); });
      used[static_cast<std::size_t>(t)] += c;
    }
  for (std::size_t i = 0; i < used.size(); ++i) {
    const auto t = static_cast<DeviceType>(i);
    const auto it = cluster.per_type.find(t);
    const std::int64_t have = it == cluster.per_type.end() ? 0 : it->second;
    check(used[i] <= have, [&] {
      return std::string("scheduler over-committed ") + device_type_name(t) + ": " +
             std::to_string(used[i]) + " > " + std::to_string(have);
    });
  }
}

std::map<std::int64_t, Allocation> carve_serving_grants(
    ClusterInventory& pool, const std::vector<const JobState*>& jobs,
    DeviceType pool_type) {
  std::vector<const JobState*> serve;
  for (const JobState* j : jobs)
    if (j->is_serve()) serve.push_back(j);
  std::map<std::int64_t, Allocation> out;
  if (serve.empty()) return out;

  std::sort(serve.begin(), serve.end(), [](const JobState* a, const JobState* b) {
    if (a->spec.priority != b->spec.priority)
      return a->spec.priority > b->spec.priority;
    return a->spec.id < b->spec.id;
  });

  std::int64_t& free = pool.per_type[pool_type];
  std::map<std::int64_t, std::int64_t> granted;

  // Pass 1: every serving job gets its live minimum — the latency-critical
  // floor a policy is never allowed to dip under. If the minimums alone do
  // not fit, the cluster cannot host the serving set at all.
  std::int64_t mins = 0;
  for (const JobState* j : serve) {
    check(j->live_min_gpus >= 1, [&] {
      return "serving job " + std::to_string(j->spec.id) +
             " has live_min_gpus < 1 (a granted serving set never runs empty)";
    });
    mins += j->live_min_gpus;
  }
  check(mins <= free, [&] {
    return "serving minimums (" + std::to_string(mins) + " GPUs) exceed the pool (" +
           std::to_string(free) + " " + device_type_name(pool_type) +
           "); the cluster cannot host the serving set";
  });
  for (const JobState* j : serve) {
    granted[j->spec.id] = j->live_min_gpus;
    free -= j->live_min_gpus;
  }

  // Pass 2: round-robin one device at a time, priority-desc / id-asc
  // order, toward each job's clamped desire. One device per turn (not
  // greedy take-all) so two bursting tenants split scarce headroom
  // instead of the first starving the second.
  bool progress = true;
  while (free > 0 && progress) {
    progress = false;
    for (const JobState* j : serve) {
      if (free == 0) break;
      const std::int64_t want = std::clamp(j->desired_gpus, j->live_min_gpus,
                                           j->live_max_gpus);
      std::int64_t& g = granted[j->spec.id];
      if (g < want) {
        ++g;
        --free;
        progress = true;
      }
    }
  }

  for (const auto& [id, g] : granted) out[id] = Allocation::of(pool_type, g);
  return out;
}

SimResult simulate(const ClusterInventory& cluster, std::vector<JobSpec> trace,
                   Scheduler& policy) {
  std::sort(trace.begin(), trace.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.arrival_s < b.arrival_s; });
  ClusterController controller(cluster, policy);
  for (JobSpec& spec : trace) {
    check(spec.kind == JobKind::kTrain,
          "simulate() drives analytic training jobs only; serving jobs are "
          "live replay loops — use the ClusterController (sched/cluster.h)");
    controller.add_train_job(std::move(spec));
  }
  ClusterReport report = controller.run();

  SimResult result;
  result.jobs = std::move(report.jobs);
  result.makespan_s = report.train_makespan_s;
  double busy_gpu_time = 0.0;
  for (const JobState& j : result.jobs)
    for (const AllocSegment& s : j.timeline)
      busy_gpu_time += static_cast<double>(s.alloc.total()) * (s.t1 - s.t0);
  result.avg_utilization =
      busy_gpu_time /
      (static_cast<double>(cluster.total()) * std::max(result.makespan_s, 1e-9));
  return result;
}

}  // namespace vf
