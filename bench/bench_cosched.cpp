// Cluster-scale train+serve co-scheduling A/B: ONE device economy under a
// pluggable policy (ClusterController) versus the classic static split
// ("a serving cluster and a training cluster"), at equal hardware.
//
// The cluster: 120 simulated V100s. The tenants: a single-model Server, a
// two-model ColocatedServer (both live replay loops consuming grants
// through the DeviceLease interface), one REAL training engine wrapped in
// an EngineTrainLease, and a queue of analytic training jobs whose demand
// saturates the pool. Serving load is bursty and staggered — the Server
// spikes early, the co-located pair late — so a static partition is
// either over-provisioned (wasting devices training wants) or
// under-provisioned (blowing SLOs in the burst). The co-scheduled economy
// moves the same devices to whichever side is loaded.
//
// Headline claims, enforced at the default workload (informational under
// overridden knobs):
//
//   1. Scale: the mixed job set runs on >= 100 simulated devices, under
//      BOTH policy families (weighted fair sharing and round-based Gavel).
//   2. At equal hardware, co-scheduling beats the static partition on the
//      worst model's SLO hit rate, for both policies.
//   3. It pays for that with at most 5% training-makespan degradation.
//   4. Determinism: both serving loops' schedule streams (per-model
//      records, resizes, batches, faults) and the whole controller report
//      (every job state, grant, the training makespan and the final
//      clock) replay bit-identically across host worker counts {0, 2, 8}
//      — decided by the run digest (serve/digest.h), which names the
//      stream that moved.
//
// --json emits the perf-trajectory record; --metrics snapshots the
// sched.* + serve.* instrument families from the co-scheduled WFS run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

using namespace vf;
using namespace vf::serve;
using vf::bench::Flags;
using vf::bench::TaskBox;

namespace {

struct BenchParams {
  std::uint64_t seed = 42;
  std::int64_t devices = 120;      ///< cluster inventory (gate: >= 100)
  std::int64_t serve_max = 8;      ///< elastic ceiling per serving lease
  std::int64_t queue_cap = 8192;
  std::int64_t max_batch = 64;
  double max_wait_s = 0.01;
  double deadline_s = 0.5;
  double steady_rps = 120.0;
  double burst_rps = 1200.0;
  double burst_s = 3.0;
  double tail_s = 1.5;
  std::int64_t lease_steps = 60;   ///< real-engine training lease length
  std::int64_t train_steps = 6000; ///< analytic training job length
  double gavel_round_s = 2.0;
};

BenchParams params_from(const Flags& flags) {
  BenchParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  p.devices = flags.get_int("devices", 120);
  p.steady_rps = flags.get_double("steady_rps", p.steady_rps);
  p.burst_rps = flags.get_double("burst_rps", p.burst_rps, 1200.0);
  p.burst_s = flags.get_double("burst_s", p.burst_s, 1.6);
  p.tail_s = flags.get_double("tail_s", p.tail_s, 1.0);
  p.lease_steps = flags.get_int("lease_steps", p.lease_steps, 30);
  p.train_steps = flags.get_int("train_steps", p.train_steps, 2500);
  return p;
}

ElasticPolicy elastic(std::int64_t max_devices, std::int64_t min_devices = 1) {
  ElasticPolicy e;
  e.enabled = true;
  e.high_watermark = 48;
  // Shrink only when nearly idle: a rolling migration stalls dispatch for
  // a deadline-scale window, so giving devices back eagerly between burst
  // waves costs two migrations AND the refill backlog.
  e.low_watermark = 1;
  e.min_devices = min_devices;
  e.max_devices = max_devices;
  e.cooldown_batches = 1;
  return e;
}

/// Server (model 0) bursts early; the co-located pair (models 1, 2)
/// bursts late — the statistical-multiplexing shape.
std::vector<InferRequest> early_trace(const BenchParams& p, std::size_t pool) {
  return phased_poisson_trace(p.seed,
                              {{p.steady_rps, 0.5},
                               {p.burst_rps, p.burst_s},
                               {p.steady_rps / 2.0, p.burst_s + p.tail_s}},
                              pool);
}

std::vector<std::vector<InferRequest>> late_traces(const BenchParams& p,
                                                   std::size_t pool_b,
                                                   std::size_t pool_c) {
  return {phased_poisson_trace(p.seed + 1,
                               {{p.steady_rps, 0.5 + p.burst_s},
                                {p.burst_rps, p.burst_s},
                                {p.steady_rps / 2.0, p.tail_s}},
                               pool_b),
          phased_poisson_trace(p.seed + 2,
                               {{p.steady_rps / 2.0, 0.5 + p.burst_s},
                                {p.burst_rps / 2.0, p.burst_s},
                                {p.steady_rps / 2.0, p.tail_s}},
                               pool_c)};
}

JobSpec serve_spec(std::int64_t id, std::int64_t demand, std::int64_t max_gpus) {
  JobSpec j;
  j.id = id;
  j.kind = JobKind::kServe;
  j.priority = 10.0;
  j.demand_gpus = demand;  // the static partition pins it here
  j.min_gpus = 1;
  j.max_gpus = max_gpus;
  return j;
}

/// The analytic training queue: staggered arrivals whose total demand
/// saturates the 120-device pool once serving is carved out.
std::vector<JobSpec> train_jobs(const BenchParams& p) {
  struct Shape { std::int64_t demand; double arrival; };
  const std::vector<Shape> shapes = {{32, 0.0}, {24, 0.0},  {16, 2.0},
                                     {16, 4.0}, {8, 6.0},   {8, 8.0},
                                     {8, 10.0}, {8, 12.0}};
  std::vector<JobSpec> jobs;
  std::int64_t id = 100;
  for (const Shape& s : shapes) {
    JobSpec j;
    j.id = id++;
    j.arrival_s = s.arrival;
    j.workload = "resnet56";
    j.profile = model_profile("resnet56");
    j.global_batch = 128;
    j.total_steps = p.train_steps;
    j.demand_gpus = s.demand;
    jobs.push_back(j);
  }
  return jobs;
}

enum class PolicyKind { kWfs, kGavel };

const char* policy_label(PolicyKind k) {
  return k == PolicyKind::kWfs ? "wfs" : "gavel";
}

struct RunOutcome {
  std::vector<SloSummary> summaries;  ///< models 0 (server), 1, 2 (colocated)
  RunDigest digest;  ///< both loops; lease = the whole controller report
  std::vector<GrantRecord> grants;
  double train_makespan_s = 0.0;
  double end_s = 0.0;
  double worst_hit_rate = 1.0;
};

RunOutcome run_cluster(const BenchParams& p, PolicyKind kind, bool static_split,
                       std::int64_t workers, obs::Observability obs = {}) {
  const TaskBox box_a("cola-sim", p.seed);
  const TaskBox box_b("cola-sim", p.seed + 1);
  const TaskBox box_c("mrpc-sim", p.seed + 2);
  const TaskBox box_t("mrpc-sim", p.seed + 3);

  // Serving lease 1: single-model Server.
  VirtualFlowEngine eng_a = box_a.engine("bert-base", 8, 1, workers, 42);
  ServerConfig scfg;
  scfg.continuous = true;
  scfg.queue_capacity = p.queue_cap;
  scfg.batch = {p.max_batch, p.max_wait_s};
  scfg.deadline_s = p.deadline_s;
  scfg.elastic = elastic(p.serve_max);
  Server server(eng_a, *box_a.task.val, scfg);
  server.set_observability(obs);
  server.set_cluster_governed();
  const auto trace_a = early_trace(p, box_a.task.val->size());
  server.begin(trace_a);

  // Serving lease 2: two models co-located on ONE shared device set. The
  // set hosts two tenants, so its elastic ceiling (and VN count) is two
  // single-model ceilings.
  const std::int64_t colo_max = 2 * p.serve_max;
  VirtualFlowEngine eng_b = box_b.engine("bert-base", colo_max, 2, workers, 42);
  VirtualFlowEngine eng_c = box_c.engine("bert-base", colo_max, 2, workers, 42);
  ModelRegistry registry;
  ModelConfig mc_b;
  mc_b.name = "model_b";
  mc_b.queue_capacity = p.queue_cap;
  mc_b.batch = {p.max_batch, p.max_wait_s};
  mc_b.deadline_s = p.deadline_s;
  ModelConfig mc_c = mc_b;
  mc_c.name = "model_c";
  registry.add(eng_b, *box_b.task.val, mc_b);
  registry.add(eng_c, *box_c.task.val, mc_c);
  ColocationConfig ccfg;
  ccfg.continuous = true;
  // The rolling-migration set never goes below its built size: shrinking
  // 2 -> 1 at an empty queue buys one device back at the price of a
  // cutover stall when the steady stream resumes.
  ccfg.elastic = elastic(colo_max, /*min_devices=*/2);
  ColocatedServer colo(registry, ccfg);
  colo.set_observability(obs);
  colo.set_cluster_governed();
  const auto traces_bc =
      late_traces(p, box_b.task.val->size(), box_c.task.val->size());
  colo.begin(traces_bc);

  // A real training engine on the same economy.
  VirtualFlowEngine eng_t = box_t.engine("bert-base", 8, 2, workers, 42);
  EngineTrainLease lease(eng_t, p.lease_steps, DeviceType::kV100);
  JobSpec lease_spec;
  lease_spec.id = 99;
  lease_spec.arrival_s = 0.0;
  lease_spec.workload = "bert-base";
  lease_spec.profile = model_profile("bert-base");
  lease_spec.global_batch = box_t.recipe.global_batch;
  lease_spec.total_steps = p.lease_steps;
  lease_spec.demand_gpus = 2;
  JobSpec server_spec = serve_spec(0, /*demand=*/2, p.serve_max);
  JobSpec colo_spec = serve_spec(1, /*demand=*/4, colo_max);

  std::unique_ptr<Scheduler> inner;
  if (kind == PolicyKind::kWfs) {
    inner = std::make_unique<ElasticWfsScheduler>();
  } else {
    GavelOptions gopt;
    gopt.round_s = p.gavel_round_s;
    gopt.restart_penalty_s = 1.0;  // VirtualFlow resize, not checkpoint-restart
    inner = std::make_unique<GavelScheduler>(gopt);
  }
  std::unique_ptr<Scheduler> policy;
  if (static_split) {
    policy = std::make_unique<StaticPartitionScheduler>(*inner, DeviceType::kV100);
  }
  Scheduler& chosen = static_split ? *policy : *inner;

  ClusterInventory cluster;
  cluster.per_type[DeviceType::kV100] = p.devices;
  ClusterController controller(cluster, chosen);
  controller.set_observability(obs);
  controller.add_serve_job(server_spec, server);
  controller.add_serve_job(colo_spec, colo);
  controller.add_train_lease(lease_spec, lease);
  for (const JobSpec& j : train_jobs(p)) controller.add_train_job(j);

  const ClusterReport report = controller.run();
  server.finish();
  colo.finish();

  RunOutcome out;
  out.summaries.push_back(server.slo().summary());
  out.summaries.push_back(colo.slo(0).summary());
  out.summaries.push_back(colo.slo(1).summary());
  out.digest = digest({server, colo}, obs);
  out.digest.lease = report_digest(report);
  out.grants = report.grants;
  out.train_makespan_s = report.train_makespan_s;
  out.end_s = report.end_s;
  for (const SloSummary& s : out.summaries)
    out.worst_hit_rate = std::min(out.worst_hit_rate, s.hit_rate);
  return out;
}

void print_outcome(const char* label, const RunOutcome& o) {
  std::printf("  %-16s worst_slo_hit=%.4f  train_makespan=%8.1f s  grants=%3zu"
              "  end=%8.1f s\n",
              label, o.worst_hit_rate, o.train_makespan_s, o.grants.size(),
              o.end_s);
  for (std::size_t m = 0; m < o.summaries.size(); ++m) {
    const SloSummary& s = o.summaries[m];
    std::printf("    model %zu: served=%6lld  hit=%.4f  p99=%.1f ms\n", m,
                static_cast<long long>(s.completed), s.hit_rate, s.p99_s * 1e3);
  }
  for (const GrantRecord& g : o.grants)
    std::printf("    grant t=%7.3f job=%lld %lld->%lld mig=%.3f\n", g.time_s,
                static_cast<long long>(g.job_id),
                static_cast<long long>(g.from_devices),
                static_cast<long long>(g.to_devices), g.migration_s);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "rng seed (default 42)"},
               {"devices", "cluster inventory in V100s (default 120)"},
               {"steady_rps", "steady-state arrival rate per model"},
               {"burst_rps", "burst arrival rate (smoke: 1200)"},
               {"burst_s", "burst duration seconds (smoke: 0.8)"},
               {"tail_s", "post-burst tail seconds (smoke: 1.0)"},
               {"lease_steps", "real training-lease steps (smoke: 30)"},
               {"train_steps", "analytic training job steps (smoke: 2500)"},
               {"smoke", "tiny workload for CI (0/1)"},
               {"json", "write perf-trajectory JSON to this path"},
               {"trace", "write Chrome trace-event JSON to this path"},
               {"metrics", "write metrics snapshot to this path"}});
  if (flags.help_requested()) {
    flags.print_help("bench_cosched: train+serve co-scheduling vs static split");
    return 0;
  }
  const BenchParams p = params_from(flags);
  const bool custom_load =
      flags.overridden("devices") || flags.overridden("steady_rps") ||
      flags.overridden("burst_rps") || flags.overridden("burst_s") ||
      flags.overridden("tail_s") || flags.overridden("train_steps") ||
      flags.overridden("lease_steps");

  std::printf("bench_cosched: %lld V100s, 3 serving models (2 leases) + 1 live "
              "training lease + 8 analytic training jobs\n",
              static_cast<long long>(p.devices));

  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics;
  obs::Observability obs{&trace_rec, &metrics};

  struct PolicyResult {
    RunOutcome cosched, stat;
    const char* moved = nullptr;  ///< first stream a worker count moved
  };
  std::map<std::string, PolicyResult> results;
  for (PolicyKind kind : {PolicyKind::kWfs, PolicyKind::kGavel}) {
    PolicyResult r;
    // Observability attaches to the WFS co-scheduled run only: one run's
    // instruments, not four runs merged.
    const bool instrument = kind == PolicyKind::kWfs;
    r.cosched = run_cluster(p, kind, /*static_split=*/false, /*workers=*/0,
                            instrument ? obs : obs::Observability{});
    r.stat = run_cluster(p, kind, /*static_split=*/true, /*workers=*/0);
    for (std::int64_t workers : {2, 8}) {
      const RunOutcome other =
          run_cluster(p, kind, /*static_split=*/false, workers);
      if (r.moved == nullptr) r.moved = first_difference(r.cosched.digest, other.digest);
    }
    std::printf("\npolicy=%s\n", policy_label(kind));
    print_outcome("co-scheduled", r.cosched);
    print_outcome("static-split", r.stat);
    results[policy_label(kind)] = r;
  }

  // ---- claims ----
  bool ok = true;
  const char* miss = custom_load ? "no (informational: custom workload)" : "NO — BUG";
  auto gate = [&](bool pass, const char* text) {
    std::printf("  %s: %s\n", text, pass ? "yes" : miss);
    if (!pass && !custom_load) ok = false;
  };

  std::printf("\nclaims:\n");
  gate(p.devices >= 100, "cluster scale >= 100 simulated devices");
  for (const auto& [name, r] : results) {
    std::string t1 = name + ": co-scheduled beats static split on worst-model SLO hit";
    gate(r.cosched.worst_hit_rate > r.stat.worst_hit_rate, t1.c_str());
    std::string t2 = name + ": training makespan within 5% of static split";
    gate(r.cosched.train_makespan_s <= 1.05 * r.stat.train_makespan_s, t2.c_str());
    std::string t3 = name + ": bit-identical across workers {0, 2, 8}";
    if (r.moved != nullptr) t3 += std::string(" (") + r.moved + " moved)";
    gate(r.moved == nullptr, t3.c_str());
  }

  const std::string json = flags.json_path();
  if (!json.empty()) {
    vf::bench::JsonReport report("bench_cosched");
    report.add("cosched.devices", static_cast<double>(p.devices), "devices");
    for (const auto& [name, r] : results) {
      const std::string base = "cosched." + name + ".";
      report.add(base + "worst_slo_hit", r.cosched.worst_hit_rate, "fraction");
      report.add(base + "static.worst_slo_hit", r.stat.worst_hit_rate, "fraction");
      report.add(base + "slo_gain",
                 r.cosched.worst_hit_rate - r.stat.worst_hit_rate, "fraction");
      report.add(base + "train_makespan_s", r.cosched.train_makespan_s, "s");
      report.add(base + "static.train_makespan_s", r.stat.train_makespan_s, "s");
      report.add(base + "grants", static_cast<double>(r.cosched.grants.size()),
                 "events");
    }
    if (!report.save(json)) ok = false;
  }
  if (!flags.metrics_path().empty() && !metrics.save(flags.metrics_path()))
    ok = false;
  if (!flags.trace_path().empty() && !trace_rec.save(flags.trace_path()))
    ok = false;

  std::printf("\nbench_cosched: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
