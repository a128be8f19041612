// Multi-model co-location A/B: two models sharing ONE elastic device set
// (ColocatedServer) versus the same two models on two DEDICATED half-size
// device sets (one Server each). Staggered bursts — model A spikes early,
// model B late — are the statistical-multiplexing shape co-location
// exists for: the shared budget hands the bursting model the whole set
// while the quiet one idles, where a dedicated split caps each model at
// its own half.
//
// Headline claims, enforced at the default workload (informational under
// overridden knobs, like bench_serving):
//
//   1. Both co-located models meet their per-model SLOs (hit rate gates).
//   2. Co-location serves at least as many requests as the dedicated
//      split, at no worse p99 queue wait (worst model of each setup).
//   3. The shared budget closes the elastic loop: the bursts grow the
//      shared set, the drains shrink it back.
//   4. Determinism: every schedule stream — each model's records, the
//      shared resize timeline, the batch and fault logs (the run digest,
//      serve/digest.h) — replays bit-identically across host worker
//      counts {0, 2, 8}.
//
// Prints per-model SLO tables for both setups, the shared-set resize
// timeline, and the co-located vs dedicated comparison. Exit 1 when any
// enforced claim fails. --json emits the perf-trajectory record.
#include <cstdio>
#include <iostream>
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
  std::string task_a = "cola-sim";
  std::string task_b = "cola-sim";
  std::string profile = "bert-base";
  std::int64_t vns = 8;
  std::int64_t max_devices = 8;  ///< shared ceiling; dedicated halves get max/2
  std::int64_t queue_cap = 4096;
  std::int64_t max_batch = 64;
  double max_wait_s = 0.01;
  double deadline_a_s = 0.5;
  double deadline_b_s = 0.5;
  double steady_rps = 150.0;
  double burst_rps = 2000.0;
  double burst_s = 2.5;
  double tail_s = 2.0;
};

/// Model A bursts early, model B late (staggered by A's burst window).
std::vector<std::vector<InferRequest>> staggered_traces(const BenchParams& p,
                                                        const Dataset& pool_a,
                                                        const Dataset& pool_b) {
  // Both traces span the same horizon: A bursts in [0.5, 0.5 + burst],
  // B in [0.5 + burst, 0.5 + 2*burst] — one model is always quiet while
  // the other spikes.
  return {phased_poisson_trace(p.seed,
                               {{p.steady_rps, 0.5},
                                {p.burst_rps, p.burst_s},
                                {p.steady_rps / 2.0, p.burst_s + p.tail_s}},
                               pool_a.size()),
          phased_poisson_trace(p.seed + 1,
                               {{p.steady_rps, 0.5 + p.burst_s},
                                {p.burst_rps, p.burst_s},
                                {p.steady_rps / 2.0, p.tail_s}},
                               pool_b.size())};
}

ElasticPolicy elastic(std::int64_t max_devices) {
  ElasticPolicy e;
  e.enabled = true;
  e.high_watermark = 48;
  e.low_watermark = 4;
  e.min_devices = 1;
  e.max_devices = max_devices;
  e.cooldown_batches = 1;
  return e;
}

struct SetupOutcome {
  std::vector<SloSummary> summaries;  // per model
  RunDigest digest;                   // co-located runs only
  std::vector<ResizeEvent> resizes;
  double drained_at_s = 0.0;
};

SetupOutcome run_colocated(const BenchParams& p, std::int64_t workers,
                           obs::Observability obs = {}) {
  const TaskBox box_a(p.task_a, p.seed);
  const TaskBox box_b(p.task_b, p.seed);
  // The shared set starts at 2 devices — the same total hardware the
  // dedicated split starts with (1 + 1) — and may grow to max_devices,
  // the same total the split's two halves may reach together.
  VirtualFlowEngine eng_a = box_a.engine(p.profile, p.vns, /*devices=*/2, workers, 42);
  VirtualFlowEngine eng_b = box_b.engine(p.profile, p.vns, /*devices=*/2, workers, 42);

  ModelRegistry registry;
  ModelConfig mc_a;
  mc_a.name = p.task_a;
  mc_a.queue_capacity = p.queue_cap;
  mc_a.batch = {p.max_batch, p.max_wait_s};
  mc_a.deadline_s = p.deadline_a_s;
  ModelConfig mc_b = mc_a;
  mc_b.name = p.task_b;
  mc_b.deadline_s = p.deadline_b_s;
  registry.add(eng_a, *box_a.task.val, mc_a);
  registry.add(eng_b, *box_b.task.val, mc_b);

  ColocationConfig cfg;
  cfg.continuous = true;
  cfg.elastic = elastic(p.max_devices);
  ColocatedServer server(registry, cfg);
  server.set_observability(obs);
  server.replay(staggered_traces(p, *box_a.task.val, *box_b.task.val));

  SetupOutcome out;
  for (std::int32_t m = 0; m < 2; ++m) out.summaries.push_back(server.slo(m).summary());
  out.digest = digest(server, obs);
  out.resizes = server.resizes();
  out.drained_at_s = server.now_s();
  return out;
}

SetupOutcome run_dedicated(const BenchParams& p) {
  SetupOutcome out;
  const TaskBox box_a(p.task_a, p.seed);
  const TaskBox box_b(p.task_b, p.seed);
  const auto traces = staggered_traces(p, *box_a.task.val, *box_b.task.val);

  const TaskBox* boxes[2] = {&box_a, &box_b};
  const double deadlines[2] = {p.deadline_a_s, p.deadline_b_s};
  for (int m = 0; m < 2; ++m) {
    // Each model gets its own half-size device set: starts at 1 device,
    // elastic ceiling max_devices / 2 — it can never borrow the other
    // model's idle half.
    VirtualFlowEngine engine =
        boxes[m]->engine(p.profile, p.vns, /*devices=*/1, /*workers=*/0, 42);
    ServerConfig scfg;
    scfg.queue_capacity = p.queue_cap;
    scfg.batch = {p.max_batch, p.max_wait_s};
    scfg.deadline_s = deadlines[m];
    scfg.continuous = true;
    scfg.elastic = elastic(std::max<std::int64_t>(1, p.max_devices / 2));
    Server server(engine, *boxes[m]->task.val, scfg);
    server.replay(traces[static_cast<std::size_t>(m)]);
    out.summaries.push_back(server.slo().summary());
    for (const ResizeEvent& e : server.resizes()) out.resizes.push_back(e);
    out.drained_at_s = std::max(out.drained_at_s, server.now_s());
  }
  return out;
}

void print_setup_table(const char* title, const BenchParams& p,
                       const SetupOutcome& o) {
  std::printf("\n  %s\n", title);
  Table table({"model", "served", "rejected", "p50 (ms)", "p99 (ms)",
               "mean wait (ms)", "p99 wait (ms)", "SLO hit"});
  const std::string names[2] = {p.task_a, p.task_b};
  for (std::size_t m = 0; m < 2; ++m) {
    const SloSummary& s = o.summaries[m];
    table.row()
        .cell(names[m])
        .cell(s.completed)
        .cell(s.rejected)
        .cell(s.p50_s * 1e3, 2)
        .cell(s.p99_s * 1e3, 2)
        .cell(s.mean_queue_wait_s * 1e3, 2)
        .cell(s.p99_queue_wait_s * 1e3, 2)
        .cell(s.hit_rate, 3);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task-a", "model A's proxy task (default cola-sim)"},
               {"task-b", "model B's proxy task (default cola-sim)"},
               {"profile", "paper model profile for timing (default bert-base)"},
               {"vns", "virtual nodes per model (default 8)"},
               {"max-devices", "shared elastic ceiling; dedicated halves "
                               "get half each (default 8)"},
               {"queue-cap", "per-model admission queue capacity (default 4096)"},
               {"max-batch", "batch former size trigger (default 64)"},
               {"max-wait-ms", "batch former timeout trigger (default 10)"},
               {"deadline-a-ms", "model A latency SLO (default 500)"},
               {"deadline-b-ms", "model B latency SLO (default 500)"},
               {"steady-rps", "steady arrival rate per model (default 150)"},
               {"burst-rps", "burst arrival rate (default 2000)"},
               {"burst-s", "burst duration per model (default 2.5)"},
               {"seed", "trace + model seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help("Multi-model co-location on a shared device set: "
                     "co-located vs dedicated-split A/B, per-model SLOs, "
                     "shared elastic budget, bit-exact replay");
    return 0;
  }

  BenchParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  p.task_a = flags.get_string("task-a", "cola-sim");
  p.task_b = flags.get_string("task-b", "cola-sim");
  p.profile = flags.get_string("profile", "bert-base");
  p.vns = flags.get_int("vns", 8);
  p.max_devices = flags.get_int("max-devices", 8);
  p.queue_cap = flags.get_int("queue-cap", 4096);
  p.max_batch = flags.get_int("max-batch", 64);
  p.max_wait_s = flags.get_double("max-wait-ms", 10.0) / 1e3;
  p.deadline_a_s = flags.get_double("deadline-a-ms", 500.0) / 1e3;
  p.deadline_b_s = flags.get_double("deadline-b-ms", 500.0) / 1e3;
  p.steady_rps = flags.get_double("steady-rps", 150.0);
  p.burst_rps = flags.get_double("burst-rps", 2000.0);
  p.burst_s = flags.get_double("burst-s", 2.5, /*smoke_def=*/0.6);
  p.tail_s = flags.smoke() ? 1.0 : 2.0;

  print_banner(std::cout,
               "vf::serve — multi-model co-location on a shared device set");
  std::printf("  %s + %s on %s, %lld VNs each; staggered bursts %.0f -> %.0f rps\n",
              p.task_a.c_str(), p.task_b.c_str(), p.profile.c_str(),
              static_cast<long long>(p.vns), p.steady_rps, p.burst_rps);
  std::printf("  co-located: one shared set, 2 -> %lld devices | dedicated: two "
              "halves, 1 -> %lld devices each\n",
              static_cast<long long>(p.max_devices),
              static_cast<long long>(p.max_devices / 2));

  // Determinism sweep (the claim-4 witness) doubles as the co-located run.
  const std::vector<std::int64_t> worker_counts = {0, 2, 8};
  std::vector<SetupOutcome> colo_runs;
  // The reference run records the per-model observability timeline
  // (one track per device, per-model metrics prefixes) for --trace /
  // --metrics; recording never perturbs records, which the cross-worker
  // bit-identity claim below would catch.
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  for (const std::int64_t w : worker_counts)
    colo_runs.push_back(run_colocated(
        p, w,
        w == worker_counts.front()
            ? obs::Observability{&trace, &metrics}
            : obs::Observability{}));
  const SetupOutcome& colo = colo_runs.front();
  const SetupOutcome dedicated = run_dedicated(p);

  print_setup_table("co-located (shared elastic budget):", p, colo);
  print_setup_table("dedicated split (two half-size sets):", p, dedicated);

  std::printf("\n  shared-set resize timeline:\n");
  for (const ResizeEvent& e : colo.resizes) {
    std::printf("    t=%7.3fs  %lld -> %lld devices  (combined depth %lld, "
                "migration %.4fs)\n",
                e.time_s, static_cast<long long>(e.from_devices),
                static_cast<long long>(e.to_devices),
                static_cast<long long>(e.queue_depth), e.migration_s);
  }

  const std::int64_t colo_served =
      colo.summaries[0].completed + colo.summaries[1].completed;
  const std::int64_t ded_served =
      dedicated.summaries[0].completed + dedicated.summaries[1].completed;
  const double colo_p99_wait = std::max(colo.summaries[0].p99_queue_wait_s,
                                        colo.summaries[1].p99_queue_wait_s);
  const double ded_p99_wait = std::max(dedicated.summaries[0].p99_queue_wait_s,
                                       dedicated.summaries[1].p99_queue_wait_s);

  std::printf("\n  co-located vs dedicated: served %lld vs %lld  |  worst-model "
              "p99 wait %.2f ms vs %.2f ms\n",
              static_cast<long long>(colo_served), static_cast<long long>(ded_served),
              colo_p99_wait * 1e3, ded_p99_wait * 1e3);

  // Claims. Calibrated against the default staggered-burst workload;
  // overridden knobs make them informational (determinism always gates).
  bool custom_load = false;
  for (const char* knob :
       {"task-a", "task-b", "profile", "vns", "max-devices", "queue-cap",
        "max-batch", "max-wait-ms", "deadline-a-ms", "deadline-b-ms",
        "steady-rps", "burst-rps", "burst-s", "seed"})
    custom_load |= flags.overridden(knob);

  const char* moved = nullptr;
  for (std::size_t i = 1; i < colo_runs.size() && moved == nullptr; ++i)
    moved = first_difference(colo.digest, colo_runs[i].digest);
  bool grew = false, shrank = false;
  for (const ResizeEvent& e : colo.resizes) {
    grew |= e.to_devices > e.from_devices;
    shrank |= e.to_devices < e.from_devices;
  }
  const bool slo_met =
      colo.summaries[0].hit_rate >= 0.95 && colo.summaries[1].hit_rate >= 0.95;
  const bool served_ok = colo_served >= ded_served;
  const bool wait_ok = colo_p99_wait <= ded_p99_wait;

  bool ok = true;
  const std::string json = flags.json_path();
  if (!json.empty()) {
    vf::bench::JsonReport report("bench_colocation");
    const char* model_names[2] = {"model_a", "model_b"};
    for (std::size_t m = 0; m < 2; ++m) {
      const std::string colo_base = std::string("colocation.colocated.") + model_names[m] + ".";
      const std::string ded_base = std::string("colocation.dedicated.") + model_names[m] + ".";
      const SloSummary& cs = colo.summaries[m];
      const SloSummary& ds = dedicated.summaries[m];
      report.add(colo_base + "served", static_cast<double>(cs.completed), "requests");
      report.add(colo_base + "p99_latency_ms", cs.p99_s * 1e3, "ms");
      report.add(colo_base + "p99_queue_wait_ms", cs.p99_queue_wait_s * 1e3, "ms");
      report.add(colo_base + "slo_hit_rate", cs.hit_rate, "fraction");
      report.add(ded_base + "served", static_cast<double>(ds.completed), "requests");
      report.add(ded_base + "p99_latency_ms", ds.p99_s * 1e3, "ms");
      report.add(ded_base + "p99_queue_wait_ms", ds.p99_queue_wait_s * 1e3, "ms");
      report.add(ded_base + "slo_hit_rate", ds.hit_rate, "fraction");
    }
    report.add("colocation.served_gain",
               static_cast<double>(colo_served - ded_served), "requests");
    report.add("colocation.resizes", static_cast<double>(colo.resizes.size()),
               "events");
    report.add("colocation.obs.trace_events", static_cast<double>(trace.size()),
               "events");
    if (!report.save(json)) ok = false;
  }
  if (!flags.trace_path().empty() && !trace.save(flags.trace_path())) ok = false;
  if (!flags.metrics_path().empty() && !metrics.save(flags.metrics_path()))
    ok = false;

  const char* miss = custom_load ? "no (informational: custom workload)" : "NO — BUG";
  std::printf("\n  per-model SLO hit rates >= 0.95: %s\n", slo_met ? "yes" : miss);
  std::printf("  served >= dedicated split: %s\n", served_ok ? "yes" : miss);
  std::printf("  worst-model p99 queue wait <= dedicated: %s\n", wait_ok ? "yes" : miss);
  std::printf("  shared budget grew and shrank: %s\n", (grew && shrank) ? "yes" : miss);
  std::printf("  bit-identical per-model records across workers {0, 2, 8}: %s\n",
              vf::bench::identity_verdict(moved).c_str());

  if (moved != nullptr) ok = false;
  if (!custom_load && (!slo_met || !served_ok || !wait_ok || !grew || !shrank))
    ok = false;
  return ok ? 0 : 1;
}
