// Serving harness: replays a seeded open-loop Poisson arrival trace
// (steady -> burst -> drain) through vf::serve on virtual nodes, and
// verifies the subsystem's headline claims:
//
//   1. Elasticity closes the loop: the burst drives queue depth over the
//      high watermark, the server grows the device set with the engine's
//      seamless resize, and the drain shrinks it back — at least one
//      queue-depth-triggered resize must occur.
//   2. Determinism: every schedule stream — request records, resize
//      timeline, batch log, fault log (the run digest, serve/digest.h) —
//      is bit-identical across host worker counts num_threads in
//      {0, 2, 8}, in whichever batching mode --continuous selects.
//   3. Continuous batching pays off: admitting arrivals into in-flight
//      per-VN slots (--continuous=1) yields lower mean queue wait than
//      draining at batch boundaries (--continuous=0) on the same
//      high-load trace. The A/B table prints the p95/p99 queue-wait
//      reduction.
//
// Prints per-worker-count SLO tables (p50/p95/p99, deadline hit rate,
// rejections), the resize timeline, and the batch-vs-continuous A/B
// queue-wait table. Exit 1 when any claim fails; a failed bit-identity
// claim names the stream that moved.
#include <chrono>
#include <cstdio>
#include <iostream>
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

/// Interleaved off/on rounds of the observability wall gate.
constexpr int kObsRounds = 5;

struct BenchParams {
  std::uint64_t seed = 42;
  std::string task = "mrpc-sim";
  std::string profile = "bert-base";
  std::int64_t vns = 8;
  std::int64_t devices = 1;
  std::int64_t max_devices = 8;
  std::int64_t queue_cap = 512;
  std::int64_t max_batch = 64;
  double max_wait_s = 0.01;
  double deadline_s = 0.5;
  double steady_rps = 300.0;
  double burst_rps = 4000.0;
  double steady_s = 0.5;
  double burst_s = 2.0;
  double drain_s = 2.0;
  bool continuous = false;
};

struct ReplayOutcome {
  RunDigest digest;
  std::vector<ResizeEvent> resizes;
  SloSummary summary;
  double drained_at_s = 0.0;
};

ReplayOutcome run_replay(const BenchParams& p, std::int64_t workers,
                         obs::Observability obs = {},
                         double* wall_s = nullptr) {
  const TaskBox box(p.task, p.seed);
  VirtualFlowEngine engine = box.engine(p.profile, p.vns, p.devices, workers, p.seed);

  ServerConfig scfg;
  scfg.queue_capacity = p.queue_cap;
  scfg.batch = {p.max_batch, p.max_wait_s};
  scfg.deadline_s = p.deadline_s;
  scfg.continuous = p.continuous;
  scfg.elastic.enabled = true;
  scfg.elastic.high_watermark = 48;
  scfg.elastic.low_watermark = 4;
  scfg.elastic.min_devices = 1;
  scfg.elastic.max_devices = p.max_devices;
  scfg.elastic.cooldown_batches = 1;

  Server server(engine, *box.task.val, scfg);
  server.set_observability(obs);
  const auto trace = phased_poisson_trace(p.seed,
                                          {{p.steady_rps, p.steady_s},
                                           {p.burst_rps, p.burst_s},
                                           {p.steady_rps / 2.0, p.drain_s}},
                                          box.task.val->size());
  const auto t0 = std::chrono::steady_clock::now();
  server.replay(trace);
  if (wall_s != nullptr)
    *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();

  ReplayOutcome out;
  out.digest = digest(server, obs);
  out.resizes = server.resizes();
  out.summary = server.slo().summary();
  out.drained_at_s = server.now_s();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task", "proxy task serving the requests (default mrpc-sim)"},
               {"profile", "paper model profile for timing (default bert-base)"},
               {"vns", "virtual nodes (default 8; also the device ceiling)"},
               {"devices", "initial device count (default 1)"},
               {"max-devices", "elastic ceiling (default 8)"},
               {"queue-cap", "admission queue capacity (default 512)"},
               {"max-batch", "batch former size trigger (default 64)"},
               {"max-wait-ms", "batch former timeout trigger (default 10)"},
               {"deadline-ms", "per-request latency SLO (default 500)"},
               {"steady-rps", "steady arrival rate (default 300)"},
               {"burst-rps", "burst arrival rate (default 4000)"},
               {"burst-s", "burst duration in virtual seconds (default 2)"},
               {"continuous", "1 = continuous (in-flight) batching, 0 = "
                              "batch-boundary (default 0)"},
               {"seed", "trace + model seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help("Serving on virtual nodes: open-loop replay, SLO percentiles, "
                     "elasticity, batch vs continuous A/B");
    return 0;
  }

  BenchParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  p.task = flags.get_string("task", "mrpc-sim");
  p.profile = flags.get_string("profile", "bert-base");
  p.vns = flags.get_int("vns", 8);
  p.devices = flags.get_int("devices", 1);
  p.max_devices = flags.get_int("max-devices", 8);
  p.queue_cap = flags.get_int("queue-cap", 512);
  p.max_batch = flags.get_int("max-batch", 64);
  p.max_wait_s = flags.get_double("max-wait-ms", 10.0) / 1e3;
  p.deadline_s = flags.get_double("deadline-ms", 500.0) / 1e3;
  p.steady_rps = flags.get_double("steady-rps", 300.0);
  p.burst_rps = flags.get_double("burst-rps", 4000.0);
  p.burst_s = flags.get_double("burst-s", 2.0, /*smoke_def=*/0.5);
  p.steady_s = flags.smoke() ? 0.25 : 0.5;
  p.drain_s = flags.smoke() ? 1.0 : 2.0;
  p.continuous = flags.get_int("continuous", 0) != 0;

  print_banner(std::cout, "vf::serve — deadline-aware inference on virtual nodes");
  std::printf("  task=%s profile=%s mode=%s  trace: %.0f rps -> %.0f rps burst (%.2fs) -> drain\n",
              p.task.c_str(), p.profile.c_str(),
              p.continuous ? "continuous" : "batch-boundary", p.steady_rps,
              p.burst_rps, p.burst_s);
  std::printf("  start %lld device(s), elastic ceiling %lld, queue cap %lld, "
              "batch <= %lld or %.0f ms, SLO %.0f ms\n\n",
              static_cast<long long>(p.devices), static_cast<long long>(p.max_devices),
              static_cast<long long>(p.queue_cap), static_cast<long long>(p.max_batch),
              p.max_wait_s * 1e3, p.deadline_s * 1e3);

  const std::vector<std::int64_t> worker_counts = {0, 2, 8};
  std::vector<ReplayOutcome> outcomes;
  Table table({"workers", "served", "rejected", "p50 (ms)", "p95 (ms)", "p99 (ms)",
               "SLO hit", "resizes", "drained (s)"});
  for (const std::int64_t w : worker_counts) {
    outcomes.push_back(run_replay(p, w));
    const ReplayOutcome& o = outcomes.back();
    table.row()
        .cell(w == 0 ? std::string("serial") : "pool x" + std::to_string(w))
        .cell(o.summary.completed)
        .cell(o.summary.rejected)
        .cell(o.summary.p50_s * 1e3, 2)
        .cell(o.summary.p95_s * 1e3, 2)
        .cell(o.summary.p99_s * 1e3, 2)
        .cell(o.summary.hit_rate, 3)
        .cell(static_cast<std::int64_t>(o.resizes.size()))
        .cell(o.drained_at_s, 3);
  }
  table.print(std::cout);

  const ReplayOutcome& ref = outcomes.front();
  std::printf("\n  resize timeline (queue-depth-triggered, seamless):\n");
  for (const ResizeEvent& e : ref.resizes) {
    std::printf("    t=%7.3fs  %lld -> %lld devices  (depth %lld, migration %.4fs)\n",
                e.time_s, static_cast<long long>(e.from_devices),
                static_cast<long long>(e.to_devices),
                static_cast<long long>(e.queue_depth), e.migration_s);
  }

  // A/B: the selected mode (already replayed) against the other one,
  // serial engine, identical trace — the queue-wait reduction continuous
  // batching buys at high load.
  BenchParams flipped = p;
  flipped.continuous = !p.continuous;
  const ReplayOutcome other = run_replay(flipped, /*workers=*/0);
  const SloSummary& cont = p.continuous ? ref.summary : other.summary;
  const SloSummary& batch = p.continuous ? other.summary : ref.summary;
  std::printf("\n  batch-boundary vs continuous batching (same trace, serial engine):\n");
  Table ab({"mode", "served", "mean wait (ms)", "p95 wait (ms)", "p99 wait (ms)",
            "mean in-flight (ms)", "p99 latency (ms)"});
  ab.row()
      .cell(std::string("batch"))
      .cell(batch.completed)
      .cell(batch.mean_queue_wait_s * 1e3, 2)
      .cell(batch.p95_queue_wait_s * 1e3, 2)
      .cell(batch.p99_queue_wait_s * 1e3, 2)
      .cell(batch.mean_inflight_s * 1e3, 2)
      .cell(batch.p99_s * 1e3, 2);
  ab.row()
      .cell(std::string("continuous"))
      .cell(cont.completed)
      .cell(cont.mean_queue_wait_s * 1e3, 2)
      .cell(cont.p95_queue_wait_s * 1e3, 2)
      .cell(cont.p99_queue_wait_s * 1e3, 2)
      .cell(cont.mean_inflight_s * 1e3, 2)
      .cell(cont.p99_s * 1e3, 2);
  ab.print(std::cout);
  if (batch.p95_queue_wait_s > 0.0 && batch.p99_queue_wait_s > 0.0) {
    std::printf("  queue-wait reduction: mean %.1f%%  p95 %.1f%%  p99 %.1f%%\n",
                -pct_change(batch.mean_queue_wait_s, cont.mean_queue_wait_s),
                -pct_change(batch.p95_queue_wait_s, cont.p95_queue_wait_s),
                -pct_change(batch.p99_queue_wait_s, cont.p99_queue_wait_s));
  }

  // Observability overhead guard: the same replay with the recorder +
  // registry attached must produce bit-identical schedule streams (a pure
  // observer), and its wall time must stay within budget of the
  // unobserved run. The arms re-run fresh in kObsRounds interleaved
  // off/on rounds and the gate reads the ratio of their medians, so a
  // burst of host load skews one round, not one arm.
  std::vector<double> wall_off(kObsRounds), wall_on(kObsRounds);
  std::vector<obs::TraceRecorder> traces(kObsRounds);
  std::vector<obs::MetricsRegistry> registries(kObsRounds);
  const char* perturbed = nullptr;
  for (int round = 0; round < kObsRounds; ++round) {
    const ReplayOutcome unobserved = run_replay(p, /*workers=*/0, {}, &wall_off[round]);
    const ReplayOutcome observed = run_replay(
        p, /*workers=*/0, {&traces[round], &registries[round]}, &wall_on[round]);
    if (perturbed == nullptr) perturbed = first_difference(unobserved.digest, observed.digest);
  }
  const obs::TraceRecorder& trace = traces.front();
  const obs::MetricsRegistry& metrics = registries.front();
  // Generous budget: recording is a bounded vector push per slice, so
  // even smoke-sized replays with noisy wall clocks sit far inside 1.5x.
  const double median_off = median(wall_off);
  const double median_on = median(wall_on);
  const double obs_overhead = median_on / median_off;
  const bool obs_cheap = obs_overhead < 1.5;
  std::printf("\n  observability: %zu trace events; replay wall %.3fs off / "
              "%.3fs on (%.2fx)\n",
              trace.size(), median_off, median_on, obs_overhead);

  // The growth and queue-wait claims are calibrated against the default
  // high-load trace; an exploratory sweep with overridden workload knobs
  // (e.g. a trickle of arrivals, where both modes dispatch every slice on
  // timeout and the means tie) reports them informationally instead of
  // failing. Determinism is enforced unconditionally.
  bool custom_load = false;
  for (const char* knob :
       {"task", "profile", "vns", "devices", "max-devices", "queue-cap",
        "max-batch", "max-wait-ms", "steady-rps", "burst-rps", "burst-s", "seed"})
    custom_load |= flags.overridden(knob);

  bool ok = true;
  bool grew = false;
  for (const ResizeEvent& e : ref.resizes) grew |= e.to_devices > e.from_devices;
  const char* moved = nullptr;
  for (std::size_t i = 1; i < outcomes.size() && moved == nullptr; ++i)
    moved = first_difference(ref.digest, outcomes[i].digest);
  const bool wait_reduced = cont.mean_queue_wait_s < batch.mean_queue_wait_s;

  const std::string json = flags.json_path();
  if (!json.empty()) {
    vf::bench::JsonReport report("bench_serving");
    const auto add_mode = [&report](const char* mode, const SloSummary& s) {
      const std::string base = std::string("serving.") + mode + ".";
      report.add(base + "served", static_cast<double>(s.completed), "requests");
      report.add(base + "rejected", static_cast<double>(s.rejected), "requests");
      report.add(base + "mean_queue_wait_ms", s.mean_queue_wait_s * 1e3, "ms");
      report.add(base + "p95_queue_wait_ms", s.p95_queue_wait_s * 1e3, "ms");
      report.add(base + "p99_queue_wait_ms", s.p99_queue_wait_s * 1e3, "ms");
      report.add(base + "p50_latency_ms", s.p50_s * 1e3, "ms");
      report.add(base + "p95_latency_ms", s.p95_s * 1e3, "ms");
      report.add(base + "p99_latency_ms", s.p99_s * 1e3, "ms");
      report.add(base + "slo_hit_rate", s.hit_rate, "fraction");
    };
    add_mode("batch", batch);
    add_mode("continuous", cont);
    report.add("serving.resizes", static_cast<double>(ref.resizes.size()), "events");
    report.add("serving.obs.trace_events", static_cast<double>(trace.size()),
               "events");
    report.add("serving.obs.overhead_x", obs_overhead, "ratio");
    if (!report.save(json)) ok = false;
  }
  if (!flags.trace_path().empty() && !trace.save(flags.trace_path())) ok = false;
  if (!flags.metrics_path().empty() && !metrics.save(flags.metrics_path()))
    ok = false;
  const char* miss = custom_load ? "no (informational: custom workload)" : "NO — BUG";
  std::printf("\n  queue-depth-triggered growth: %s\n", grew ? "yes" : miss);
  std::printf("  bit-identical records/resizes across workers {0, 2, 8}: %s\n",
              vf::bench::identity_verdict(moved).c_str());
  std::printf("  continuous mean queue wait below batch-boundary: %s\n",
              wait_reduced ? "yes" : miss);
  std::printf("  recording does not perturb the replay: %s\n",
              vf::bench::identity_verdict(perturbed).c_str());
  std::printf("  recording wall overhead within 1.5x budget: %s\n",
              obs_cheap ? "yes" : miss);
  if (moved != nullptr || perturbed != nullptr) ok = false;
  if (!custom_load && (!grew || !wait_reduced || !obs_cheap)) ok = false;
  return ok ? 0 : 1;
}
