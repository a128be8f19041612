// Chaos bench: deterministic fault injection through training and serving.
//
// A seeded FaultPlan (vf::fault) schedules device kills, recoveries,
// straggler slowdown windows, and comm-step faults against the virtual
// clock while a 2000 rps streaming burst is in flight. The serving loop
// answers every kill with a VN remap onto the survivors plus a zero-loss
// re-dispatch of the dead device's in-flight slices; the elastic rule sees
// the loss as a capacity cap until recovery; expired requests shed
// gracefully at the queue head. The same injector drives a training arm: a kill
// mid-run must leave the parameter trajectory bit-identical to an engine
// that ran on the surviving device count from the start.
//
// Headline claims. The invariants (1, 2, 5, 6) gate on every workload —
// they are correctness, not calibration; the SLO-delta and fault-coverage
// claims (3, 4) are enforced at the default workload and informational
// under overridden knobs, like bench_serving:
//
//   1. Zero loss: every trace request leaves the chaos replay exactly once
//      — served, rejected, or shed; never lost, never duplicated.
//   2. Streams survive kills intact: a completed stream carries exactly its
//      requested tokens with strictly increasing stamps — an eviction
//      re-dispatches only the lost token, never rewinds landed ones.
//   3. Graceful degradation: the chaos arm's SLO hit rate lands within a
//      bounded delta of the no-fault baseline on the same trace.
//   4. Faults bite: every kill is honored (4-device rig, never at minimum),
//      charges a VN-remap migration, and evicts in-flight slices whose
//      requests all surface as recorded retries.
//   5. Determinism: the faulted replay — records, resize timeline, batch
//      log, fault log — is bit-identical across host worker counts
//      {0, 2, 8}, the exported trace + metrics JSON are BYTE-identical
//      across the sweep, and a re-run with the same fault seed is
//      identical in every stream. The run digest (serve/digest.h) decides
//      all three and names the stream that moved.
//   6. Training recovery invariant: a chaos plan replays bit-exactly across
//      worker counts, and a kill's post-remap trajectory equals a
//      from-scratch run on the surviving device set.
//
// Prints the baseline-vs-chaos SLO table, the fault log, and the resize
// timeline. Exit 1 when any enforced claim fails. --json emits the
// perf-trajectory record; --trace/--metrics dump the chaos run's Perfetto
// timeline (fault markers included) and metrics snapshot.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"

using namespace vf;
using namespace vf::serve;
using vf::bench::Flags;
using vf::bench::TaskBox;

namespace {

struct BenchParams {
  std::uint64_t seed = 42;
  std::uint64_t fault_seed = 7;
  std::string task = "mrpc-sim";
  std::string profile = "bert-base";
  std::int64_t vns = 8;
  std::int64_t devices = 4;
  std::int64_t max_devices = 8;
  std::int64_t queue_cap = 1024;
  std::int64_t max_batch = 64;
  double max_wait_s = 0.01;
  double deadline_s = 0.25;
  double stream_fraction = 0.4;
  double steady_rps = 300.0;
  double burst_rps = 2000.0;
  double burst_s = 1.0;
  double tail_s = 1.0;
  double slo_delta = 0.25;  ///< max hit-rate drop the chaos arm may cost
  std::int64_t train_steps = 12;
};

std::vector<InferRequest> chaos_trace(const BenchParams& p, const Dataset& pool) {
  StreamShape shape;
  shape.stream_fraction = p.stream_fraction;
  return streaming_trace(p.seed,
                         {{p.steady_rps, 0.4},
                          {p.burst_rps, p.burst_s},
                          {p.steady_rps * 0.5, p.tail_s}},
                         pool.size(), shape);
}

/// The chaos schedule under test: kills (each with a paired recover),
/// straggler windows, and a comm fault, all landing inside the burst.
fault::FaultPlan make_plan(const BenchParams& p) {
  fault::ChaosConfig cfg;
  cfg.start_s = 0.45;
  cfg.duration_s = 0.4 + p.burst_s;  // the whole burst is fair game
  cfg.kills = 2;
  cfg.recover_delay_s = 0.6;
  cfg.stragglers = 2;
  cfg.straggler_duration_s = 0.5;
  cfg.comm_faults = 1;
  cfg.max_device = p.devices - 1;
  return fault::FaultPlan::chaos(p.fault_seed, cfg);
}

ServerConfig server_config(const BenchParams& p, bool shed) {
  ServerConfig cfg;
  cfg.queue_capacity = p.queue_cap;
  cfg.batch = {p.max_batch, p.max_wait_s};
  cfg.deadline_s = p.deadline_s;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.shed_expired = shed;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = p.max_devices;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

struct RunOutcome {
  SloSummary summary;
  RunDigest digest;
  std::vector<RequestRecord> records;
  std::vector<ResizeEvent> resizes;
  std::vector<FaultRecord> faults;
  std::int64_t shed = 0;
  std::int64_t requeued = 0;
};

/// One serving replay; `faulted` attaches the seeded injector (and opts
/// into deadline shedding — graceful degradation is part of the fault
/// story). The baseline runs the identical trace with neither.
RunOutcome run_serving(const BenchParams& p, std::int64_t workers, bool faulted,
                       obs::Observability obs = {}) {
  const TaskBox box(p.task, p.seed);
  VirtualFlowEngine engine = box.engine(p.profile, p.vns, p.devices, workers, 42);
  Server server(engine, *box.task.val, server_config(p, /*shed=*/faulted));
  server.set_observability(obs);
  fault::FaultInjector injector(make_plan(p));
  injector.set_observability(obs);
  if (faulted) server.set_fault_injector(&injector);
  server.replay(chaos_trace(p, *box.task.val));
  return {server.slo().summary(),  digest(server, obs),   server.slo().records(),
          server.resizes(),        server.faults(),       server.queue().shed(),
          server.queue().requeued()};
}

/// Zero-loss invariant: every trace request leaves the replay exactly
/// once. Returns false on any lost or duplicated id.
bool zero_loss(const RunOutcome& o, std::size_t trace_size) {
  if (o.summary.completed + o.summary.rejected !=
      static_cast<std::int64_t>(trace_size))
    return false;
  std::set<std::int64_t> ids;
  for (const RequestRecord& r : o.records) ids.insert(r.id);
  return ids.size() == o.records.size() && ids.size() == trace_size;
}

/// Claim 2: completed streams carry exactly their requested tokens with
/// strictly increasing stamps.
bool streams_intact(const RunOutcome& o, const std::vector<InferRequest>& trace) {
  std::vector<std::int64_t> requested(trace.size(), 0);
  for (const InferRequest& r : trace)
    requested[static_cast<std::size_t>(r.id)] = r.stream_tokens;
  for (const RequestRecord& r : o.records) {
    if (r.rejected || !r.streamed()) continue;
    if (static_cast<std::int64_t>(r.tokens.size()) !=
        requested[static_cast<std::size_t>(r.id)])
      return false;
    for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
      if (r.token_stamps[i] <= r.token_stamps[i - 1]) return false;
  }
  return true;
}

struct TrainOutcome {
  bool workers_exact = false;    ///< chaos run bit-exact across {0, 2, 8}
  bool survivors_exact = false;  ///< post-kill == from-scratch surviving set
  double faulted_time_s = 0.0;
  double clean_time_s = 0.0;
};

TrainOutcome run_training(const BenchParams& p) {
  const std::string task_name = "qnli-sim";
  TrainOutcome out;

  // Chaos plan across worker counts: same seed, same plan, same bits.
  fault::ChaosConfig cfg;
  cfg.kills = 1;
  cfg.stragglers = 1;
  cfg.comm_faults = 1;
  cfg.max_device = p.devices - 1;
  std::vector<Tensor> params;
  std::vector<double> times;
  for (const std::int64_t workers : {0, 2, 8}) {
    const TaskBox box(task_name, p.seed);
    VirtualFlowEngine eng = box.engine(p.profile, p.vns, p.devices, workers, 42);
    fault::FaultInjector inj(fault::FaultPlan::chaos(p.fault_seed, cfg));
    inj.train_steps(eng, p.train_steps);
    params.push_back(eng.parameters());
    times.push_back(eng.sim_time_s());
  }
  out.workers_exact = params[0].equals(params[1]) && params[0].equals(params[2]) &&
                      times[0] == times[1] && times[0] == times[2];
  out.faulted_time_s = times[0];

  // The §7 invariant: kill one of `devices`, train on; the trajectory must
  // match an engine that ran on the survivors from step zero.
  const TaskBox box(task_name, p.seed);
  VirtualFlowEngine faulted = box.engine(p.profile, p.vns, p.devices, 0, 42);
  VirtualFlowEngine survivors = box.engine(p.profile, p.vns, p.devices - 1, 0, 42);
  fault::FaultPlan plan;
  plan.kill(faulted.sim_time_s(), p.devices - 1);
  fault::FaultInjector inj(std::move(plan));
  inj.train_steps(faulted, p.train_steps);
  for (std::int64_t i = 0; i < p.train_steps; ++i) survivors.train_step();
  out.survivors_exact = faulted.parameters().equals(survivors.parameters());
  out.clean_time_s = survivors.sim_time_s();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task", "proxy task generating payloads (default mrpc-sim)"},
               {"profile", "paper model profile for timing (default bert-base)"},
               {"vns", "virtual nodes / slots (default 8)"},
               {"devices", "initial device count (default 4)"},
               {"max-devices", "elastic ceiling (default 8)"},
               {"queue-cap", "admission queue capacity (default 1024)"},
               {"deadline-ms", "per-request SLO / stream TTFT (default 250)"},
               {"stream-fraction", "fraction of requests that stream (default 0.4)"},
               {"steady-rps", "steady arrival rate (default 300)"},
               {"burst-rps", "burst arrival rate (default 2000)"},
               {"burst-s", "burst duration (default 1.0)"},
               {"slo-delta", "max hit-rate drop chaos may cost (default 0.25)"},
               {"train-steps", "training-arm steps (default 12)"},
               {"fault-seed", "chaos plan seed (default 7)"},
               {"seed", "trace + model seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help("Deterministic fault injection: chaos kills/stragglers/"
                     "comm faults under a streaming burst — zero-loss "
                     "re-dispatch, bounded SLO cost, bit-exact faulted replay");
    return 0;
  }

  BenchParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  p.fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 7));
  p.task = flags.get_string("task", "mrpc-sim");
  p.profile = flags.get_string("profile", "bert-base");
  p.vns = flags.get_int("vns", 8);
  p.devices = flags.get_int("devices", 4);
  p.max_devices = flags.get_int("max-devices", 8);
  p.queue_cap = flags.get_int("queue-cap", 1024);
  p.deadline_s = flags.get_double("deadline-ms", 250.0) / 1e3;
  p.stream_fraction = flags.get_double("stream-fraction", 0.4);
  p.steady_rps = flags.get_double("steady-rps", 300.0);
  p.burst_rps = flags.get_double("burst-rps", 2000.0);
  p.burst_s = flags.get_double("burst-s", 1.0, /*smoke_def=*/0.5);
  p.tail_s = flags.smoke() ? 0.6 : 1.0;
  p.slo_delta = flags.get_double("slo-delta", 0.25);
  p.train_steps = flags.get_int("train-steps", 12, /*smoke_def=*/8);

  print_banner(std::cout,
               "vf::fault — chaos schedule under a streaming burst");
  std::printf("  %s payloads on %s, %lld devices (max %lld); burst %.0f -> "
              "%.0f rps; fault seed %llu\n",
              p.task.c_str(), p.profile.c_str(), static_cast<long long>(p.devices),
              static_cast<long long>(p.max_devices), p.steady_rps, p.burst_rps,
              static_cast<unsigned long long>(p.fault_seed));

  const TaskBox trace_box(p.task, p.seed);
  const std::vector<InferRequest> trace = chaos_trace(p, *trace_box.task.val);

  // Baseline and chaos arms on the identical trace; the chaos arm's
  // determinism sweep carries the worker-count bit-identity claim, with
  // trace + metrics exports as byte witnesses.
  const RunOutcome baseline = run_serving(p, 0, /*faulted=*/false);
  const std::vector<std::int64_t> worker_counts = {0, 2, 8};
  std::vector<RunOutcome> chaos_runs;
  std::string trace_json, metrics_json;  // the serial run's exports
  for (const std::int64_t w : worker_counts) {
    obs::TraceRecorder rec;
    obs::MetricsRegistry metrics;
    chaos_runs.push_back(run_serving(p, w, /*faulted=*/true, {&rec, &metrics}));
    if (w == worker_counts.front()) {
      trace_json = rec.to_json();
      metrics_json = metrics.to_json();
    }
  }
  const RunOutcome& chaos = chaos_runs.front();

  // Same fault seed, fresh everything: the replay must be identical in
  // every stream, export bytes included.
  obs::TraceRecorder again_trace;
  obs::MetricsRegistry again_metrics;
  const RunDigest again =
      run_serving(p, 0, /*faulted=*/true, {&again_trace, &again_metrics}).digest;

  std::printf("\n  no-fault baseline vs chaos schedule (same trace):\n");
  Table table({"arm", "served", "rejected", "shed", "retried", "p99 (ms)",
               "SLO hit", "tokens", "resizes"});
  for (const auto& [name, o] :
       {std::pair<const char*, const RunOutcome&>{"baseline", baseline},
        std::pair<const char*, const RunOutcome&>{"chaos", chaos}}) {
    table.row()
        .cell(name)
        .cell(o.summary.completed)
        .cell(o.summary.rejected)
        .cell(o.shed)
        .cell(o.summary.retried)
        .cell(o.summary.p99_s * 1e3, 2)
        .cell(o.summary.hit_rate, 3)
        .cell(o.summary.tokens)
        .cell(static_cast<std::int64_t>(o.resizes.size()));
  }
  table.print(std::cout);

  std::printf("\n  fault log (chaos arm):\n");
  for (const FaultRecord& f : chaos.faults)
    std::printf("    t=%7.3fs  %-10s dev=%-2lld%s evicted=%lld requeued=%lld "
                "migration=%.4fs\n",
                f.time_s, fault::fault_kind_name(f.kind),
                static_cast<long long>(f.device), f.skipped ? " SKIPPED" : "",
                static_cast<long long>(f.evicted_slices),
                static_cast<long long>(f.requeued_requests), f.migration_s);

  std::printf("\n  resize timeline (chaos arm):\n");
  for (const ResizeEvent& e : chaos.resizes)
    std::printf("    t=%7.3fs  %lld -> %lld devices  (queue %lld, migration %.4fs)\n",
                e.time_s, static_cast<long long>(e.from_devices),
                static_cast<long long>(e.to_devices),
                static_cast<long long>(e.queue_depth), e.migration_s);

  const TrainOutcome train = run_training(p);
  std::printf("\n  training arm: chaos sim time %.3fs, clean surviving-set "
              "run %.3fs over %lld steps\n",
              train.faulted_time_s, train.clean_time_s,
              static_cast<long long>(p.train_steps));

  // Claims.
  bool custom_load = false;
  for (const char* knob :
       {"task", "profile", "vns", "devices", "max-devices", "queue-cap",
        "deadline-ms", "stream-fraction", "steady-rps", "burst-rps", "burst-s",
        "slo-delta", "train-steps", "fault-seed", "seed"})
    custom_load |= flags.overridden(knob);

  const bool loss_ok = zero_loss(baseline, trace.size()) &&
                       zero_loss(chaos, trace.size());
  const bool streams_ok = streams_intact(chaos, trace) && chaos.summary.tokens > 0;
  const double hit_drop = baseline.summary.hit_rate - chaos.summary.hit_rate;
  const bool slo_ok = hit_drop <= p.slo_delta;
  std::int64_t kills = 0, evicted = 0;
  bool kills_honored = true, migrations_charged = true;
  for (const FaultRecord& f : chaos.faults) {
    if (f.kind != fault::FaultKind::kKill) continue;
    ++kills;
    kills_honored &= !f.skipped;
    migrations_charged &= f.migration_s > 0.0;
    evicted += f.evicted_slices;
  }
  // Retries count every slice eviction; requeues only the classify/prefill
  // subset (an evicted decode chain parks and resumes instead), so the
  // requeue count can never exceed the retry count.
  const bool faults_bite = kills == 2 && kills_honored && migrations_charged &&
                           evicted > 0 && chaos.summary.retried > 0 &&
                           chaos.requeued <= chaos.summary.retries;
  // Every sweep run recorded, so one digest comparison covers both
  // determinism lines: a schedule stream that moved fails both (the
  // export bytes went unchecked), an export stream only the byte line.
  const char* moved = nullptr;
  for (std::size_t i = 1; i < chaos_runs.size() && moved == nullptr; ++i)
    moved = first_difference(chaos.digest, chaos_runs[i].digest);
  const char* replay_moved = first_difference(chaos.digest, again);
  bool markers_ok = true;
  for (const char* name : {"kill", "recover", "straggler", "comm_fault", "resize"})
    markers_ok &= obs::has_event(trace_json, name);

  bool ok = true;
  const std::string json = flags.json_path();
  if (!json.empty()) {
    vf::bench::JsonReport report("bench_faults");
    for (const auto& [name, o] :
         {std::pair<const char*, const RunOutcome&>{"baseline", baseline},
          std::pair<const char*, const RunOutcome&>{"chaos", chaos}}) {
      const std::string base = std::string("faults.") + name + ".";
      report.add(base + "served", static_cast<double>(o.summary.completed),
                 "requests");
      report.add(base + "rejected", static_cast<double>(o.summary.rejected),
                 "requests");
      report.add(base + "p99_latency_ms", o.summary.p99_s * 1e3, "ms");
      report.add(base + "slo_hit_rate", o.summary.hit_rate, "fraction");
      report.add(base + "tokens", static_cast<double>(o.summary.tokens), "tokens");
    }
    report.add("faults.chaos.shed", static_cast<double>(chaos.shed), "requests");
    report.add("faults.chaos.retried", static_cast<double>(chaos.summary.retried),
               "requests");
    report.add("faults.chaos.retries", static_cast<double>(chaos.summary.retries),
               "evictions");
    report.add("faults.chaos.evicted_slices", static_cast<double>(evicted),
               "slices");
    report.add("faults.chaos.fault_events",
               static_cast<double>(chaos.faults.size()), "events");
    report.add("faults.slo_hit_drop", hit_drop, "fraction");
    report.add("faults.train.chaos_sim_time_s", train.faulted_time_s, "s");
    report.add("faults.train.clean_sim_time_s", train.clean_time_s, "s");
    if (!report.save(json)) ok = false;
  }
  if (!flags.trace_path().empty() &&
      !vf::obs::save_text_file(flags.trace_path(), trace_json))
    ok = false;
  if (!flags.metrics_path().empty() &&
      !vf::obs::save_text_file(flags.metrics_path(), metrics_json))
    ok = false;

  const char* miss = custom_load ? "no (informational: custom workload)" : "NO — BUG";
  std::printf("\n  zero loss, zero duplication (both arms): %s\n",
              loss_ok ? "yes" : "NO — BUG");
  std::printf("  streams complete with every requested token: %s\n",
              streams_ok ? "yes" : "NO — BUG");
  std::printf("  SLO hit-rate drop %.3f within %.2f of baseline: %s\n", hit_drop,
              p.slo_delta, slo_ok ? "yes" : miss);
  std::printf("  kills honored, migrations charged, evictions surface as "
              "retries: %s\n",
              faults_bite ? "yes" : miss);
  std::printf("  bit-identical faulted replay across workers {0, 2, 8}: %s\n",
              vf::bench::identity_verdict(vf::bench::schedule_only(moved)).c_str());
  std::printf("  byte-identical trace + metrics export across workers: %s\n",
              vf::bench::identity_verdict(moved).c_str());
  std::printf("  byte-identical replay for the fixed fault seed: %s\n",
              vf::bench::identity_verdict(replay_moved).c_str());
  std::printf("  trace carries kill/recover/straggler/comm_fault markers: %s\n",
              markers_ok ? "yes" : miss);
  std::printf("  training chaos bit-exact across workers {0, 2, 8}: %s\n",
              train.workers_exact ? "yes" : "NO — BUG");
  std::printf("  post-kill trajectory == from-scratch surviving set: %s\n",
              train.survivors_exact ? "yes" : "NO — BUG");

  if (!loss_ok || !streams_ok || moved != nullptr || replay_moved != nullptr ||
      !train.workers_exact || !train.survivors_exact)
    ok = false;
  if (!custom_load && (!slo_ok || !faults_bite || !markers_ok)) ok = false;
  return ok ? 0 : 1;
}
