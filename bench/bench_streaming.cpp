// Token-streaming serving A/B: prefill/decode disaggregation on the
// continuous-batching slice chain versus plain FIFO slice order, plus the
// share-weighted arbiter's device-time split under two-model contention.
//
// The workload is the LLM-serving shape: most requests stream a short
// completion — one long PREFILL slice (compute-bound, prices the whole
// prompt) admits the request into a VN slot, then a chain of short DECODE
// slices (memory-bandwidth-bound, one token each on the llm-decode
// profile's full-parameter read) streams the rest. Disaggregated
// scheduling admits waiting prefills ahead of decode continuations and
// preempts a decode chain at a token boundary when every slot is busy and
// a stream waits; FIFO order chains decodes first and never preempts.
//
// Headline claims, enforced at the default workload (informational under
// overridden knobs, like bench_serving):
//
//   1. Disaggregation cuts p99 TTFT versus FIFO slice order, at equal
//      or more tokens served.
//   2. The elastic budget closes under streaming load: bursts grow the
//      set (queue + in-flight triggering), drains shrink it back.
//   3. Two co-located models under sustained contention split device time
//      by their configured share weights: the SMALL-BATCH model's measured
//      share lands within 10% of its weight — the starvation case the
//      deadline-only arbiter failed.
//   4. Determinism: every schedule stream — records with every per-token
//      stamp, resizes, batches, faults — replays bit-identically across
//      host worker counts {0, 2, 8}; the exported observability trace and
//      metrics snapshot are BYTE-identical across the same sweep, and
//      attaching the recorder never perturbs a record. The run digest
//      (serve/digest.h) decides all three and names the stream that moved.
//
// Prints the A/B SLO/TTFT/ITL table, the resize timeline, and the share
// split. Exit 1 when any enforced claim fails. --json emits the
// perf-trajectory record; --trace/--metrics dump the elastic run's
// Perfetto timeline and metrics snapshot.
#include <algorithm>
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
  std::string task = "cifar10-sim";
  std::string profile = "llm-decode";
  std::int64_t vns = 8;
  std::int64_t max_devices = 8;
  std::int64_t queue_cap = 4096;
  std::int64_t max_batch = 64;
  double max_wait_s = 0.005;
  double ttft_slo_s = 0.25;  ///< a stream's deadline is its TTFT
  double stream_fraction = 0.85;
  std::int64_t prompt_min = 8, prompt_max = 32;
  std::int64_t tokens_min = 4, tokens_max = 16;
  double steady_rps = 25.0;
  double burst_rps = 90.0;
  double burst_s = 2.0;
  double tail_s = 2.0;
  std::int64_t share_requests = 1024;  ///< small-batch model's backlog size
};

std::vector<InferRequest> make_stream_trace(const BenchParams& p,
                                            const Dataset& pool) {
  StreamShape shape;
  shape.stream_fraction = p.stream_fraction;
  shape.prompt_min = p.prompt_min;
  shape.prompt_max = p.prompt_max;
  shape.tokens_min = p.tokens_min;
  shape.tokens_max = p.tokens_max;
  return streaming_trace(p.seed,
                         {{p.steady_rps, 1.0},
                          {p.burst_rps, p.burst_s},
                          {p.steady_rps * 0.6, p.tail_s}},
                         pool.size(), shape);
}

ElasticPolicy elastic(std::int64_t max_devices) {
  ElasticPolicy e;
  e.enabled = true;
  // Streaming slots hold one request each, so load counts run far lower
  // than the classify benches': watermarks sized to the 8-slot rig.
  e.high_watermark = 18;
  e.low_watermark = 6;
  e.min_devices = 1;
  e.max_devices = max_devices;
  e.cooldown_batches = 1;
  return e;
}

struct RunOutcome {
  SloSummary summary;
  RunDigest digest;
  std::vector<ResizeEvent> resizes;
};

/// One full streaming replay. The A/B arms run on a FIXED device set so
/// the TTFT difference is pure scheduling policy; the elastic run lets
/// the budget move and carries the grow/shrink claim plus the
/// determinism sweep (resize timelines must replay bit-exactly too).
RunOutcome run_streaming(const BenchParams& p, std::int64_t workers,
                         bool disaggregate, bool elastic_enabled,
                         obs::Observability obs = {}) {
  const TaskBox box(p.task, p.seed);
  VirtualFlowEngine engine = box.engine(p.profile, p.vns, /*devices=*/1, workers, 42);
  ServerConfig cfg;
  cfg.queue_capacity = p.queue_cap;
  cfg.batch = {p.max_batch, p.max_wait_s};
  cfg.deadline_s = p.ttft_slo_s;
  cfg.continuous = true;
  cfg.stream.disaggregate = disaggregate;
  cfg.elastic = elastic(p.max_devices);
  cfg.elastic.enabled = elastic_enabled;
  Server server(engine, *box.task.val, cfg);
  server.set_observability(obs);
  server.replay(make_stream_trace(p, *box.task.val));
  return {server.slo().summary(), digest(server, obs), server.resizes()};
}

/// Two-model weighted-share contention: an aggressive large-batch model
/// (share 1) against a small-batch model (share 3), both with t = 0
/// classify backlogs sized to drain together under the 3:1 split. The
/// deadline-only arbiter let the large-batch co-tenant starve the
/// small-batch model; the share ledger must hold the small-batch model's
/// device time at its configured weight.
struct ShareOutcome {
  double small_batch_frac = 0.0;
  double target_frac = 0.0;
};

ShareOutcome run_share_split(const BenchParams& p) {
  const TaskBox box_big(p.task, p.seed, /*batch=*/64);
  const TaskBox box_small(p.task, p.seed + 1, /*batch=*/8);
  VirtualFlowEngine eng_big = box_big.engine(p.profile, /*vns=*/8, 1, 0, 42);
  VirtualFlowEngine eng_small = box_small.engine(p.profile, /*vns=*/8, 1, 0, 42);

  ModelRegistry registry;
  ModelConfig mc_big;
  mc_big.name = "large-batch";
  mc_big.queue_capacity = p.queue_cap;
  mc_big.batch = {p.max_batch, p.max_wait_s};
  mc_big.deadline_s = p.ttft_slo_s;
  mc_big.share = 1.0;
  ModelConfig mc_small = mc_big;
  mc_small.name = "small-batch";
  mc_small.share = 3.0;
  registry.add(eng_big, *box_big.task.val, mc_big);
  registry.add(eng_small, *box_small.task.val, mc_small);

  ColocationConfig cfg;
  cfg.continuous = true;
  cfg.elastic = elastic(p.max_devices);
  cfg.elastic.enabled = false;
  ColocatedServer server(registry, cfg);

  // Demands matched to the 3:1 split so both models stay backlogged for
  // essentially the whole replay (a drained model stops charging its
  // ledger and would skew the cumulative ratio). The small-batch model's
  // per-request device time is higher (vn_batch 1 slices amortize
  // nothing), so its request count is calibrated, not 3x.
  const std::int64_t small_n = p.share_requests;
  const std::int64_t big_n = (p.share_requests * 13) / 5;
  const auto backlog = [](std::int64_t count, const Dataset& pool) {
    std::vector<InferRequest> trace;
    for (std::int64_t i = 0; i < count; ++i)
      trace.push_back(InferRequest{i, 0.0, i % pool.size()});
    return trace;
  };
  server.replay({backlog(big_n, *box_big.task.val),
                 backlog(small_n, *box_small.task.val)});

  const double used_big = server.device_time_used(0);
  const double used_small = server.device_time_used(1);
  ShareOutcome out;
  out.target_frac = 3.0 / 4.0;
  out.small_batch_frac = used_small / (used_big + used_small);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task", "proxy task generating payloads (default cifar10-sim)"},
               {"profile", "paper model profile for timing (default llm-decode)"},
               {"vns", "virtual nodes / slots (default 8)"},
               {"max-devices", "elastic ceiling (default 8)"},
               {"queue-cap", "admission queue capacity (default 4096)"},
               {"ttft-slo-ms", "streaming TTFT deadline (default 250)"},
               {"stream-fraction", "fraction of requests that stream (default 0.85)"},
               {"tokens-max", "max tokens per stream (default 16)"},
               {"steady-rps", "steady arrival rate (default 25)"},
               {"burst-rps", "burst arrival rate (default 90)"},
               {"burst-s", "burst duration (default 2.0)"},
               {"share-requests", "per-model backlog of the share split run "
                                  "(default 1024)"},
               {"seed", "trace + model seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help("Token-streaming serving: prefill/decode disaggregation "
                     "vs FIFO slice order, TTFT/ITL SLOs, share-weighted "
                     "device-time split, bit-exact replay");
    return 0;
  }

  BenchParams p;
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  p.task = flags.get_string("task", "cifar10-sim");
  p.profile = flags.get_string("profile", "llm-decode");
  p.vns = flags.get_int("vns", 8);
  p.max_devices = flags.get_int("max-devices", 8);
  p.queue_cap = flags.get_int("queue-cap", 4096);
  p.ttft_slo_s = flags.get_double("ttft-slo-ms", 250.0) / 1e3;
  p.stream_fraction = flags.get_double("stream-fraction", 0.85);
  p.tokens_max = flags.get_int("tokens-max", 16);
  p.steady_rps = flags.get_double("steady-rps", 25.0);
  p.burst_rps = flags.get_double("burst-rps", 90.0);
  p.burst_s = flags.get_double("burst-s", 2.0, /*smoke_def=*/0.6);
  p.tail_s = flags.smoke() ? 0.8 : 2.0;
  p.share_requests = flags.get_int("share-requests", 1024, /*smoke_def=*/256);

  print_banner(std::cout,
               "vf::serve — token streaming with prefill/decode disaggregation");
  std::printf("  %s payloads on %s, %lld slots; %.0f%% streams, %lld-%lld tokens, "
              "burst %.0f -> %.0f rps\n",
              p.task.c_str(), p.profile.c_str(), static_cast<long long>(p.vns),
              p.stream_fraction * 100.0, static_cast<long long>(p.tokens_min),
              static_cast<long long>(p.tokens_max), p.steady_rps, p.burst_rps);

  // A/B arms on a fixed single device: policy is the only difference.
  const RunOutcome disagg =
      run_streaming(p, 0, /*disaggregate=*/true, /*elastic_enabled=*/false);
  const RunOutcome fifo =
      run_streaming(p, 0, /*disaggregate=*/false, /*elastic_enabled=*/false);

  // Elastic run carries the grow/shrink claim; the determinism sweep
  // (claim 4) rides it so resize timelines are bit-compared too. Every
  // sweep run records a full observability trace + metrics snapshot: the
  // exported bytes must agree across worker counts (the trace is a
  // witness of the determinism contract, not just the records).
  const std::vector<std::int64_t> worker_counts = {0, 2, 8};
  std::vector<RunOutcome> elastic_runs;
  std::string trace_json, metrics_json;  // the serial run's exports
  for (const std::int64_t w : worker_counts) {
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    elastic_runs.push_back(run_streaming(p, w, /*disaggregate=*/true,
                                         /*elastic_enabled=*/true,
                                         {&trace, &metrics}));
    if (w == worker_counts.front()) {
      trace_json = trace.to_json();
      metrics_json = metrics.to_json();
    }
  }
  const RunOutcome& grown = elastic_runs.front();

  // The recorder must be a pure observer: an unobserved replay of the
  // same elastic run produces bit-identical records.
  const RunOutcome unobserved =
      run_streaming(p, 0, /*disaggregate=*/true, /*elastic_enabled=*/true);

  std::printf("\n  disaggregated vs FIFO slice order:\n");
  Table table({"policy", "served", "streams", "tokens", "p50 TTFT (ms)",
               "p99 TTFT (ms)", "mean ITL (ms)", "p99 ITL (ms)", "TTFT SLO hit"});
  for (const auto& [name, o] :
       {std::pair<const char*, const RunOutcome&>{"disaggregated", disagg},
        std::pair<const char*, const RunOutcome&>{"fifo", fifo},
        std::pair<const char*, const RunOutcome&>{"disagg+elastic", grown}}) {
    table.row()
        .cell(name)
        .cell(o.summary.completed)
        .cell(o.summary.streams)
        .cell(o.summary.tokens)
        .cell(o.summary.p50_ttft_s * 1e3, 2)
        .cell(o.summary.p99_ttft_s * 1e3, 2)
        .cell(o.summary.mean_itl_s * 1e3, 3)
        .cell(o.summary.p99_itl_s * 1e3, 3)
        .cell(o.summary.hit_rate, 3);
  }
  table.print(std::cout);

  std::printf("\n  resize timeline (elastic run):\n");
  for (const ResizeEvent& e : grown.resizes)
    std::printf("    t=%7.3fs  %lld -> %lld devices  (queue %lld, migration %.4fs)\n",
                e.time_s, static_cast<long long>(e.from_devices),
                static_cast<long long>(e.to_devices),
                static_cast<long long>(e.queue_depth), e.migration_s);

  const ShareOutcome share = run_share_split(p);
  const double share_rel_err =
      (share.small_batch_frac - share.target_frac) / share.target_frac;
  std::printf("\n  weighted-share split (small-batch model, share 3 of 4): "
              "measured %.3f vs target %.3f (%+.1f%%)\n",
              share.small_batch_frac, share.target_frac, share_rel_err * 100.0);

  // Claims. Calibrated against the default workload; overridden knobs make
  // them informational (determinism always gates).
  bool custom_load = false;
  for (const char* knob :
       {"task", "profile", "vns", "max-devices", "queue-cap", "ttft-slo-ms",
        "stream-fraction", "tokens-max", "steady-rps", "burst-rps", "burst-s",
        "share-requests", "seed"})
    custom_load |= flags.overridden(knob);

  // Every sweep run recorded, so one digest comparison covers both
  // determinism lines: a schedule stream that moved fails both (the
  // export bytes went unchecked), an export stream only the byte line.
  const char* moved = nullptr;
  for (std::size_t i = 1; i < elastic_runs.size() && moved == nullptr; ++i)
    moved = first_difference(grown.digest, elastic_runs[i].digest);
  const char* perturbed = first_difference(grown.digest, unobserved.digest);
  // The elastic streaming replay must have exercised every slice kind and
  // both scheduler markers the trace exists to expose.
  bool trace_complete = true;
  for (const char* name : {"classify", "prefill", "decode", "resize", "preempt"})
    trace_complete &= obs::has_event(trace_json, name);
  bool grew = false, shrank = false;
  for (const ResizeEvent& e : grown.resizes) {
    grew |= e.to_devices > e.from_devices;
    shrank |= e.to_devices < e.from_devices;
  }
  const bool ttft_ok = disagg.summary.p99_ttft_s < fifo.summary.p99_ttft_s;
  const bool tokens_ok = disagg.summary.tokens >= fifo.summary.tokens &&
                         disagg.summary.tokens > 0;
  const bool share_ok =
      share_rel_err >= -0.10 && share_rel_err <= 0.10;

  bool ok = true;
  const std::string json = flags.json_path();
  if (!json.empty()) {
    vf::bench::JsonReport report("bench_streaming");
    for (const auto& [name, o] :
         {std::pair<const char*, const RunOutcome&>{"disagg", disagg},
          std::pair<const char*, const RunOutcome&>{"fifo", fifo},
          std::pair<const char*, const RunOutcome&>{"elastic", grown}}) {
      const std::string base = std::string("streaming.") + name + ".";
      report.add(base + "served", static_cast<double>(o.summary.completed),
                 "requests");
      report.add(base + "tokens", static_cast<double>(o.summary.tokens), "tokens");
      report.add(base + "p50_ttft_ms", o.summary.p50_ttft_s * 1e3, "ms");
      report.add(base + "p99_ttft_ms", o.summary.p99_ttft_s * 1e3, "ms");
      report.add(base + "mean_itl_ms", o.summary.mean_itl_s * 1e3, "ms");
      report.add(base + "p99_itl_ms", o.summary.p99_itl_s * 1e3, "ms");
      report.add(base + "ttft_slo_hit_rate", o.summary.hit_rate, "fraction");
    }
    report.add("streaming.p99_ttft_cut_ms",
               (fifo.summary.p99_ttft_s - disagg.summary.p99_ttft_s) * 1e3, "ms");
    report.add("streaming.resizes", static_cast<double>(grown.resizes.size()),
               "events");
    report.add("streaming.share.small_batch_frac", share.small_batch_frac,
               "fraction");
    report.add("streaming.share.target_frac", share.target_frac, "fraction");
    report.add("streaming.trace_events",
               static_cast<double>(
                   std::count(trace_json.begin(), trace_json.end(), '\n') - 2),
               "events");
    if (!report.save(json)) ok = false;
  }
  if (!flags.trace_path().empty() &&
      !vf::obs::save_text_file(flags.trace_path(), trace_json))
    ok = false;
  if (!flags.metrics_path().empty() &&
      !vf::obs::save_text_file(flags.metrics_path(), metrics_json))
    ok = false;

  const char* miss = custom_load ? "no (informational: custom workload)" : "NO — BUG";
  std::printf("\n  p99 TTFT: disaggregated < FIFO: %s\n", ttft_ok ? "yes" : miss);
  std::printf("  tokens served >= FIFO: %s\n", tokens_ok ? "yes" : miss);
  std::printf("  elastic budget grew and shrank under streaming load: %s\n",
              (grew && shrank) ? "yes" : miss);
  std::printf("  small-batch device-time share within 10%% of weight: %s\n",
              share_ok ? "yes" : miss);
  std::printf("  bit-identical records (token stamps included) across workers "
              "{0, 2, 8}: %s\n",
              vf::bench::identity_verdict(vf::bench::schedule_only(moved)).c_str());
  std::printf("  byte-identical trace + metrics export across workers "
              "{0, 2, 8}: %s\n",
              vf::bench::identity_verdict(moved).c_str());
  std::printf("  recording does not perturb the replay: %s\n",
              vf::bench::identity_verdict(perturbed).c_str());
  std::printf("  trace covers classify/prefill/decode + resize + preempt: %s\n",
              trace_complete ? "yes" : miss);

  if (moved != nullptr || perturbed != nullptr) ok = false;
  if (!custom_load && (!ttft_ok || !tokens_ok || !grew || !shrank || !share_ok ||
                       !trace_complete))
    ok = false;
  return ok ? 0 : 1;
}
