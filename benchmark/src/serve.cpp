// serve-stream: one self-driven elastic token-streaming Server.
//
// Open loop on the virtual clock: arrivals come from a seeded trace fixed
// before the replay starts, so the generator is never late. 85% of the
// requests stream (8-32 prompt tokens, 4-16 output tokens); the rate steps
// 40 -> 90 -> 20 rps over 10 virtual seconds each, crossing the elastic
// rule's thrash point on the way up. TTFT SLO 250 ms.
//
// A replay is ~13k mostly one-row slices, so per-dispatch host cost —
// engine.infer, the request gather and the event loop — carries the host
// number. Trial t replays trace realization t mod kQualityRealizations, and
// the quality metric averages their SLO goodput. A steady-rate sweep over
// the same server configuration gives the capacity: the highest swept rate
// up to which every rate keeps >= 99% of sent requests inside the SLO and
// drains within 1 s of the last arrival.
//
// Traced run: four arms per trial in rotating order — plain, with a
// counting pass-through Dataset around the request pool, with
// observability sinks, and on a two-worker engine — all required to
// reproduce the plain records bit for bit. Infer and gather are timed per
// call on the replay's own slice shapes (row counts from its BatchEvents
// and the trace's prompt lengths); the loop's self time is the replay
// minus both.
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "virtualflow.h"
#include "workloads.h"

namespace vfbench {
namespace {

using vf::serve::BatchEvent;
using vf::serve::InferRequest;
using vf::serve::RequestRecord;
using vf::serve::SliceKind;

constexpr const char* kTask = "cifar10-sim";
constexpr const char* kProfile = "llm-decode";
constexpr std::int64_t kVns = 8;
constexpr std::int64_t kHidden = 64;
constexpr double kTtftSlo = 0.25;
// Steady-rate runs: 10 virtual seconds each; a rate holds when >= 99% of
// the requests sent meet the SLO and the last one finishes within 1 s of
// the last arrival.
constexpr std::array<double, 10> kSweepRates = {20, 30, 40, 50, 60, 70, 80, 100, 120, 160};
constexpr double kSweepSeconds = 10.0;
constexpr double kSweepGoodput = 0.99;
constexpr double kSweepDrainS = 1.0;
constexpr double kCapacityMin = 20.0;
constexpr double kCapacityStep = 5.0;
constexpr double kCapacityMax = 160.0;
// One realization's capacity moves by about 9% of its mean and its goodput
// on the main trace by about 8%; these counts bring the seed-to-seed
// quartile spread of the averages under 2%.
constexpr std::int64_t kCapacityRealizations = 64;
constexpr std::int64_t kQualityRealizations = 128;

vf::serve::StreamShape stream_shape() {
  vf::serve::StreamShape s;
  s.stream_fraction = 0.85;
  s.prompt_min = 8;
  s.prompt_max = 32;
  s.tokens_min = 4;
  s.tokens_max = 16;
  return s;
}

vf::serve::ServerConfig server_config() {
  vf::serve::ServerConfig cfg;
  cfg.queue_capacity = 4096;
  cfg.batch = {64, 0.005};
  cfg.deadline_s = kTtftSlo;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.elastic.enabled = true;
  // Streaming slots hold one request each: watermarks sized to 8 slots.
  cfg.elastic.high_watermark = 18;
  cfg.elastic.low_watermark = 6;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

/// Model, recipe and a one-device engine over 8 VNs.
struct Rig {
  vf::ProxyTask task;
  vf::TrainRecipe recipe;
  vf::Sequential model;
  vf::VirtualFlowEngine engine;

  Rig(std::uint64_t seed, std::int64_t threads)
      : task(vf::make_task(kTask, seed)),
        recipe(vf::make_recipe(kTask)),
        model(vf::make_proxy_model(kTask, seed)),
        engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
               vf::model_profile(kProfile), vf::make_devices(vf::DeviceType::kV100, 1),
               vf::VnMapping::even(kVns, 1, recipe.global_batch), config(seed, threads)) {}

  static vf::EngineConfig config(std::uint64_t seed, std::int64_t threads) {
    vf::EngineConfig c;
    c.seed = seed;
    c.enforce_memory = false;
    c.num_threads = threads;
    return c;
  }
};

struct ReplayOut {
  double setup_s = 0.0;
  double host_s = 0.0;
  std::vector<InferRequest> trace;
  vf::serve::SloSummary summary;
  std::vector<RequestRecord> records;
  std::vector<BatchEvent> batches;
  std::int64_t resizes = 0;
  std::int64_t tensor_allocs = 0;  ///< during the replay
  std::int64_t ws_allocs = 0;      ///< engine workspace growth during the replay
  std::uint64_t hash = 0;
  std::int64_t rows_counted = -1;  ///< counting arm only
  std::map<std::string, std::int64_t> counters;  ///< sinks arm only
};

std::uint64_t records_hash(const std::vector<RequestRecord>& records,
                           const std::vector<vf::serve::ResizeEvent>& resizes) {
  BitHash h;
  for (const RequestRecord& r : records) {
    h.add(r.id);
    h.add(static_cast<std::int64_t>(r.rejected));
    h.add(r.prediction);
    h.add(r.dispatch_s);
    h.add(r.queue_wait_s);
    h.add(r.compute_s);
    h.add(r.comm_s);
    h.add(r.finish_s);
    h.add(r.first_token_s);
    for (const std::int64_t t : r.tokens) h.add(t);
    for (const double s : r.token_stamps) h.add(s);
  }
  for (const vf::serve::ResizeEvent& e : resizes) {
    h.add(e.time_s);
    h.add(e.to_devices);
  }
  return h.value();
}

enum class Arm { kPlain, kCounted, kSinks, kPool };

ReplayOut replay(std::uint64_t seed, const std::vector<vf::serve::TracePhase>& phases,
                 Arm arm = Arm::kPlain) {
  ReplayOut out;
  const double t0 = now_s();
  Rig rig(seed, arm == Arm::kPool ? 2 : 0);
  CountingDataset counted(*rig.task.val);
  const vf::Dataset& pool =
      arm == Arm::kCounted ? static_cast<const vf::Dataset&>(counted) : *rig.task.val;
  out.trace = vf::serve::streaming_trace(seed, phases, pool.size(), stream_shape());
  vf::serve::Server server(rig.engine, pool, server_config());
  vf::obs::TraceRecorder trace;
  vf::obs::MetricsRegistry metrics;
  if (arm == Arm::kSinks) server.set_observability({&trace, &metrics});
  const std::int64_t allocs0 = vf::tensor_alloc_count();
  const std::int64_t ws0 = rig.engine.workspace_allocs();
  const double t1 = now_s();
  server.replay(out.trace);
  out.host_s = now_s() - t1;
  out.setup_s = t1 - t0;
  out.tensor_allocs = vf::tensor_alloc_count() - allocs0;
  out.ws_allocs = rig.engine.workspace_allocs() - ws0;
  out.summary = server.slo().summary();
  out.records = server.slo().records();
  out.batches = server.batches();
  out.resizes = static_cast<std::int64_t>(server.resizes().size());
  out.hash = records_hash(out.records, server.resizes());
  if (arm == Arm::kCounted) out.rows_counted = counted.rows();
  if (arm == Arm::kSinks) {
    for (const char* name :
         {"serve.slices.classify", "serve.slices.prefill", "serve.slices.decode",
          "serve.preemptions", "serve.resizes.grow", "serve.resizes.shrink"}) {
      const vf::obs::Counter* c = metrics.find_counter(name);
      out.counters[name] = c == nullptr ? 0 : c->value;
    }
  }
  return out;
}

std::vector<vf::serve::TracePhase> main_phases() {
  return {{40.0, 10.0}, {90.0, 10.0}, {20.0, 10.0}};
}

/// One steady-rate replay: its goodput, and whether the rate holds (goodput
/// and drain limits both met — no growing backlog).
struct RateResult {
  double goodput = 0.0;
  bool holds = false;
};

RateResult at_rate(std::uint64_t seed, double rate) {
  const ReplayOut r = replay(vf::derive_seed(seed, static_cast<std::uint64_t>(rate * 10.0)),
                             {{rate, kSweepSeconds}});
  RateResult out;
  out.goodput = slo_goodput(r.records, r.trace.size());
  double last_finish = 0.0;
  for (const RequestRecord& rec : r.records)
    if (!rec.rejected) last_finish = std::max(last_finish, rec.finish_s);
  out.holds = out.goodput >= kSweepGoodput &&
              last_finish - r.trace.back().arrival_s <= kSweepDrainS;
  return out;
}

/// Elastic capacity of one trace realization: the highest rate on a
/// kCapacityStep grid from kCapacityMin up to which every rate holds (0 when
/// kCapacityMin does not). Where the elastic rule starts to thrash depends
/// on the arrival realization, so the metric averages
/// kCapacityRealizations of them.
double capacity_rps(std::uint64_t seed) {
  double cap = 0.0;
  for (double rate = kCapacityMin; rate <= kCapacityMax; rate += kCapacityStep) {
    if (!at_rate(seed, rate).holds) break;
    cap = rate;
  }
  return cap;
}

/// Conservation (one record per request sent; completed + rejected = sent)
/// and stream completeness of one replay, folded into the two flags.
void check_records(const ReplayOut& r, bool& conserved, bool& streams_ok) {
  const auto sent = static_cast<std::int64_t>(r.trace.size());
  std::vector<char> seen(r.trace.size(), 0);
  conserved &= static_cast<std::int64_t>(r.records.size()) == sent &&
               r.summary.completed + r.summary.rejected == sent;
  for (const RequestRecord& rec : r.records) {
    if (rec.id < 0 || rec.id >= sent || seen[static_cast<std::size_t>(rec.id)]) {
      conserved = false;
      continue;
    }
    seen[static_cast<std::size_t>(rec.id)] = 1;
    const InferRequest& req = r.trace[static_cast<std::size_t>(rec.id)];
    if (rec.rejected || req.stream_tokens == 0) continue;
    const auto want = static_cast<std::size_t>(req.stream_tokens);
    streams_ok &= rec.tokens.size() == want && rec.token_stamps.size() == want &&
                  rec.first_token_s == rec.token_stamps.front() &&
                  std::is_sorted(rec.token_stamps.begin(), rec.token_stamps.end());
  }
}

// ---------------------------------------------------------------------------
// Untraced
// ---------------------------------------------------------------------------

void run_untraced(const RunOptions& opt, Result& res) {
  // Trial t replays realization t mod `realizations`; the first pass gives
  // each realization's goodput and record hash, and every later trial must
  // reproduce its realization's hash.
  const std::int64_t realizations = opt.smoke ? 2 : kQualityRealizations;
  std::vector<double> rates, setup_s, goodput;
  std::vector<std::uint64_t> hashes;
  ReplayOut first;  // realization 0: the trace of --seed itself
  bool trials_identical = true, conserved = true, streams_ok = true;
  std::int64_t requests = 0, rejected = 0;
  const std::int64_t trials = run_trials(opt, realizations + 1, realizations + 1,
                                         [&](std::int64_t t) {
    const std::int64_t k = t % realizations;
    ReplayOut r = replay(realization_seed(opt.seed, k), main_phases());
    const auto sent = static_cast<std::int64_t>(r.trace.size());
    rates.push_back(static_cast<double>(sent) / r.host_s);
    setup_s.push_back(r.setup_s);
    requests += sent;
    rejected += r.summary.rejected;
    if (t >= realizations) {
      trials_identical &= r.hash == hashes[static_cast<std::size_t>(k)];
      return;
    }
    check_records(r, conserved, streams_ok);
    goodput.push_back(slo_goodput(r.records, r.trace.size()));
    hashes.push_back(r.hash);
    if (t == 0) first = std::move(r);
  });

  res.check("trials_identical", trials_identical,
            "every trial reproduces the record hash of its realization's first trial");
  res.check("conservation", conserved,
            "every realization: one record per request, sent = completed + rejected "
            "(shedding off)");
  res.check("stream_token_stamps", streams_ok,
            "every served stream carries one stamp per requested token");
  res.check("pool_bit_identical", replay(opt.seed, main_phases(), Arm::kPool).hash == first.hash,
            "one trial at num_threads=2 vs serial records");
  res.check("obs_sinks_move_nothing",
            replay(opt.seed, main_phases(), Arm::kSinks).hash == first.hash,
            "trace recorder + metrics registry attached");

  std::vector<double> capacity;
  for (std::int64_t k = 0; k < (opt.smoke ? 1 : kCapacityRealizations); ++k)
    capacity.push_back(capacity_rps(realization_seed(opt.seed, k)));

  res.host_throughput(rates);
  res.host_setup(setup_s);
  res.metric("vclock_items_per_s", vf::mean(capacity), "items/s", "virtual");
  res.metric("quality", vf::mean(goodput), "fraction", "virtual");

  const vf::serve::SloSummary& s = first.summary;
  const auto sent = static_cast<double>(first.trace.size());
  res.detail("slo_goodput", goodput.front(), "fraction", "virtual");
  res.detail("ttft_ms_p50", s.p50_ttft_s * 1e3, "ms", "virtual");
  res.detail("ttft_ms_p99", s.p99_ttft_s * 1e3, "ms", "virtual");
  res.detail("itl_ms_p99", s.p99_itl_s * 1e3, "ms", "virtual");
  res.detail("failed_frac", static_cast<double>(s.rejected) / sent, "fraction", "virtual");
  res.detail("requests_sent", sent, "count", "virtual");
  res.detail("streams", static_cast<double>(s.streams), "count", "virtual");
  res.detail("tokens", static_cast<double>(s.tokens), "count", "virtual");
  res.detail("resizes", static_cast<double>(first.resizes), "count", "virtual");
  res.detail("slices", static_cast<double>(first.batches.size()), "count", "virtual");
  res.detail("trials", static_cast<double>(trials), "count", "host");
  res.count_work(requests, rejected);
}

// ---------------------------------------------------------------------------
// Traced
// ---------------------------------------------------------------------------

/// Per-kind slice row counts of one replay, reconstructed from its
/// BatchEvents (classify: one row per request) and the trace (prefill: the
/// stream's prompt length; decode: one row).
struct SliceShapes {
  std::array<std::vector<std::int64_t>, 3> rows;  ///< indexed by SliceKind
  std::int64_t total_rows() const {
    std::int64_t n = 0;
    for (const auto& v : rows)
      for (const std::int64_t r : v) n += r;
    return n;
  }
};

SliceShapes slice_shapes(const ReplayOut& r) {
  SliceShapes s;
  for (const BatchEvent& e : r.batches) {
    if (e.kind == SliceKind::kClassify) s.rows[0].push_back(e.size);
    if (e.kind == SliceKind::kDecode) s.rows[2].push_back(1);
  }
  for (const RequestRecord& rec : r.records)
    if (!rec.rejected && rec.streamed())
      s.rows[1].push_back(r.trace[static_cast<std::size_t>(rec.id)].prompt_tokens);
  return s;
}

constexpr std::array<const char*, 3> kKind = {"classify", "prefill", "decode"};
constexpr std::array<const char*, 3> kInferSpan = {"core.infer.classify", "core.infer.prefill",
                                                   "core.infer.decode"};
constexpr std::array<const char*, 3> kGatherSpan = {"data.gather.classify", "data.gather.prefill",
                                                    "data.gather.decode"};

/// Host seconds of one pass of calls over a replay's slice shapes, per
/// kind: gather through gather_micro_batch_into, infer through
/// engine.infer — the two library calls each dispatch makes.
struct CallPass {
  std::array<double, 3> infer_s{};
  std::array<double, 3> gather_s{};
};

CallPass call_pass(vf::VirtualFlowEngine& engine, const vf::Dataset& pool,
                   const SliceShapes& shapes, SpanLog& spans, std::int64_t trial) {
  CallPass c;
  std::vector<vf::InferSlice> slices(1);
  slices[0].vn = 0;
  vf::MicroBatch mb;
  std::vector<std::int64_t> idx;
  for (std::size_t kind = 0; kind < 3; ++kind) {
    slices[0].decode = kind == 2;
    const std::vector<std::int64_t>& rows = shapes.rows[kind];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      idx.resize(static_cast<std::size_t>(rows[i]));
      for (std::size_t k = 0; k < idx.size(); ++k)
        idx[k] = static_cast<std::int64_t>((i * 7 + k) % static_cast<std::size_t>(pool.size()));
      const double a = now_s();
      vf::gather_micro_batch_into(pool, idx, mb);
      const double b = now_s();
      // The dispatcher gathers straight into the slice; swapping buffers
      // keeps this path copy-free too.
      std::swap(slices[0].features, mb.features);
      const double c0 = now_s();
      engine.infer(slices);
      const double d = now_s();
      std::swap(slices[0].features, mb.features);
      c.gather_s[kind] += b - a;
      c.infer_s[kind] += d - c0;
      if (i < 500) {
        const auto n = static_cast<std::int64_t>(i);
        spans.add(kGatherSpan[kind], a, b, SpanLog::kNone, trial, n);
        spans.add(kInferSpan[kind], c0, d, SpanLog::kNone, trial, n);
      }
    }
  }
  return c;
}

void run_traced(const RunOptions& opt, Result& res, SpanLog& spans) {
  static constexpr std::array<const char*, 4> kArmSpan = {
      "serve.replay", "serve.replay.counted", "serve.replay.obs", "serve.replay.pool2"};
  std::array<std::vector<double>, 4> arm_s;
  ReplayOut plain, counted, sinks;
  SliceShapes shapes;
  Rig rig(opt.seed, 0);  // engine for the per-call passes
  std::vector<CallPass> passes;
  bool arms_identical = true;
  std::uint64_t plain_hash = 0;
  run_trials(opt, /*min_trials=*/3, /*smoke_trials=*/1, [&](std::int64_t t) {
    // Rotate the arm order each trial so no arm always runs first.
    for (std::int64_t j = 0; j < 4; ++j) {
      const auto a = static_cast<std::size_t>((t + j) % 4);
      const std::int64_t span = spans.begin(kArmSpan[a], SpanLog::kNone, t, 0);
      ReplayOut r = replay(opt.seed, main_phases(), static_cast<Arm>(a));
      spans.end(span);
      arm_s[a].push_back(r.host_s);
      if (t == 0 && j == 0) {  // trial 0 starts with the plain arm
        plain_hash = r.hash;
        shapes = slice_shapes(r);
      }
      arms_identical &= r.hash == plain_hash;
      if (t > 0) continue;
      if (a == 0) plain = std::move(r);
      if (a == 1) counted = std::move(r);
      if (a == 2) sinks = std::move(r);
    }
    // One pass of per-call timings in the same host window as the replays.
    passes.push_back(call_pass(rig.engine, *rig.task.val, shapes, spans, t));
  });
  res.check("decorated_arms_bit_identical", arms_identical,
            "counting pool, sinks and two-worker arms vs plain records");
  res.check("rows_attributed", counted.rows_counted == shapes.total_rows(),
            "rows through the pool " + std::to_string(counted.rows_counted) +
                " vs reconstructed " + std::to_string(shapes.total_rows()));

  // Attribution per trial against that trial's plain replay, then medians.
  std::vector<double> infer_f, gather_f, loop_f, trace_over, obs_over, pool_speedup, loop_us;
  std::array<std::vector<double>, 3> infer_k, gather_k;
  const auto slices = static_cast<double>(plain.batches.size());
  for (std::size_t i = 0; i < arm_s[0].size(); ++i) {
    const CallPass& c = passes[i];
    const double infer = c.infer_s[0] + c.infer_s[1] + c.infer_s[2];
    const double gather = c.gather_s[0] + c.gather_s[1] + c.gather_s[2];
    const double replay_i = arm_s[0][i];
    infer_f.push_back(infer / replay_i);
    gather_f.push_back(gather / replay_i);
    loop_f.push_back((replay_i - infer - gather) / replay_i);
    loop_us.push_back((replay_i - infer - gather) / slices * 1e6);
    for (std::size_t k = 0; k < 3; ++k) {
      infer_k[k].push_back(c.infer_s[k]);
      gather_k[k].push_back(c.gather_s[k]);
    }
    trace_over.push_back(arm_s[1][i] / replay_i - 1.0);
    obs_over.push_back(arm_s[2][i] / replay_i - 1.0);
    pool_speedup.push_back(replay_i / arm_s[3][i]);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const auto calls = static_cast<double>(std::max<std::size_t>(1, shapes.rows[k].size()));
    res.detail(std::string("core.infer_") + kKind[k] + "_us",
               host_quantile(infer_k[k]) / calls * 1e6, "us", "host");
    res.detail(std::string("data.gather_") + kKind[k] + "_us",
               host_quantile(gather_k[k]) / calls * 1e6, "us", "host");
  }
  double gather_total = 0.0;
  for (std::size_t k = 0; k < 3; ++k) gather_total += host_quantile(gather_k[k]);
  const double replay_s = host_quantile(arm_s[0]);

  res.layer("bench.unit_ms", replay_s * 1e3, "ms", "host");
  res.layer("core.infer_frac", vf::median(infer_f), "fraction", "host");
  res.layer("data.gather_frac", vf::median(gather_f), "fraction", "host");
  res.layer("serve.loop_frac", vf::median(loop_f), "fraction", "host");
  res.layer("bench.trace_overhead_frac", vf::median(trace_over), "fraction",
            "host");
  res.layer("obs.overhead_frac", vf::median(obs_over), "fraction", "host");
  res.layer("core.pool_speedup", vf::median(pool_speedup), "x", "host");
  res.layer("data.rows_per_unit", static_cast<double>(counted.rows_counted), "count", "host");
  res.layer("data.gather_ns_per_row",
            gather_total / static_cast<double>(shapes.total_rows()) * 1e9, "ns", "host");
  res.layer("tensor.allocs_per_unit", static_cast<double>(plain.tensor_allocs), "count", "host");
  res.layer("core.ws_allocs_per_unit", static_cast<double>(plain.ws_allocs), "count", "host");
  res.layer("serve.slices_per_unit", slices, "count", "virtual");
  res.layer("serve.preemptions", static_cast<double>(sinks.counters["serve.preemptions"]),
            "count", "virtual");
  res.layer("serve.resizes",
            static_cast<double>(sinks.counters["serve.resizes.grow"] +
                                sinks.counters["serve.resizes.shrink"]),
            "count", "virtual");
  std::int64_t warm = 0;
  for (const BatchEvent& e : plain.batches) warm += e.warm ? 1 : 0;
  res.layer("serve.warm_frac", static_cast<double>(warm) / slices, "fraction", "virtual");
  ServedTotals totals;
  totals.add(plain.records);
  res.layer("serve.queue_wait_frac", totals.wait_s / totals.latency_s, "fraction", "virtual");
  res.layer("comm.vclock_frac", totals.comm_s / totals.busy_s, "fraction", "virtual");
  res.layer("serve.model0.slo_goodput", slo_goodput(plain.records, plain.trace.size()),
            "fraction", "virtual");
  for (const double rate : kSweepRates)
    res.layer("serve.sweep.r" + std::to_string(static_cast<int>(rate)) + ".goodput",
              at_rate(opt.seed, rate).goodput, "fraction", "virtual");
  const KernelRates k = measure_kernels(1, kHidden, kHidden, opt.seed, opt.smoke);
  res.layer("tensor.fwd_gflops", k.fwd_gflops, "GFLOP/s", "host");
  res.layer("tensor.dw_gflops", k.dw_gflops, "GFLOP/s", "host");
  res.layer("tensor.dx_gflops", k.dx_gflops, "GFLOP/s", "host");

  res.detail("serve.loop_self_us_per_slice", vf::median(loop_us), "us", "host");
  res.detail("data.rows_reconstructed", static_cast<double>(shapes.total_rows()), "count",
             "virtual");
  for (const auto& [name, v] : sinks.counters)
    if (name != "serve.preemptions")  // a layer metric already
      res.detail(name, static_cast<double>(v), "count", "virtual");
  res.detail("serve.queue_wait_ms_p99", plain.summary.p99_queue_wait_s * 1e3, "ms", "virtual");
  res.detail("serve.inflight_ms_mean", plain.summary.mean_inflight_s * 1e3, "ms", "virtual");
  res.count_work(static_cast<std::int64_t>(arm_s[0].size()) *
                     static_cast<std::int64_t>(plain.trace.size()),
                 0);
}

}  // namespace

double slo_goodput(const std::vector<RequestRecord>& records, std::size_t sent) {
  std::int64_t met = 0;
  for (const RequestRecord& r : records) met += (!r.rejected && r.deadline_met) ? 1 : 0;
  return static_cast<double>(met) / static_cast<double>(sent);
}

void ServedTotals::add(const std::vector<RequestRecord>& records) {
  for (const RequestRecord& r : records) {
    if (r.rejected) continue;
    wait_s += r.queue_wait_s;
    latency_s += r.latency_s();
    comm_s += r.comm_s;
    busy_s += r.compute_s + r.comm_s;
  }
}

void run_serve_stream(const RunOptions& opt, Result& res, SpanLog& spans) {
  if (opt.traced) {
    run_traced(opt, res, spans);
  } else {
    run_untraced(opt, res);
  }
}

}  // namespace vfbench
