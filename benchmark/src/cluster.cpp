// cluster-960: one ClusterController under Gavel (2 s rounds) over 960
// V100s, running bench_cosched's tenants — a single-model Server lease, a
// two-model ColocatedServer lease (staggered 1200-rps bursts, 500 ms
// SLO), one 60-step EngineTrainLease — plus 64 analytic resnet56 jobs
// (bench_cosched's 8-job queue eight times, copy i arriving 0.25*i s
// later). At this scale the controller's own event loop carries most of
// the host time, Gavel's consults and the lease pumps the rest.
//
// Traced run: pass-through Scheduler and DeviceLease decorators — the
// only interfaces the controller calls — time the policy and every lease
// call from outside, and counting Datasets wrap every request pool and
// the lease's training set. The decorated run must reproduce the
// undecorated grants, makespan and records bit for bit.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "virtualflow.h"
#include "workloads.h"

namespace vfbench {
namespace {

using vf::serve::InferRequest;
using vf::serve::RequestRecord;

constexpr std::int64_t kDevices = 960;
constexpr std::int64_t kServeMax = 8;
constexpr std::int64_t kQueueCap = 8192;
constexpr double kDeadline = 0.5;
constexpr double kSteadyRps = 120.0;
constexpr double kBurstRps = 1200.0;
constexpr double kBurstS = 3.0;
constexpr double kTailS = 1.5;
constexpr std::int64_t kLeaseSteps = 60;
constexpr std::int64_t kTrainSteps = 6000;
constexpr std::int64_t kJobCopies = 8;
constexpr std::int64_t kHidden = 64;
constexpr std::int64_t kQualityRealizations = 48;

/// Host seconds and calls accumulated by one decorated interface.
struct LayerClock {
  double seconds = 0.0;
  std::int64_t calls = 0;
};

class TimedScheduler : public vf::Scheduler {
 public:
  TimedScheduler(vf::Scheduler& inner, LayerClock& clock, SpanLog& spans, std::int64_t trial)
      : inner_(inner), clock_(clock), spans_(spans), trial_(trial) {}

  std::map<std::int64_t, vf::Allocation> schedule(const vf::ClusterInventory& cluster,
                                                  const std::vector<const vf::JobState*>& jobs,
                                                  double now) override {
    const double a = now_s();
    auto out = inner_.schedule(cluster, jobs, now);
    const double b = now_s();
    clock_.seconds += b - a;
    spans_.add("sched.policy", a, b, SpanLog::kNone, trial_, clock_.calls++);
    return out;
  }
  double round_interval_s() const override { return inner_.round_interval_s(); }
  double resize_penalty_s() const override { return inner_.resize_penalty_s(); }
  std::string name() const override { return inner_.name(); }

 private:
  vf::Scheduler& inner_;
  LayerClock& clock_;
  SpanLog& spans_;
  std::int64_t trial_;
};

class TimedLease : public vf::sched::DeviceLease {
  template <typename Fn>
  auto timed(Fn&& fn) const {
    const double a = now_s();
    auto out = fn();
    clock_.seconds += now_s() - a;
    ++clock_.calls;
    return out;
  }

 public:
  TimedLease(vf::sched::DeviceLease& inner, LayerClock& clock, SpanLog& spans,
             const char* pump_span, std::int64_t trial)
      : inner_(inner), clock_(clock), spans_(spans), pump_span_(pump_span), trial_(trial) {}

  double next_event_s() const override { return timed([&] { return inner_.next_event_s(); }); }
  void pump(double horizon_s) override {
    const double a = now_s();
    inner_.pump(horizon_s);
    const double b = now_s();
    clock_.seconds += b - a;
    spans_.add(pump_span_, a, b, SpanLog::kNone, trial_, clock_.calls++);
  }
  vf::sched::LoadSignal load() const override { return timed([&] { return inner_.load(); }); }
  double apply_grant(std::int64_t devices) override {
    return timed([&] { return inner_.apply_grant(devices); });
  }
  bool drained() const override { return timed([&] { return inner_.drained(); }); }

 private:
  vf::sched::DeviceLease& inner_;
  LayerClock& clock_;
  SpanLog& spans_;
  const char* pump_span_;
  std::int64_t trial_;
};

/// A proxy task, its model and recipe (bench_cosched's EngineBox).
struct Box {
  vf::ProxyTask task;
  vf::Sequential model;
  vf::TrainRecipe recipe;

  Box(const char* name, std::uint64_t seed)
      : task(vf::make_task(name, seed)),
        model(vf::make_proxy_model(name, seed)),
        recipe(vf::make_recipe(name)) {}

  std::unique_ptr<vf::VirtualFlowEngine> engine(std::int64_t devices, std::int64_t vns,
                                                std::int64_t threads, std::uint64_t seed,
                                                const vf::Dataset& train) const {
    vf::EngineConfig cfg;
    cfg.seed = seed;
    cfg.enforce_memory = false;
    cfg.num_threads = threads;
    return std::make_unique<vf::VirtualFlowEngine>(
        model, *recipe.optimizer, *recipe.schedule, train, vf::model_profile("bert-base"),
        vf::make_devices(vf::DeviceType::kV100, devices),
        vf::VnMapping::even(vns, devices, recipe.global_batch), cfg);
  }
};

vf::serve::ElasticPolicy elastic(std::int64_t max_devices, std::int64_t min_devices) {
  vf::serve::ElasticPolicy e;
  e.enabled = true;
  e.high_watermark = 48;
  e.low_watermark = 1;
  e.min_devices = min_devices;
  e.max_devices = max_devices;
  e.cooldown_batches = 1;
  return e;
}

vf::JobSpec serve_spec(std::int64_t id, std::int64_t demand, std::int64_t max_gpus) {
  vf::JobSpec j;
  j.id = id;
  j.kind = vf::JobKind::kServe;
  j.priority = 10.0;
  j.demand_gpus = demand;
  j.min_gpus = 1;
  j.max_gpus = max_gpus;
  return j;
}

std::vector<vf::JobSpec> analytic_jobs() {
  struct Shape {
    std::int64_t demand;
    double arrival;
  };
  static constexpr std::array<Shape, 8> kQueue = {
      {{32, 0.0}, {24, 0.0}, {16, 2.0}, {16, 4.0}, {8, 6.0}, {8, 8.0}, {8, 10.0}, {8, 12.0}}};
  std::vector<vf::JobSpec> jobs;
  std::int64_t id = 100;
  for (std::int64_t copy = 0; copy < kJobCopies; ++copy) {
    for (const Shape& s : kQueue) {
      vf::JobSpec j;
      j.id = id++;
      j.arrival_s = s.arrival + 0.25 * static_cast<double>(copy);
      j.workload = "resnet56";
      j.profile = vf::model_profile("resnet56");
      j.global_batch = 128;
      j.total_steps = kTrainSteps;
      j.demand_gpus = s.demand;
      jobs.push_back(j);
    }
  }
  return jobs;
}

enum class Arm { kPlain, kDecorated, kSinks, kPool };

/// Per-run decorator clocks (decorated arm).
struct Clocks {
  LayerClock policy, server, colo, train;
};

/// Everything one cluster run owns. Heap-allocated pieces keep every
/// reference the library holds (engines, pools, traces, leases) stable.
struct Rig {
  std::array<std::unique_ptr<Box>, 4> box;  // server, colocated b, colocated c, train
  std::array<std::unique_ptr<CountingDataset>, 4> counted;
  std::array<std::unique_ptr<vf::VirtualFlowEngine>, 4> engine;
  std::vector<InferRequest> trace_a;
  std::vector<std::vector<InferRequest>> traces_bc;
  std::unique_ptr<vf::serve::Server> server;
  vf::serve::ModelRegistry registry;
  std::unique_ptr<vf::serve::ColocatedServer> colo;
  std::unique_ptr<vf::EngineTrainLease> lease;
  std::unique_ptr<vf::GavelScheduler> gavel;
  std::unique_ptr<TimedScheduler> timed_policy;
  std::array<std::unique_ptr<TimedLease>, 3> timed_lease;
  vf::obs::TraceRecorder trace;
  vf::obs::MetricsRegistry metrics;
  std::unique_ptr<vf::ClusterController> controller;

  const vf::Dataset& data(std::size_t i) const {
    return counted[i] ? static_cast<const vf::Dataset&>(*counted[i])
                      : (i == 3 ? *box[i]->task.train : *box[i]->task.val);
  }
  std::int64_t rows() const {
    std::int64_t n = 0;
    for (const auto& c : counted) n += c ? c->rows() : 0;
    return n;
  }
};

std::unique_ptr<Rig> build(std::uint64_t seed, Arm arm, Clocks& clocks, SpanLog& spans,
                           std::int64_t trial) {
  auto rig = std::make_unique<Rig>();
  // The two-worker arm gives the pool to the training lease's engine only:
  // one pool per process keeps it at three threads.
  const std::int64_t lease_threads = arm == Arm::kPool ? 2 : 0;
  static constexpr std::array<const char*, 4> kTask = {"cola-sim", "cola-sim", "mrpc-sim",
                                                       "mrpc-sim"};
  for (std::size_t i = 0; i < 4; ++i) {
    rig->box[i] = std::make_unique<Box>(kTask[i], seed + i);
    if (arm == Arm::kDecorated)
      rig->counted[i] = std::make_unique<CountingDataset>(
          i == 3 ? *rig->box[i]->task.train : *rig->box[i]->task.val);
  }
  const std::int64_t colo_max = 2 * kServeMax;
  // Serving engines train on their task's own split, never gathered during
  // serving; the training lease's engine draws from data(3).
  rig->engine[0] = rig->box[0]->engine(1, kServeMax, 0, seed, *rig->box[0]->task.train);
  rig->engine[1] = rig->box[1]->engine(2, colo_max, 0, seed, *rig->box[1]->task.train);
  rig->engine[2] = rig->box[2]->engine(2, colo_max, 0, seed, *rig->box[2]->task.train);
  rig->engine[3] = rig->box[3]->engine(2, 8, lease_threads, seed, rig->data(3));

  vf::serve::ServerConfig scfg;
  scfg.continuous = true;
  scfg.queue_capacity = kQueueCap;
  scfg.batch = {64, 0.01};
  scfg.deadline_s = kDeadline;
  scfg.elastic = elastic(kServeMax, 1);
  rig->server = std::make_unique<vf::serve::Server>(*rig->engine[0], rig->data(0), scfg);
  rig->trace_a = vf::serve::phased_poisson_trace(
      seed, {{kSteadyRps, 0.5}, {kBurstRps, kBurstS}, {kSteadyRps / 2.0, kBurstS + kTailS}},
      rig->data(0).size());

  vf::serve::ModelConfig mc_b;
  mc_b.name = "model_b";
  mc_b.queue_capacity = kQueueCap;
  mc_b.batch = {64, 0.01};
  mc_b.deadline_s = kDeadline;
  vf::serve::ModelConfig mc_c = mc_b;
  mc_c.name = "model_c";
  rig->registry.add(*rig->engine[1], rig->data(1), mc_b);
  rig->registry.add(*rig->engine[2], rig->data(2), mc_c);
  vf::serve::ColocationConfig ccfg;
  ccfg.continuous = true;
  ccfg.elastic = elastic(colo_max, 2);
  rig->colo = std::make_unique<vf::serve::ColocatedServer>(rig->registry, ccfg);
  rig->traces_bc = {
      vf::serve::phased_poisson_trace(
          seed + 1,
          {{kSteadyRps, 0.5 + kBurstS}, {kBurstRps, kBurstS}, {kSteadyRps / 2.0, kTailS}},
          rig->data(1).size()),
      vf::serve::phased_poisson_trace(
          seed + 2,
          {{kSteadyRps / 2.0, 0.5 + kBurstS}, {kBurstRps / 2.0, kBurstS},
           {kSteadyRps / 2.0, kTailS}},
          rig->data(2).size())};
  rig->lease = std::make_unique<vf::EngineTrainLease>(*rig->engine[3], kLeaseSteps,
                                                      vf::DeviceType::kV100);
  if (arm == Arm::kSinks) {
    rig->server->set_observability({&rig->trace, &rig->metrics});
    rig->colo->set_observability({&rig->trace, &rig->metrics});
  }
  rig->server->set_cluster_governed();
  rig->colo->set_cluster_governed();
  rig->server->begin(rig->trace_a);
  rig->colo->begin(rig->traces_bc);

  vf::GavelOptions gopt;
  gopt.round_s = 2.0;
  gopt.restart_penalty_s = 1.0;  // VirtualFlow resize, not checkpoint-restart
  rig->gavel = std::make_unique<vf::GavelScheduler>(gopt);
  vf::Scheduler* policy = rig->gavel.get();
  vf::sched::DeviceLease* leases[3] = {rig->server.get(), rig->colo.get(), rig->lease.get()};
  if (arm == Arm::kDecorated) {
    rig->timed_policy = std::make_unique<TimedScheduler>(*rig->gavel, clocks.policy, spans, trial);
    policy = rig->timed_policy.get();
    LayerClock* lease_clock[3] = {&clocks.server, &clocks.colo, &clocks.train};
    static constexpr std::array<const char*, 3> kPumpSpan = {
        "serve.server_lease.pump", "serve.colocated_lease.pump", "core.train_lease.pump"};
    for (std::size_t i = 0; i < 3; ++i) {
      rig->timed_lease[i] =
          std::make_unique<TimedLease>(*leases[i], *lease_clock[i], spans, kPumpSpan[i], trial);
      leases[i] = rig->timed_lease[i].get();
    }
  }
  vf::ClusterInventory cluster;
  cluster.per_type[vf::DeviceType::kV100] = kDevices;
  rig->controller = std::make_unique<vf::ClusterController>(cluster, *policy);
  if (arm == Arm::kSinks) rig->controller->set_observability({&rig->trace, &rig->metrics});
  rig->controller->add_serve_job(serve_spec(0, /*demand=*/2, kServeMax), *leases[0]);
  rig->controller->add_serve_job(serve_spec(1, /*demand=*/4, colo_max), *leases[1]);
  vf::JobSpec lease_spec;
  lease_spec.id = 99;
  lease_spec.workload = "bert-base";
  lease_spec.profile = vf::model_profile("bert-base");
  lease_spec.global_batch = rig->box[3]->recipe.global_batch;
  lease_spec.total_steps = kLeaseSteps;
  lease_spec.demand_gpus = 2;
  rig->controller->add_train_lease(lease_spec, *leases[2]);
  for (const vf::JobSpec& j : analytic_jobs()) rig->controller->add_train_job(j);
  return rig;
}

struct Outcome {
  double setup_s = 0.0;
  double host_s = 0.0;
  vf::ClusterReport report;
  std::array<std::vector<RequestRecord>, 3> records;  ///< server, model b, model c
  std::array<std::size_t, 3> sent{};
  std::int64_t slices = 0, warm = 0, resizes = 0, rows = 0;
  std::int64_t tensor_allocs = 0, ws_allocs = 0;  ///< during run()
  bool finished = true;  ///< every training job done, every lease drained
  std::uint64_t hash = 0;
};

Outcome run_once(std::uint64_t seed, Arm arm, Clocks& clocks, SpanLog& spans,
                 std::int64_t trial) {
  Outcome o;
  const double t0 = now_s();
  std::unique_ptr<Rig> rig = build(seed, arm, clocks, spans, trial);
  const auto ws_total = [&] {
    std::int64_t n = 0;
    for (const auto& e : rig->engine) n += e->workspace_allocs();
    return n;
  };
  const std::int64_t allocs0 = vf::tensor_alloc_count();
  const std::int64_t ws0 = ws_total();
  const double t1 = now_s();
  o.report = rig->controller->run();
  o.host_s = now_s() - t1;
  o.setup_s = t1 - t0;
  o.tensor_allocs = vf::tensor_alloc_count() - allocs0;
  o.ws_allocs = ws_total() - ws0;
  rig->server->finish();
  rig->colo->finish();

  o.records = {rig->server->slo().records(), rig->colo->slo(0).records(),
               rig->colo->slo(1).records()};
  o.sent = {rig->trace_a.size(), rig->traces_bc[0].size(), rig->traces_bc[1].size()};
  for (const auto* batches : {&rig->server->batches(), &rig->colo->batches()}) {
    o.slices += static_cast<std::int64_t>(batches->size());
    for (const auto& e : *batches) o.warm += e.warm ? 1 : 0;
  }
  o.resizes = static_cast<std::int64_t>(rig->server->resizes().size() +
                                        rig->colo->resizes().size());
  o.rows = rig->rows();
  for (const vf::JobState& j : o.report.jobs)
    if (j.spec.kind == vf::JobKind::kTrain) o.finished &= j.finished();
  o.finished &= rig->server->drained() && rig->colo->drained() && rig->lease->drained() &&
                rig->lease->steps_done() == kLeaseSteps;

  BitHash h;
  h.add(o.report.end_s);
  h.add(o.report.train_makespan_s);
  for (const vf::GrantRecord& g : o.report.grants) {
    h.add(g.time_s);
    h.add(g.job_id);
    h.add(g.to_devices);
    h.add(g.migration_s);
  }
  for (const auto& recs : o.records)
    for (const RequestRecord& r : recs) {
      h.add(r.id);
      h.add(static_cast<std::int64_t>(r.rejected));
      h.add(r.prediction);
      h.add(r.dispatch_s);
      h.add(r.finish_s);
    }
  o.hash = h.value();
  return o;
}

std::int64_t total_sent(const Outcome& o) {
  return static_cast<std::int64_t>(o.sent[0] + o.sent[1] + o.sent[2]);
}

double model_goodput(const Outcome& o, std::size_t m) {
  return slo_goodput(o.records[m], o.sent[m]);
}

double worst_goodput(const Outcome& o) {
  double worst = 1.0;
  for (std::size_t m = 0; m < 3; ++m) worst = std::min(worst, model_goodput(o, m));
  return worst;
}

std::int64_t rejected(const Outcome& o) {
  std::int64_t n = 0;
  for (const auto& recs : o.records)
    for (const RequestRecord& r : recs) n += r.rejected ? 1 : 0;
  return n;
}

bool conserved(const Outcome& o) {
  bool ok = true;
  for (std::size_t m = 0; m < 3; ++m) ok &= o.records[m].size() == o.sent[m];
  return ok;
}

void check_outcome(bool conserved, bool finished, Result& res) {
  res.check("conservation", conserved,
            "every model: sent = completed + rejected (one record per request)");
  res.check("cluster_drained", finished,
            "all training jobs finished, all leases drained after run()");
}

// ---------------------------------------------------------------------------
// Untraced
// ---------------------------------------------------------------------------

void run_untraced(const RunOptions& opt, Result& res) {
  Clocks clocks;
  SpanLog off(false);
  // Trial t runs arrival realization t mod `realizations`. The worst
  // model's goodput moves by about 9% of its mean from one realization to
  // the next; the quality metric averages the first pass over all of them,
  // and every later trial must reproduce its realization's hash.
  const std::int64_t realizations = opt.smoke ? 2 : kQualityRealizations;
  std::vector<double> rates, setup_s, worst;
  std::vector<std::uint64_t> hashes;
  Outcome first;  // realization 0: the traces of --seed itself
  bool trials_identical = true, all_conserved = true, all_finished = true;
  std::int64_t requests = 0, failed = 0;
  const std::int64_t trials = run_trials(opt, realizations + 1, realizations + 1,
                                         [&](std::int64_t t) {
    const std::int64_t k = t % realizations;
    Outcome o = run_once(realization_seed(opt.seed, k), Arm::kPlain, clocks, off, t);
    rates.push_back(static_cast<double>(total_sent(o)) / o.host_s);
    setup_s.push_back(o.setup_s);
    requests += total_sent(o);
    failed += rejected(o);
    if (t >= realizations) {
      trials_identical &= o.hash == hashes[static_cast<std::size_t>(k)];
      return;
    }
    all_conserved &= conserved(o);
    all_finished &= o.finished;
    worst.push_back(worst_goodput(o));
    hashes.push_back(o.hash);
    if (t == 0) first = std::move(o);
  });
  res.check("trials_identical", trials_identical,
            "every trial reproduces the grants, makespan and records of its realization");
  check_outcome(all_conserved, all_finished, res);
  res.check("obs_sinks_move_nothing",
            run_once(opt.seed, Arm::kSinks, clocks, off, 0).hash == first.hash,
            "trace recorder + metrics registry on controller and servers");

  const auto sent = static_cast<double>(total_sent(first));
  double train_samples = 0.0;
  for (const vf::JobState& j : first.report.jobs)
    if (j.spec.kind == vf::JobKind::kTrain)
      train_samples += static_cast<double>(j.spec.total_steps * j.spec.global_batch);
  const double makespan = first.report.train_makespan_s;

  res.host_throughput(rates);
  res.host_setup(setup_s);
  res.metric("vclock_items_per_s", train_samples / makespan, "items/s", "virtual");
  res.metric("quality", vf::mean(worst), "fraction", "virtual");

  std::vector<double> latencies;
  for (const auto& recs : first.records)
    for (const RequestRecord& r : recs)
      if (!r.rejected) latencies.push_back(r.latency_s());
  const std::vector<double> lat = vf::percentiles(latencies, {0.5, 0.99});
  res.detail("slo_goodput", worst.front(), "fraction", "virtual");
  res.detail("latency_ms_p50", lat[0] * 1e3, "ms", "virtual");
  res.detail("latency_ms_p99", lat[1] * 1e3, "ms", "virtual");
  res.detail("train_makespan_s", makespan, "s", "virtual");
  res.detail("failed_frac", static_cast<double>(rejected(first)) / sent, "fraction", "virtual");
  res.detail("requests_sent", sent, "count", "virtual");
  res.detail("sched.grants", static_cast<double>(first.report.grants.size()), "count",
             "virtual");
  res.detail("trials", static_cast<double>(trials), "count", "host");
  res.count_work(requests, failed);
}

// ---------------------------------------------------------------------------
// Traced
// ---------------------------------------------------------------------------

void run_traced(const RunOptions& opt, Result& res, SpanLog& spans) {
  static constexpr std::array<const char*, 4> kArmSpan = {
      "sched.run", "sched.run.decorated", "sched.run.obs", "sched.run.pool2"};
  std::array<std::vector<double>, 4> arm_s;
  std::vector<Clocks> decorated;  // one per trial
  Outcome plain, dec;
  std::uint64_t plain_hash = 0;
  bool decorated_exact = true, arms_exact = true;
  run_trials(opt, /*min_trials=*/3, /*smoke_trials=*/1, [&](std::int64_t t) {
    decorated.emplace_back();
    for (std::int64_t j = 0; j < 4; ++j) {
      const auto a = static_cast<std::size_t>((t + j) % 4);
      Clocks unused;
      Clocks& clocks = a == 1 ? decorated.back() : unused;
      const std::int64_t span = spans.begin(kArmSpan[a], SpanLog::kNone, t, 0);
      Outcome o = run_once(opt.seed, static_cast<Arm>(a), clocks, spans, t);
      spans.end(span);
      arm_s[a].push_back(o.host_s);
      if (t == 0 && j == 0) plain_hash = o.hash;  // trial 0 starts with the plain arm
      if (a == 1) decorated_exact &= o.hash == plain_hash;
      arms_exact &= o.hash == plain_hash;
      if (t > 0) continue;
      if (a == 0) plain = std::move(o);
      if (a == 1) dec = std::move(o);
    }
  });
  res.check("decorated_run_bit_identical", decorated_exact,
            "Scheduler/DeviceLease decorators + counting pools vs undecorated");
  res.check("arms_bit_identical", arms_exact, "sinks-on and two-worker runs vs plain");
  check_outcome(conserved(plain), plain.finished, res);

  // Attribution within each decorated run, then the median over trials.
  std::vector<double> policy_f, serve_f, train_f, self_f, trace_over, obs_over, speedup;
  std::vector<double> policy_s, server_s, colo_s, train_s, self_s;
  for (std::size_t i = 0; i < decorated.size(); ++i) {
    const Clocks& c = decorated[i];
    const double run = arm_s[1][i];
    const double self = run - c.policy.seconds - c.server.seconds - c.colo.seconds -
                        c.train.seconds;
    policy_f.push_back(c.policy.seconds / run);
    serve_f.push_back((c.server.seconds + c.colo.seconds) / run);
    train_f.push_back(c.train.seconds / run);
    self_f.push_back(self / run);
    policy_s.push_back(c.policy.seconds);
    server_s.push_back(c.server.seconds);
    colo_s.push_back(c.colo.seconds);
    train_s.push_back(c.train.seconds);
    self_s.push_back(self);
    trace_over.push_back(arm_s[1][i] / arm_s[0][i] - 1.0);
    obs_over.push_back(arm_s[2][i] / arm_s[0][i] - 1.0);
    speedup.push_back(arm_s[0][i] / arm_s[3][i]);
  }
  const Clocks& c0 = decorated.front();  // call counts repeat exactly
  const double run_s = host_quantile(arm_s[0]);

  res.layer("bench.unit_ms", run_s * 1e3, "ms", "host");
  res.layer("sched.policy_frac", vf::median(policy_f), "fraction", "host");
  res.layer("serve.lease_frac", vf::median(serve_f), "fraction", "host");
  res.layer("core.train_lease_frac", vf::median(train_f), "fraction", "host");
  res.layer("sched.controller_frac", vf::median(self_f), "fraction", "host");
  res.layer("bench.trace_overhead_frac", vf::median(trace_over), "fraction",
            "host");
  res.layer("obs.overhead_frac", vf::median(obs_over), "fraction", "host");
  res.layer("core.pool_speedup", vf::median(speedup), "x", "host");
  res.layer("sched.policy_calls", static_cast<double>(c0.policy.calls), "count", "host");
  res.layer("sched.lease_calls",
            static_cast<double>(c0.server.calls + c0.colo.calls + c0.train.calls), "count",
            "host");
  res.layer("sched.grants", static_cast<double>(plain.report.grants.size()), "count",
            "virtual");
  res.layer("data.rows_per_unit", static_cast<double>(dec.rows), "count", "host");
  res.layer("tensor.allocs_per_unit", static_cast<double>(plain.tensor_allocs), "count", "host");
  res.layer("core.ws_allocs_per_unit", static_cast<double>(plain.ws_allocs), "count", "host");
  res.layer("serve.slices_per_unit", static_cast<double>(plain.slices), "count", "virtual");
  res.layer("serve.resizes", static_cast<double>(plain.resizes), "count", "virtual");
  res.layer("serve.warm_frac",
            static_cast<double>(plain.warm) / static_cast<double>(plain.slices), "fraction",
            "virtual");
  ServedTotals totals;
  for (const auto& recs : plain.records) totals.add(recs);
  res.layer("serve.queue_wait_frac", totals.wait_s / totals.latency_s, "fraction", "virtual");
  res.layer("comm.vclock_frac", totals.comm_s / totals.busy_s, "fraction", "virtual");
  for (std::size_t m = 0; m < 3; ++m)
    res.layer("serve.model" + std::to_string(m) + ".slo_goodput", model_goodput(plain, m),
              "fraction", "virtual");

  // Per-row gather cost on the server's classify slice shape (64-request
  // batch over 8 VNs = 8 rows), through gather_micro_batch_into.
  {
    const Box box("cola-sim", opt.seed);
    const vf::Dataset& pool = *box.task.val;
    const std::int64_t rows = 8;
    vf::MicroBatch mb;
    std::vector<std::int64_t> idx(static_cast<std::size_t>(rows));
    std::vector<double> per_row;
    const int batches = opt.smoke ? 5 : 40;
    for (int b = 0; b < batches; ++b) {
      const double a = now_s();
      for (int r = 0; r < 200; ++r) {
        for (std::size_t k = 0; k < idx.size(); ++k)
          idx[k] = static_cast<std::int64_t>((static_cast<std::size_t>(r) * 8 + k) %
                                             static_cast<std::size_t>(pool.size()));
        vf::gather_micro_batch_into(pool, idx, mb);
      }
      per_row.push_back((now_s() - a) / (200.0 * static_cast<double>(rows)));
    }
    res.layer("data.gather_ns_per_row", host_quantile(per_row) * 1e9, "ns", "host");
  }
  const KernelRates k = measure_kernels(8, kHidden, kHidden, opt.seed, opt.smoke);
  res.layer("tensor.fwd_gflops", k.fwd_gflops, "GFLOP/s", "host");
  res.layer("tensor.dw_gflops", k.dw_gflops, "GFLOP/s", "host");
  res.layer("tensor.dx_gflops", k.dx_gflops, "GFLOP/s", "host");

  res.detail("sched.policy_ms", host_quantile(policy_s) * 1e3, "ms", "host");
  res.detail("sched.policy_us_per_call",
             host_quantile(policy_s) /
                 static_cast<double>(std::max<std::int64_t>(1, c0.policy.calls)) * 1e6,
             "us", "host");
  res.detail("serve.server_lease_ms", host_quantile(server_s) * 1e3, "ms", "host");
  res.detail("serve.colocated_lease_ms", host_quantile(colo_s) * 1e3, "ms", "host");
  res.detail("core.train_lease_ms", host_quantile(train_s) * 1e3, "ms", "host");
  res.detail("sched.controller_self_ms", host_quantile(self_s) * 1e3, "ms", "host");
  double migration = 0.0;
  for (const vf::GrantRecord& g : plain.report.grants) migration += g.migration_s;
  res.detail("sched.grant_migration_s", migration, "s", "virtual");
  res.count_work(static_cast<std::int64_t>(arm_s[0].size()) * total_sent(plain),
                 rejected(plain));
}

}  // namespace

void run_cluster_960(const RunOptions& opt, Result& res, SpanLog& spans) {
  if (opt.traced) {
    run_traced(opt, res, spans);
  } else {
    run_untraced(opt, res);
  }
}

}  // namespace vfbench
