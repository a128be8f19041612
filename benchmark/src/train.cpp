// train-large-batch and train-many-vn.
//
// Untraced run: each trial builds the job anew (datasets, model,
// recipe, engine — plus the first step, which warms every workspace; all
// of it is setup), runs the rest of the recipe timing every train_step,
// then measures validation accuracy. Host throughput is global batch over
// the p10 step.
//
// Traced run: a serial engine steps in lockstep with a PHASE REPLAY of the
// same step through the library's public APIs — the benchmark's own
// replicas, VnStates, Workspace and EpochBatcher, running micro_batch_into
// -> forward_into -> softmax_cross_entropy_into -> backward_into ->
// flatten_grads_into -> VN-id-ordered add_/scale_ -> load_grads +
// Optimizer::apply, each timed from outside. The replay must stay
// bit-identical to train_step (loss every step, parameters at the end); its
// phases then attribute the engine's step time layer by layer. Two more
// engines ride the same lockstep — one with observability sinks attached
// and one on a two-worker pool — so every ratio compares work done in the
// same host window.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "virtualflow.h"
#include "workloads.h"

namespace vfbench {
namespace {

constexpr std::int32_t kTagLogits = -1;
constexpr std::int32_t kTagTopGrad = -2;
constexpr std::int64_t kHidden = 64;  // proxy-model width (workloads/tasks.cpp)

struct TrainSpec {
  const char* task;
  const char* profile;
  std::int64_t vns;
  std::int64_t devices;
  std::int64_t min_trials;
  std::int64_t obs_steps;  ///< steps of the sinks-attached arm
  /// Rerun the recipe on 2 devices (mapping invariance) and on a two-worker
  /// pool; both must reproduce the measured serial trials bit for bit.
  bool check_placement;
};

/// A training job built anew: everything a trial's setup pays for.
struct Job {
  vf::ProxyTask task;
  vf::TrainRecipe recipe;
  vf::Sequential model;
  vf::VirtualFlowEngine engine;

  Job(const TrainSpec& s, std::uint64_t seed, std::int64_t devices,
      std::int64_t threads)
      : task(vf::make_task(s.task, seed)),
        recipe(vf::make_recipe(s.task)),
        model(vf::make_proxy_model(s.task, seed)),
        engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
               vf::model_profile(s.profile),
               vf::make_devices(vf::DeviceType::kV100, devices),
               vf::VnMapping::even(s.vns, devices, recipe.global_batch),
               engine_config(seed, threads)) {}

  static vf::EngineConfig engine_config(std::uint64_t seed, std::int64_t threads) {
    vf::EngineConfig c;  // enforce_memory stays on: the mapping must fit
    c.seed = seed;
    c.num_threads = threads;
    return c;
  }

  std::int64_t total_steps() const { return engine.steps_per_epoch() * recipe.epochs; }
  std::int64_t global_batch() const { return engine.mapping().global_batch(); }
};

// ---------------------------------------------------------------------------
// Untraced
// ---------------------------------------------------------------------------

void run_untraced(const TrainSpec& s, const RunOptions& opt, Result& res) {
  std::vector<double> rates, setup_s;
  std::vector<double> first_losses;
  vf::Tensor first_params, params_at_k;
  std::uint64_t first_hash = 0;
  bool trials_identical = true;
  std::int64_t steady_allocs = 0, steady_ws_allocs = 0, steps_total = 0;
  double accuracy = 0.0, final_loss = 0.0, vclock = 0.0;

  const std::int64_t trials = run_trials(opt, s.min_trials, 2, [&](std::int64_t t) {
    const double t0 = now_s();
    auto job = std::make_unique<Job>(s, opt.seed, s.devices, /*threads=*/0);
    std::vector<double> losses = {job->engine.train_step().loss};
    setup_s.push_back(now_s() - t0);

    const std::int64_t total = job->total_steps();
    const auto batch = static_cast<double>(job->global_batch());
    for (std::int64_t k = 1; k < total; ++k) {
      const std::int64_t a0 = vf::tensor_alloc_count();
      const std::int64_t w0 = job->engine.workspace_allocs();
      const double a = now_s();
      const vf::StepStats st = job->engine.train_step();
      rates.push_back(batch / (now_s() - a));
      steady_allocs += vf::tensor_alloc_count() - a0;
      steady_ws_allocs += job->engine.workspace_allocs() - w0;
      losses.push_back(st.loss);
      if (t == 0 && k + 1 == s.obs_steps) params_at_k = job->engine.parameters();
    }
    steps_total += total;
    const double acc = job->engine.evaluate(*job->task.val);
    const vf::Tensor params = job->engine.parameters();

    BitHash h;
    for (const double l : losses) h.add(l);
    h.add(params.data());
    h.add(acc);
    if (t == 0) {
      first_hash = h.value();
      first_losses = losses;
      first_params = params;
      accuracy = acc;
      final_loss = losses.back();
      vclock = batch * static_cast<double>(total) / job->engine.sim_time_s();
    } else if (h.value() != first_hash) {
      trials_identical = false;
    }
  });

  // Correctness arms, outside the measured window.
  res.check("trials_identical", trials_identical,
            "every trial reproduces trial 0's losses, parameters and accuracy");
  res.check("zero_steady_allocs", steady_allocs == 0 && steady_ws_allocs == 0,
            "tensor allocs " + std::to_string(steady_allocs) + ", workspace allocs " +
                std::to_string(steady_ws_allocs) + " after the first step");
  {
    vf::obs::TraceRecorder trace;
    vf::obs::MetricsRegistry metrics;
    auto job = std::make_unique<Job>(s, opt.seed, s.devices, /*threads=*/0);
    job->engine.set_observability({&trace, &metrics});
    bool same = true;
    for (std::int64_t k = 0; k < s.obs_steps; ++k)
      same &= job->engine.train_step().loss == first_losses[static_cast<std::size_t>(k)];
    same &= job->engine.parameters().equals(params_at_k);
    res.check("obs_sinks_move_nothing", same,
              "sinks attached for " + std::to_string(s.obs_steps) + " steps");
  }
  if (s.check_placement) {
    // The whole recipe on another placement: every loss and the final
    // parameters must match the measured trials.
    const auto reproduces = [&](std::int64_t devices, std::int64_t threads) {
      auto job = std::make_unique<Job>(s, opt.seed, devices, threads);
      bool same = true;
      for (std::int64_t k = 0; k < job->total_steps(); ++k)
        same &= job->engine.train_step().loss == first_losses[static_cast<std::size_t>(k)];
      return same && job->engine.parameters().equals(first_params);
    };
    res.check("mapping_invariance", reproduces(2, 0),
              std::to_string(s.vns) + " VNs on 2 devices vs " + std::to_string(s.devices) +
                  ": losses and final parameters");
    res.check("pool_bit_identical", reproduces(s.devices, 2),
              "two-worker pool vs serial: losses and final parameters");
  }

  res.host_throughput(rates);
  res.host_setup(setup_s);
  res.metric("vclock_items_per_s", vclock, "items/s", "virtual");
  res.metric("quality", accuracy, "fraction", "virtual");

  res.detail("final_loss", final_loss, "nats", "virtual");
  res.detail("trials", static_cast<double>(trials), "count", "host");
  res.count_work(steps_total, 0);
}

// ---------------------------------------------------------------------------
// Traced: the phase replay
// ---------------------------------------------------------------------------

enum Phase { kGather, kForward, kLoss, kBackward, kFlatten, kReduce, kOptimizer, kPhases };
constexpr std::array<const char*, kPhases> kPhaseSpan = {
    "data.gather", "nn.forward", "nn.loss", "nn.backward",
    "nn.flatten",  "core.reduce", "nn.optimizer"};

/// The engine's train_step, re-run phase by phase through public APIs on
/// the benchmark's own state (same seed, same mapping, same recipe).
class PhaseReplay {
 public:
  PhaseReplay(const Job& job, std::uint64_t seed)
      : mapping_(job.engine.mapping()),
        schedule_(job.recipe.schedule->clone()),
        batcher_(*job.task.train, seed, mapping_.global_batch()),
        seed_(seed) {
    const auto v = static_cast<std::size_t>(mapping_.total_vns());
    for (std::int64_t d = 0; d < mapping_.num_devices(); ++d) {
      replicas_.push_back(job.model);
      opts_.push_back(job.recipe.optimizer->clone());
    }
    states_.resize(v);
    ws_.ensure_vns(mapping_.total_vns());
    mb_.resize(v);
    idx_.resize(v);
    loss_.resize(v);
    grad_sums_.resize(v);
    loss_sums_.assign(v, 0.0);
  }

  /// One step; adds each phase's host seconds into `phase_s` and records
  /// per-VN phase spans under `parent`. Returns the global-batch loss.
  double step(std::array<double, kPhases>& phase_s, SpanLog& spans,
              std::int64_t parent, std::int64_t trial) {
    const auto timed = [&](Phase p, auto&& fn) {
      const double a = now_s();
      fn();
      const double b = now_s();
      phase_s[p] += b - a;
      spans.add(kPhaseSpan[p], a, b, parent, trial, step_);
    };
    const std::int64_t bpe = batcher_.batches_per_epoch();
    const std::int64_t epoch = step_ / bpe;
    const std::int64_t bie = step_ % bpe;
    const auto slices = mapping_.slices();
    batcher_.prepare_epoch(epoch);
    ws_.begin_region();
    for (std::int64_t d = 0; d < mapping_.num_devices(); ++d) {
      vf::Sequential& model = replicas_[static_cast<std::size_t>(d)];
      for (const std::int32_t vn : mapping_.device_vns(d)) {
        const auto v = static_cast<std::size_t>(vn);
        vf::MicroBatch& mb = mb_[v];
        timed(kGather, [&] { batcher_.micro_batch_into(epoch, bie, slices, vn, mb, idx_[v]); });
        vf::ExecContext ctx;
        ctx.seed = seed_;
        ctx.step = step_;
        ctx.vn_id = vn;
        ctx.training = true;
        ctx.state = &states_[v];
        ctx.ws = &ws_;
        vf::Tensor* logits = nullptr;
        timed(kForward, [&] {
          model.zero_grad();
          logits = &ws_.acquire(vn, kTagLogits);
          model.forward_into(mb.features, *logits, ctx);
        });
        timed(kLoss, [&] { vf::softmax_cross_entropy_into(*logits, mb.labels, loss_[v]); });
        timed(kBackward, [&] {
          model.backward_into(loss_[v].grad_logits, ws_.acquire(vn, kTagTopGrad));
        });
        timed(kFlatten, [&] {
          model.flatten_grads_into(grad_sums_[v]);
          loss_sums_[v] = loss_[v].loss_sum;
        });
      }
    }
    const auto b = static_cast<double>(mapping_.global_batch());
    double loss_sum = 0.0;
    timed(kReduce, [&] {
      for (const double l : loss_sums_) loss_sum += l;
      global_ = grad_sums_.at(0);
      for (std::size_t vn = 1; vn < grad_sums_.size(); ++vn) global_.add_(grad_sums_[vn]);
      global_.scale_(static_cast<float>(1.0 / b));
    });
    timed(kOptimizer, [&] {
      const float lr = schedule_->lr(step_);
      for (std::size_t d = 0; d < replicas_.size(); ++d) {
        replicas_[d].load_grads(global_);
        opts_[d]->apply(replicas_[d], lr);
      }
    });
    ++step_;
    return loss_sum / b;
  }

  vf::Tensor parameters() const { return replicas_.front().flatten_params(); }

 private:
  vf::VnMapping mapping_;
  std::unique_ptr<vf::LrSchedule> schedule_;
  vf::EpochBatcher batcher_;
  std::uint64_t seed_;
  std::vector<vf::Sequential> replicas_;
  std::vector<std::unique_ptr<vf::Optimizer>> opts_;
  std::vector<vf::VnState> states_;
  vf::Workspace ws_;
  std::vector<vf::MicroBatch> mb_;
  std::vector<std::vector<std::int64_t>> idx_;
  std::vector<vf::LossResult> loss_;
  std::vector<vf::Tensor> grad_sums_;
  std::vector<double> loss_sums_;
  vf::Tensor global_;
  std::int64_t step_ = 0;
};

void run_traced(const TrainSpec& s, const RunOptions& opt, Result& res, SpanLog& spans) {
  // Per measured step (the first step of each trial warms buffers and is
  // excluded): engine, replay, sinks-on engine, two-worker engine, phases.
  std::vector<double> eng_s, replay_s, obs_s, pool_s;
  std::vector<std::array<double, kPhases>> phases;
  bool replay_exact = true, obs_exact = true, pool_exact = true;
  std::int64_t steady_allocs = 0, steady_ws_allocs = 0, steady_steps = 0;
  std::int64_t global_batch = 0, rows_per_vn = 0;
  double vclock_step_s = 0.0, vclock_comm_s = 0.0, sum_comm = 0.0, sum_step = 0.0;

  run_trials(opt, /*min_trials=*/1, /*smoke_trials=*/1, [&](std::int64_t t) {
    auto job = std::make_unique<Job>(s, opt.seed, s.devices, 0);
    auto job_obs = std::make_unique<Job>(s, opt.seed, s.devices, 0);
    auto job_pool = std::make_unique<Job>(s, opt.seed, s.devices, 2);
    vf::obs::TraceRecorder trace;
    vf::obs::MetricsRegistry metrics;
    job_obs->engine.set_observability({&trace, &metrics});
    PhaseReplay replay(*job, opt.seed);
    global_batch = job->global_batch();
    rows_per_vn = global_batch / s.vns;

    const std::int64_t total = job->total_steps();
    for (std::int64_t k = 0; k < total; ++k) {
      std::array<double, 4> arm_s{};
      std::array<double, kPhases> ph{};
      vf::StepStats st;
      double loss_replay = 0.0, loss_obs = 0.0, loss_pool = 0.0;
      std::int64_t allocs = 0, ws_allocs = 0;
      // Rotate the arm order every step so no arm always runs on caches
      // warmed (or evicted) by the same neighbour.
      for (std::int64_t j = 0; j < 4; ++j) {
        const std::int64_t arm = (k + j) % 4;
        const double a = now_s();
        if (arm == 0) {
          const std::int64_t span = spans.begin("core.step", SpanLog::kNone, t, k);
          const std::int64_t a0 = vf::tensor_alloc_count();
          const std::int64_t w0 = job->engine.workspace_allocs();
          st = job->engine.train_step();
          allocs = vf::tensor_alloc_count() - a0;
          ws_allocs = job->engine.workspace_allocs() - w0;
          spans.end(span);
        } else if (arm == 1) {
          const std::int64_t span = spans.begin("replay.step", SpanLog::kNone, t, k);
          loss_replay = replay.step(ph, spans, span, t);
          spans.end(span);
        } else if (arm == 2) {
          const std::int64_t span = spans.begin("core.step.obs", SpanLog::kNone, t, k);
          loss_obs = job_obs->engine.train_step().loss;
          spans.end(span);
        } else {
          const std::int64_t span = spans.begin("core.step.pool2", SpanLog::kNone, t, k);
          loss_pool = job_pool->engine.train_step().loss;
          spans.end(span);
        }
        arm_s[static_cast<std::size_t>(arm)] = now_s() - a;
      }
      replay_exact &= loss_replay == st.loss;
      obs_exact &= loss_obs == st.loss;
      pool_exact &= loss_pool == st.loss;
      sum_comm += st.comm_time_s;
      sum_step += st.step_time_s;
      if (k == 0) continue;
      vclock_step_s = st.step_time_s;
      vclock_comm_s = st.comm_time_s;
      eng_s.push_back(arm_s[0]);
      replay_s.push_back(arm_s[1]);
      obs_s.push_back(arm_s[2]);
      pool_s.push_back(arm_s[3]);
      phases.push_back(ph);
      steady_allocs += allocs;
      steady_ws_allocs += ws_allocs;
      ++steady_steps;
    }
    const vf::Tensor params = job->engine.parameters();
    replay_exact &= replay.parameters().equals(params);
    obs_exact &= job_obs->engine.parameters().equals(params);
    pool_exact &= job_pool->engine.parameters().equals(params);
  });

  // Per-step ratios against the engine step of the same window.
  const std::size_t n = eng_s.size();
  std::array<std::vector<double>, kPhases> frac;
  std::array<std::vector<double>, kPhases> abs_s;
  std::vector<double> unattributed, trace_over, obs_over, pool_speedup, gather_ns;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int p = 0; p < kPhases; ++p) {
      frac[p].push_back(phases[i][p] / eng_s[i]);
      abs_s[p].push_back(phases[i][p]);
      sum += phases[i][p];
    }
    unattributed.push_back(1.0 - sum / eng_s[i]);
    trace_over.push_back(replay_s[i] / eng_s[i] - 1.0);
    obs_over.push_back(obs_s[i] / eng_s[i] - 1.0);
    pool_speedup.push_back(eng_s[i] / pool_s[i]);
    gather_ns.push_back(phases[i][kGather] / static_cast<double>(global_batch) * 1e9);
  }
  const double unattributed_frac = vf::median(unattributed);

  res.check("phase_replay_bit_identical", replay_exact,
            "replay loss every step and final parameters vs train_step");
  res.check("obs_sinks_move_nothing", obs_exact, "sinks-on engine in lockstep");
  res.check("pool_bit_identical", pool_exact, "two-worker engine in lockstep");
  res.check("phases_add_up", unattributed_frac >= -0.05 && unattributed_frac <= 0.05,
            "|core.unattributed_frac| <= 0.05");
  res.check("zero_steady_allocs", steady_allocs == 0 && steady_ws_allocs == 0,
            "traced serial engine after the first step");

  res.layer("bench.unit_ms", host_quantile(eng_s) * 1e3, "ms", "host");
  res.layer("bench.unattributed_frac", unattributed_frac, "fraction", "host");
  res.layer("bench.trace_overhead_frac", vf::median(trace_over), "fraction", "host");
  res.layer("obs.overhead_frac", vf::median(obs_over), "fraction", "host");
  res.layer("core.pool_speedup", vf::median(pool_speedup), "x", "host");
  static constexpr std::array<const char*, kPhases> kFracName = {
      "data.gather_frac", "nn.forward_frac", "nn.loss_frac",     "nn.backward_frac",
      "nn.flatten_frac",  "core.reduce_frac", "nn.optimizer_frac"};
  static constexpr std::array<const char*, kPhases> kMsName = {
      "data.gather_ms", "nn.forward_ms", "nn.loss_ms",     "nn.backward_ms",
      "nn.flatten_ms",  "core.reduce_ms", "nn.optimizer_ms"};
  for (int p = 0; p < kPhases; ++p) {
    res.layer(kFracName[p], vf::median(frac[p]), "fraction", "host");
    res.detail(kMsName[p], host_quantile(abs_s[p]) * 1e3, "ms", "host");
  }
  res.layer("data.gather_ns_per_row", vf::median(gather_ns), "ns", "host");
  res.layer("data.rows_per_unit", static_cast<double>(global_batch), "count", "host");
  res.layer("tensor.allocs_per_unit",
            static_cast<double>(steady_allocs) / static_cast<double>(steady_steps),
            "count", "host");
  res.layer("core.ws_allocs_per_unit",
            static_cast<double>(steady_ws_allocs) / static_cast<double>(steady_steps),
            "count", "host");
  res.layer("comm.vclock_frac", sum_comm / sum_step, "fraction", "virtual");
  const KernelRates k = measure_kernels(rows_per_vn, kHidden, kHidden, opt.seed, opt.smoke);
  res.layer("tensor.fwd_gflops", k.fwd_gflops, "GFLOP/s", "host");
  res.layer("tensor.dw_gflops", k.dw_gflops, "GFLOP/s", "host");
  res.layer("tensor.dx_gflops", k.dx_gflops, "GFLOP/s", "host");

  res.detail("core.step_ms.pool2", host_quantile(pool_s) * 1e3, "ms", "host");
  res.detail("device.vclock_step_ms", vclock_step_s * 1e3, "ms", "virtual");
  res.detail("comm.vclock_allreduce_ms", vclock_comm_s * 1e3, "ms", "virtual");
  res.detail("steps", static_cast<double>(n), "count", "host");
  res.count_work(static_cast<std::int64_t>(n), 0);
}

void run_train(const TrainSpec& s, const RunOptions& opt, Result& res, SpanLog& spans) {
  if (opt.traced) {
    run_traced(s, opt, res, spans);
  } else {
    run_untraced(s, opt, res);
  }
}

}  // namespace

void run_train_large_batch(const RunOptions& opt, Result& res, SpanLog& spans) {
  // 32 is the smallest VN count whose 256-row micro-batches fit the
  // resnet50 profile on one V100 (13.1 GB simulated).
  run_train({"imagenet-sim", "resnet50", /*vns=*/32, /*devices=*/1, /*min_trials=*/3,
             /*obs_steps=*/8, /*check_placement=*/false},
            opt, res, spans);
}

void run_train_many_vn(const RunOptions& opt, Result& res, SpanLog& spans) {
  // The measured trials run the serial engine: on a shared virtual machine
  // a two-worker step's host time is dominated by cross-vCPU wake-ups,
  // which were seen to move it 1.7x with load on the other vCPUs over
  // minutes. The pool still runs the whole recipe as a correctness arm and
  // in the traced lockstep (core.pool_speedup).
  run_train({"cifar10-sim", "resnet56", /*vns=*/16, /*devices=*/4, /*min_trials=*/3,
             /*obs_steps=*/64, /*check_placement=*/true},
            opt, res, spans);
}

}  // namespace vfbench
