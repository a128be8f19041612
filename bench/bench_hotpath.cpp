// Hot-path harness: the kernel tiers and the zero-allocation training
// step, gating the wins this repo claims for its innermost loops.
//
//   1. Per-kernel throughput: GFLOP/s of matmul / matmul_transpose_lhs /
//      matmul_transpose_rhs on the workload-profile shapes the proxy
//      models actually run (per-VN batch x feature dims), three-way:
//      reference vs blocked vs simd — with a bit-identity check on every
//      shape (no tier may change one bit) and the backend factory's
//      per-shape dispatch decision printed per row ("vector" = the AVX2
//      kernel served; "isa"/"narrow-n" = a fallback did — see
//      tensor/backend.h for the rule names). The three tiers are timed
//      in kKernelRounds interleaved rounds and every figure is the
//      per-tier median, so a burst of host load skews one round, not
//      one tier. On large shapes (>= 8 MFLOP) the median simd time must
//      beat the median blocked time by --min-simd-speedup (default
//      1.5x, smoke 1.2x) whenever the vector ISA is live; hosts without
//      AVX2 skip the gate and report the fallback tier honestly. The
//      backward pass must also keep pace with the forward one: the simd
//      dW GEMM (tl 64x1024x64) must reach 0.75x (smoke 0.6x) of the simd
//      forward GEMM of the same flop count (matmul 1024x64x64). Three
//      ungated rows show the 8-row micro-batch shapes of vfbench's
//      train-many-vn workload.
//   2. End-to-end step time: the same training job run three times, once
//      per kernel tier ("reference", "blocked", "simd"), every arm on the
//      engine's reused workspaces, so the arms differ in the kernels
//      only. Each arm keeps its own engine; the timed steps run in
//      kE2eRounds interleaved rounds and each arm's step time is the
//      median of its per-round means, as in the kernel table. All arms
//      must produce bit-identical parameters and losses, every arm's
//      timed steps must perform ZERO tensor heap allocations, and
//      blocked-over-reference must clear --min-speedup (default 1.5x
//      full, 1.15x smoke). simd-over-reference is reported and recorded;
//      it is not gated end-to-end because the step budget is dominated by
//      the simulated device clock, not GEMM wall time.
//   3. Observability: a fourth arm runs the blocked tier with a trace
//      recorder and a metrics registry attached, in the same rounds; it
//      must keep the trajectory and zero allocations and stay within
//      1.5x of the blocked arm's step time.
//
// Exit 1 when any claim fails (speedups are informational under
// overridden workload knobs, like bench_serving's custom-load rule).
// --json=<path> emits the machine-readable perf trajectory records.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "util/stats.h"

using namespace vf;
using vf::bench::Flags;
using vf::bench::JsonReport;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interleaved timing rounds per kernel shape (reference, blocked, simd
/// in turn each round).
constexpr int kKernelRounds = 5;

/// Required simd dW-over-forward GFLOP/s ratio (full run, smoke run).
constexpr double kMinDwRatio = 0.75;
constexpr double kMinDwRatioSmoke = 0.6;

struct KernelCase {
  const char* op;  // "matmul", "tl", "tr"
  std::int64_t m, k, n;
};

/// Runs one kernel in one mode `reps` times; returns seconds per call.
double time_kernel(const KernelCase& c, KernelMode mode, const Tensor& a,
                   const Tensor& b, Tensor& out, std::int64_t reps) {
  const std::string op(c.op);
  const double t0 = now_s();
  for (std::int64_t r = 0; r < reps; ++r) {
    if (op == "matmul") {
      kernels::matmul(a.data().data(), b.data().data(), out.data().data(), c.m, c.k,
                      c.n, mode);
    } else if (op == "tl") {
      kernels::matmul_transpose_lhs(a.data().data(), b.data().data(),
                                    out.data().data(), c.m, c.k, c.n, mode);
    } else {
      kernels::matmul_transpose_rhs(a.data().data(), b.data().data(),
                                    out.data().data(), c.m, c.k, c.n, mode);
    }
  }
  return (now_s() - t0) / static_cast<double>(reps);
}

/// Interleaved timing rounds for the end-to-end arms: every round times
/// a share of the steps on each arm in turn.
constexpr int kE2eRounds = 5;

/// One end-to-end arm: its own engine, stepped under one kernel mode.
struct Arm {
  Arm(KernelMode m, bench::EngineSetup s) : mode(m), setup(std::move(s)) {}

  KernelMode mode;
  bench::EngineSetup setup;
  std::vector<double> round_step_s;  // mean step wall-clock per round
  std::vector<double> losses;        // per-step loss trajectory
  std::int64_t tensor_allocs = 0;    // allocations during the timed steps
  std::int64_t ws_allocs = 0;        // workspace-audited allocations

  /// Median over rounds, so a burst of host load skews one round, not
  /// one arm.
  double step_s() const { return median(round_step_s); }
};

/// Builds an arm and runs its untimed warm-up steps.
Arm make_arm(const std::string& task, const std::string& profile, std::int64_t vns,
             std::int64_t devices, std::uint64_t seed, std::int64_t warmup,
             KernelMode mode, obs::Observability obs = {}) {
  TensorConfig::set_kernel_mode(mode);
  Arm arm(mode, bench::make_setup(task, profile, vns, devices, DeviceType::kV100, seed));
  arm.setup.engine.set_observability(obs);
  for (std::int64_t s = 0; s < warmup; ++s)
    arm.losses.push_back(arm.setup.engine.train_step().loss);
  return arm;
}

/// Times `steps` train steps of `arm` under its mode as one round.
void time_round(Arm& arm, std::int64_t steps) {
  TensorConfig::set_kernel_mode(arm.mode);
  VirtualFlowEngine& engine = arm.setup.engine;
  const std::int64_t allocs0 = tensor_alloc_count();
  const std::int64_t ws0 = engine.workspace_allocs();
  const double t0 = now_s();
  for (std::int64_t s = 0; s < steps; ++s) arm.losses.push_back(engine.train_step().loss);
  arm.round_step_s.push_back((now_s() - t0) / static_cast<double>(steps));
  arm.tensor_allocs += tensor_alloc_count() - allocs0;
  arm.ws_allocs += engine.workspace_allocs() - ws0;
}

/// Same losses at every step and the same final parameters.
bool same_trajectory(const Arm& a, const Arm& b) {
  return a.losses == b.losses &&
         a.setup.engine.parameters().equals(b.setup.engine.parameters());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task", "proxy task for the end-to-end A/B (default imagenet-sim)"},
               {"profile", "paper model profile for the simulated clock (default resnet50)"},
               {"vns", "virtual nodes (default 8)"},
               {"devices", "devices; VNs fold onto them serially (default 1)"},
               {"steps", "timed steps per arm (default 30; smoke 8)"},
               {"warmup", "untimed warm-up steps per arm (default 5; smoke 2)"},
               {"min-speedup", "required end-to-end speedup, blocked vs reference "
                               "kernels (default 1.5; smoke 1.15)"},
               {"min-simd-speedup", "required per-kernel simd-over-blocked speedup "
                                    "on >=8 MFLOP shapes when the vector ISA is "
                                    "live (default 1.5; smoke 1.2)"},
               {"seed", "experiment seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help(
        "Hot-path kernels + zero-allocation train step: per-kernel GFLOP/s and the "
        "end-to-end train-step A/B gate");
    return 0;
  }

  const std::string task = flags.get_string("task", "imagenet-sim");
  const std::string profile = flags.get_string("profile", "resnet50");
  const std::int64_t vns = flags.get_int("vns", 8);
  const std::int64_t devices = flags.get_int("devices", 1);
  const std::int64_t steps = flags.get_int("steps", 30, /*smoke_def=*/8);
  const std::int64_t warmup = flags.get_int("warmup", 5, /*smoke_def=*/2);
  const double min_speedup = flags.get_double("min-speedup", 1.5, /*smoke_def=*/1.15);
  const double min_simd_speedup =
      flags.get_double("min-simd-speedup", 1.5, /*smoke_def=*/1.2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const KernelMode saved_mode = TensorConfig::kernel_mode();
  JsonReport report("bench_hotpath");
  bool ok = true;

  print_banner(std::cout, "hot path — kernel tiers (reference/blocked/simd) + zero-allocation step");

  // Overridden workload knobs make the speedup claims informational (the
  // default configuration is what the acceptance numbers are calibrated
  // on); bit-identity and the zero-allocation contract hold regardless.
  bool custom = false;
  for (const char* knob : {"task", "profile", "vns", "devices", "seed"})
    custom |= flags.overridden(knob);

  backend::BackendFactory& factory = backend::BackendFactory::instance();
  std::printf("  simd backend: compiled=%s isa=%s cpu-avx2=%s -> %s\n",
              backend::BackendFactory::simd_compiled() ? "yes" : "no",
              backend::BackendFactory::simd_isa(),
              factory.cpu_features().avx2 ? "yes" : "no",
              factory.simd_available() ? "live" : "falling back to blocked");

  // ---- 1. Per-kernel GFLOP/s on the workload-profile shapes. The per-VN
  // batch rows come from the task's reference global batch folded onto the
  // default VN count; the feature dims are the proxy model's layers. A
  // larger square shape shows the cache-blocking effect beyond L1-resident
  // panels.
  {
    bench::EngineSetup probe =
        bench::make_setup(task, profile, vns, devices, DeviceType::kV100, seed);
    const std::int64_t rows = probe.recipe.global_batch / vns;
    const std::int64_t dim = probe.task.train->feature_dim();
    const std::int64_t hidden = 64;  // proxy-model width (workloads/tasks.cpp)
    const std::int64_t classes = probe.task.train->num_classes();
    // train-many-vn's micro-batch: batch 128 as 16 VNs of 8 rows.
    constexpr std::int64_t kManyVnRows = 8;
    const std::vector<KernelCase> cases = {
        {"matmul", rows, dim, hidden},     // layer-1 forward
        {"matmul", rows, hidden, hidden},  // layer-2 forward
        {"matmul", rows, hidden, classes}, // head forward
        {"tl", hidden, rows, hidden},      // layer-2 dW = x^T @ g
        {"tr", rows, hidden, hidden},      // layer-2 dx = g @ W^T
        {"tr", rows, classes, hidden},     // head dx
        {"matmul", 256, 256, 256},         // beyond-L1 square
        {"matmul", kManyVnRows, hidden, hidden},  // 8-row forward
        {"tl", hidden, kManyVnRows, hidden},      // 8-row dW
        {"tr", kManyVnRows, hidden, hidden},      // 8-row dx
    };
    // The dW gate compares these two rows: the same flops, one read as
    // the backward pass reads its operands.
    constexpr std::size_t kFwdRow = 1, kDwRow = 3;
    std::vector<double> simd_gfs;
    std::vector<bool> simd_served;

    std::printf("  per-kernel throughput (GFLOP/s, median of %d interleaved rounds), "
                "reference vs blocked vs simd:\n",
                kKernelRounds);
    Table table({"kernel", "m", "k", "n", "reference", "blocked", "simd",
                 "simd/blk", "tier", "bit-identical"});
    CounterRng rng(seed, /*stream=*/0xBE7C4);
    bool simd_gate_ok = true;
    for (const KernelCase& c : cases) {
      const std::string op(c.op);
      // Operand layouts per op (see kernels.h): tl takes a as [k x m].
      const Tensor a = op == "tl" ? Tensor::randn({c.k, c.m}, rng)
                                  : Tensor::randn({c.m, c.k}, rng);
      const Tensor b = op == "tr" ? Tensor::randn({c.n, c.k}, rng)
                                  : Tensor::randn({c.k, c.n}, rng);
      Tensor out_ref({c.m, c.n});
      Tensor out_blk({c.m, c.n});
      Tensor out_simd({c.m, c.n});
      const double flops = 2.0 * static_cast<double>(c.m) *
                           static_cast<double>(c.k) * static_cast<double>(c.n);
      const auto reps = std::max<std::int64_t>(
          1, static_cast<std::int64_t>((flags.smoke() ? 2e7 : 2e8) / flops));
      // Which tier actually serves the simd mode (the default) here, and
      // under which factory rule (tensor/backend.h).
      const backend::KernelOp bop =
          op == "matmul" ? backend::KernelOp::kMatmul
          : op == "tl"   ? backend::KernelOp::kMatmulTransposeLhs
                         : backend::KernelOp::kMatmulTransposeRhs;
      const backend::Dispatch dispatch = factory.select(bop, c.m, c.k, c.n);
      // Bit-identity first (also warms the caches).
      time_kernel(c, KernelMode::kReference, a, b, out_ref, 1);
      time_kernel(c, KernelMode::kBlocked, a, b, out_blk, 1);
      time_kernel(c, KernelMode::kSimd, a, b, out_simd, 1);
      const bool identical = out_ref.equals(out_blk) && out_ref.equals(out_simd);
      ok &= identical;
      std::vector<double> ref_t, blk_t, simd_t;
      for (int round = 0; round < kKernelRounds; ++round) {
        ref_t.push_back(time_kernel(c, KernelMode::kReference, a, b, out_ref, reps));
        blk_t.push_back(time_kernel(c, KernelMode::kBlocked, a, b, out_blk, reps));
        simd_t.push_back(time_kernel(c, KernelMode::kSimd, a, b, out_simd, reps));
      }
      const double ref_s = median(ref_t);
      const double blk_s = median(blk_t);
      const double simd_s = median(simd_t);
      const double ref_gf = flops / ref_s / 1e9;
      const double blk_gf = flops / blk_s / 1e9;
      const double simd_gf = flops / simd_s / 1e9;
      const double simd_speedup = simd_s > 0.0 ? blk_s / simd_s : 0.0;
      // The vector-width claim is gated only where it is claimed: shapes
      // big enough to amortize the panel fill (>= 8 MFLOP) that the
      // factory actually serves with the vector kernel.
      const bool gated = flops >= 8e6 && dispatch.tier == KernelMode::kSimd;
      if (gated && simd_speedup < min_simd_speedup) simd_gate_ok = false;
      const std::string shape = std::to_string(c.m) + "x" + std::to_string(c.k) +
                                "x" + std::to_string(c.n);
      table.row()
          .cell(std::string(c.op))
          .cell(c.m)
          .cell(c.k)
          .cell(c.n)
          .cell(ref_gf, 2)
          .cell(blk_gf, 2)
          .cell(simd_gf, 2)
          .cell(simd_speedup, 2)
          .cell(std::string(dispatch.rule) + (gated ? "*" : ""))
          .cell(std::string(identical ? "yes" : "NO — BUG"));
      report.add("kernel." + op + "." + shape + ".reference", ref_gf, "GFLOP/s");
      report.add("kernel." + op + "." + shape + ".blocked", blk_gf, "GFLOP/s");
      report.add("kernel." + op + "." + shape + ".simd", simd_gf, "GFLOP/s");
      simd_gfs.push_back(simd_gf);
      simd_served.push_back(dispatch.tier == KernelMode::kSimd);
    }
    table.print(std::cout);
    std::printf("  (tier = backend-factory rule serving the default simd mode for "
                "that shape; * = simd speedup gated)\n");
    if (factory.simd_available()) {
      std::printf("  simd-over-blocked on gated shapes >= %.2fx: %s\n",
                  min_simd_speedup,
                  simd_gate_ok ? "yes"
                               : (custom ? "no (informational: custom workload)"
                                         : "NO — BUG"));
      if (!custom && !simd_gate_ok) ok = false;
    } else {
      std::printf("  simd-over-blocked gate skipped: vector ISA not live on this "
                  "host (simd serves via blocked fallback)\n");
    }
    const KernelCase& fwd = cases[kFwdRow];
    const KernelCase& dw = cases[kDwRow];
    const double dw_ratio = simd_gfs[kDwRow] / simd_gfs[kFwdRow];
    const double min_dw_ratio = flags.smoke() ? kMinDwRatioSmoke : kMinDwRatio;
    report.add("kernel.dw_over_fwd.simd", dw_ratio, "x");
    if (simd_served[kFwdRow] && simd_served[kDwRow]) {
      const bool dw_ok = dw_ratio >= min_dw_ratio;
      std::printf("  simd dW (tl %lldx%lldx%lld) at %.2fx the simd forward (matmul "
                  "%lldx%lldx%lld), gate >= %.2fx: %s\n",
                  static_cast<long long>(dw.m), static_cast<long long>(dw.k),
                  static_cast<long long>(dw.n), dw_ratio, static_cast<long long>(fwd.m),
                  static_cast<long long>(fwd.k), static_cast<long long>(fwd.n),
                  min_dw_ratio,
                  dw_ok ? "yes"
                        : (custom ? "no (informational: custom workload)" : "NO — BUG"));
      if (!custom && !dw_ok) ok = false;
    } else {
      std::printf("  simd dW-over-forward gate skipped: the vector kernel does not "
                  "serve both rows on this host\n");
    }
  }

  // ---- 2. End-to-end train-step A/B and 3. the observability arm
  // (recording touches no tensors, so it must stay allocation-free and
  // leave the trajectory alone), timed in the same interleaved rounds.
  const std::int64_t rounds = std::clamp<std::int64_t>(steps, 1, kE2eRounds);
  std::printf("\n  end-to-end train step (%s on %s, %lld VNs on %lld device(s), "
              "%lld warmup + %lld timed in %lld interleaved rounds):\n",
              task.c_str(), profile.c_str(), static_cast<long long>(vns),
              static_cast<long long>(devices), static_cast<long long>(warmup),
              static_cast<long long>(steps), static_cast<long long>(rounds));
  obs::TraceRecorder obs_trace;
  obs::MetricsRegistry obs_metrics;
  Arm ref = make_arm(task, profile, vns, devices, seed, warmup, KernelMode::kReference);
  Arm blk = make_arm(task, profile, vns, devices, seed, warmup, KernelMode::kBlocked);
  Arm simd = make_arm(task, profile, vns, devices, seed, warmup, KernelMode::kSimd);
  Arm obs_on = make_arm(task, profile, vns, devices, seed, warmup, KernelMode::kBlocked,
                        {&obs_trace, &obs_metrics});
  for (std::int64_t r = 0; r < rounds; ++r) {
    // Round r's share of the timed steps (shares differ by at most one).
    const std::int64_t share = steps * (r + 1) / rounds - steps * r / rounds;
    for (Arm* arm : {&ref, &blk, &simd, &obs_on}) time_round(*arm, share);
  }
  TensorConfig::set_kernel_mode(saved_mode);

  const double ref_s = ref.step_s(), blk_s = blk.step_s(), simd_s = simd.step_s();
  const double speedup = blk_s > 0.0 ? ref_s / blk_s : 0.0;
  const double simd_e2e = simd_s > 0.0 ? ref_s / simd_s : 0.0;
  Table e2e({"arm", "step (ms)", "speedup", "tensor allocs/step", "ws allocs"});
  for (const auto& [name, arm] : {std::pair<const char*, const Arm*>{"reference", &ref},
                                  {"blocked", &blk},
                                  {"simd", &simd}}) {
    const double step_s = arm->step_s();
    e2e.row()
        .cell(std::string(name))
        .cell(step_s * 1e3, 3)
        .cell(ref_s / step_s, 2)
        .cell(static_cast<double>(arm->tensor_allocs) / static_cast<double>(steps), 1)
        .cell(arm->ws_allocs);
  }
  e2e.print(std::cout);

  const bool identical = same_trajectory(ref, blk) && same_trajectory(ref, simd);

  const char* miss = custom ? "no (informational: custom workload)" : "NO — BUG";

  const bool zero_alloc = ref.tensor_allocs == 0 && ref.ws_allocs == 0 &&
                          blk.tensor_allocs == 0 && blk.ws_allocs == 0 &&
                          simd.tensor_allocs == 0 && simd.ws_allocs == 0;
  const bool fast_enough = speedup >= min_speedup;

  // Observability gates: pure observer (bit-identical trajectory), zero
  // tensor allocations either way, and a 1.5x step-time budget — the
  // recorder's cost is a POD vector push per device per step (measured
  // ~0.8x-1.0x), so the headroom is all for wall noise on smoke-sized
  // steps under loaded CI hosts.
  const bool obs_identical = same_trajectory(blk, obs_on);
  const bool obs_zero_alloc = obs_on.tensor_allocs == 0 && obs_on.ws_allocs == 0;
  const double obs_s = obs_on.step_s();
  const double obs_ratio = blk_s > 0.0 ? obs_s / blk_s : 0.0;
  const bool obs_cheap = obs_ratio <= 1.5;

  std::printf("\n  trajectories bit-identical across all three kernel modes: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("  steady-state tensor heap allocations per arm: %lld + %lld + %lld "
              "(want 0)\n",
              static_cast<long long>(ref.tensor_allocs),
              static_cast<long long>(blk.tensor_allocs),
              static_cast<long long>(simd.tensor_allocs));
  std::printf("  end-to-end speedup %.2fx blocked / %.2fx simd (gate on blocked: "
              ">= %.2fx): %s\n",
              speedup, simd_e2e, min_speedup, fast_enough ? "yes" : miss);
  std::printf("  recording on: %zu trace events, step %.3f ms vs %.3f ms off "
              "(%.2fx, budget 1.5x): %s\n",
              obs_trace.size(), obs_s * 1e3, blk_s * 1e3, obs_ratio,
              obs_cheap ? "yes" : miss);
  std::printf("  recording does not perturb the trajectory, zero tensor allocs: %s\n",
              (obs_identical && obs_zero_alloc) ? "yes" : "NO — BUG");
  if (!identical || !zero_alloc) ok = false;
  if (!obs_identical || !obs_zero_alloc) ok = false;
  if (!custom && (!fast_enough || !obs_cheap)) ok = false;

  report.add("e2e.reference.step_ms", ref_s * 1e3, "ms");
  report.add("e2e.blocked.step_ms", blk_s * 1e3, "ms");
  report.add("e2e.simd.step_ms", simd_s * 1e3, "ms");
  report.add("e2e.speedup", speedup, "x");
  report.add("e2e.simd_speedup", simd_e2e, "x");
  report.add("e2e.blocked.tensor_allocs_per_step",
             static_cast<double>(blk.tensor_allocs) / static_cast<double>(steps),
             "allocs");
  report.add("e2e.obs_on.step_ms", obs_s * 1e3, "ms");
  report.add("e2e.obs_on.overhead_x", obs_ratio, "x");
  report.add("e2e.obs_on.trace_events", static_cast<double>(obs_trace.size()),
             "events");
  const std::string json = flags.json_path();
  if (!json.empty() && !report.save(json)) ok = false;

  return ok ? 0 : 1;
}
