// Hot-path harness: the kernel tiers and the zero-allocation workspace
// A/B, gating the wins this repo claims for its innermost loops.
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
//      AVX2 skip the gate and report the fallback tier honestly.
//   2. End-to-end step time: the same training job run three times —
//      "reference" arm: reference kernels + allocate-per-use workspaces
//      (VF_WORKSPACE_REUSE=0 semantics), i.e. the pre-optimization hot
//      path; "blocked" and "simd" arms: that tier + buffer reuse. All
//      arms must produce bit-identical parameters and losses, the
//      optimized arms' timed steps must perform ZERO tensor heap
//      allocations, and blocked-over-reference must clear --min-speedup
//      (default 1.5x full, 1.15x smoke). simd-over-reference is reported
//      and recorded; it is not gated end-to-end because the step budget
//      is dominated by the simulated device clock, not GEMM wall time.
//
// Exit 1 when any claim fails (speedups are informational under
// overridden workload knobs, like bench_serving's custom-load rule).
// --json=<path> emits the machine-readable perf trajectory records.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
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

struct ArmResult {
  double step_s = 0.0;          // mean timed step wall-clock
  std::vector<double> losses;   // per-step loss trajectory
  Tensor params;                // final parameters
  std::int64_t tensor_allocs = 0;  // allocations during the timed steps
  std::int64_t ws_allocs = 0;      // workspace-audited allocations
};

ArmResult run_arm(const std::string& task, const std::string& profile,
                  std::int64_t vns, std::int64_t devices, std::uint64_t seed,
                  std::int64_t warmup, std::int64_t steps, KernelMode mode,
                  bool reuse, obs::Observability obs = {}) {
  TensorConfig::set_kernel_mode(mode);
  TensorConfig::set_workspace_reuse(reuse);
  bench::EngineSetup setup =
      bench::make_setup(task, profile, vns, devices, DeviceType::kV100, seed);
  setup.engine.set_observability(obs);
  ArmResult out;
  for (std::int64_t s = 0; s < warmup; ++s) out.losses.push_back(setup.engine.train_step().loss);
  const std::int64_t allocs0 = tensor_alloc_count();
  const std::int64_t ws0 = setup.engine.workspace_allocs();
  const double t0 = now_s();
  for (std::int64_t s = 0; s < steps; ++s) out.losses.push_back(setup.engine.train_step().loss);
  out.step_s = (now_s() - t0) / static_cast<double>(steps);
  out.tensor_allocs = tensor_alloc_count() - allocs0;
  out.ws_allocs = setup.engine.workspace_allocs() - ws0;
  out.params = setup.engine.parameters();
  return out;
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
               {"min-speedup", "required end-to-end speedup, blocked+reuse vs "
                               "reference+alloc (default 1.5; smoke 1.15)"},
               {"min-simd-speedup", "required per-kernel simd-over-blocked speedup "
                                    "on >=8 MFLOP shapes when the vector ISA is "
                                    "live (default 1.5; smoke 1.2)"},
               {"seed", "experiment seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help(
        "Hot-path kernels + zero-allocation workspaces: per-kernel GFLOP/s and the "
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
  const bool saved_reuse = TensorConfig::workspace_reuse();
  JsonReport report("bench_hotpath");
  bool ok = true;

  print_banner(std::cout, "hot path — kernel tiers (reference/blocked/simd) + reusable workspaces");

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
    const std::vector<KernelCase> cases = {
        {"matmul", rows, dim, hidden},     // layer-1 forward
        {"matmul", rows, hidden, hidden},  // layer-2 forward
        {"matmul", rows, hidden, classes}, // head forward
        {"tl", hidden, rows, hidden},      // layer-2 dW = x^T @ g
        {"tr", rows, hidden, hidden},      // layer-2 dx = g @ W^T
        {"tr", rows, classes, hidden},     // head dx
        {"matmul", 256, 256, 256},         // beyond-L1 square
    };

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
  }

  // ---- 2. End-to-end train-step A/B.
  std::printf("\n  end-to-end train step (%s on %s, %lld VNs on %lld device(s), "
              "%lld warmup + %lld timed):\n",
              task.c_str(), profile.c_str(), static_cast<long long>(vns),
              static_cast<long long>(devices), static_cast<long long>(warmup),
              static_cast<long long>(steps));
  const ArmResult ref = run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kReference, /*reuse=*/false);
  const ArmResult blk = run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kBlocked, /*reuse=*/true);
  const ArmResult simd = run_arm(task, profile, vns, devices, seed, warmup, steps,
                                 KernelMode::kSimd, /*reuse=*/true);
  // ---- 3. Observability A/B on the same blocked hot path: with a
  // TraceRecorder + MetricsRegistry attached, the step loop must stay at
  // zero tensor heap allocations (recording touches no tensors), the
  // trajectory must not move a bit, and the step time must stay within
  // the stated budget of the unobserved arm.
  obs::TraceRecorder obs_trace;
  obs::MetricsRegistry obs_metrics;
  const ArmResult obs_on =
      run_arm(task, profile, vns, devices, seed, warmup, steps,
              KernelMode::kBlocked, /*reuse=*/true, {&obs_trace, &obs_metrics});
  TensorConfig::set_kernel_mode(saved_mode);
  TensorConfig::set_workspace_reuse(saved_reuse);

  const double speedup = blk.step_s > 0.0 ? ref.step_s / blk.step_s : 0.0;
  const double simd_e2e = simd.step_s > 0.0 ? ref.step_s / simd.step_s : 0.0;
  Table e2e({"arm", "step (ms)", "speedup", "tensor allocs/step", "ws allocs"});
  e2e.row()
      .cell(std::string("reference + alloc-per-use"))
      .cell(ref.step_s * 1e3, 3)
      .cell(1.0, 2)
      .cell(static_cast<double>(ref.tensor_allocs) / static_cast<double>(steps), 1)
      .cell(ref.ws_allocs);
  e2e.row()
      .cell(std::string("blocked + workspace reuse"))
      .cell(blk.step_s * 1e3, 3)
      .cell(speedup, 2)
      .cell(static_cast<double>(blk.tensor_allocs) / static_cast<double>(steps), 1)
      .cell(blk.ws_allocs);
  e2e.row()
      .cell(std::string("simd + workspace reuse"))
      .cell(simd.step_s * 1e3, 3)
      .cell(simd_e2e, 2)
      .cell(static_cast<double>(simd.tensor_allocs) / static_cast<double>(steps), 1)
      .cell(simd.ws_allocs);
  e2e.print(std::cout);

  const auto arm_identical = [&ref](const ArmResult& other) {
    bool same =
        ref.params.equals(other.params) && ref.losses.size() == other.losses.size();
    if (same) {
      for (std::size_t i = 0; i < ref.losses.size(); ++i)
        same &= ref.losses[i] == other.losses[i];
    }
    return same;
  };
  const bool identical = arm_identical(blk) && arm_identical(simd);

  const char* miss = custom ? "no (informational: custom workload)" : "NO — BUG";

  const bool zero_alloc = blk.tensor_allocs == 0 && blk.ws_allocs == 0 &&
                          simd.tensor_allocs == 0 && simd.ws_allocs == 0;
  const bool fast_enough = speedup >= min_speedup;

  // Observability gates: pure observer (bit-identical trajectory), zero
  // tensor allocations either way, and a 1.5x step-time budget — the
  // recorder's cost is a POD vector push per device per step (measured
  // ~0.8x-1.0x), so the headroom is all for wall noise on smoke-sized
  // steps under loaded CI hosts.
  bool obs_identical =
      blk.params.equals(obs_on.params) && blk.losses.size() == obs_on.losses.size();
  if (obs_identical) {
    for (std::size_t i = 0; i < blk.losses.size(); ++i)
      obs_identical &= blk.losses[i] == obs_on.losses[i];
  }
  const bool obs_zero_alloc = obs_on.tensor_allocs == 0 && obs_on.ws_allocs == 0;
  const double obs_ratio = blk.step_s > 0.0 ? obs_on.step_s / blk.step_s : 0.0;
  const bool obs_cheap = obs_ratio <= 1.5;

  std::printf("\n  trajectories bit-identical across all three kernel modes: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("  optimized arms steady-state tensor heap allocations: %lld + %lld "
              "(want 0)\n",
              static_cast<long long>(blk.tensor_allocs),
              static_cast<long long>(simd.tensor_allocs));
  std::printf("  end-to-end speedup %.2fx blocked / %.2fx simd (gate on blocked: "
              ">= %.2fx): %s\n",
              speedup, simd_e2e, min_speedup, fast_enough ? "yes" : miss);
  std::printf("  recording on: %zu trace events, step %.3f ms vs %.3f ms off "
              "(%.2fx, budget 1.5x): %s\n",
              obs_trace.size(), obs_on.step_s * 1e3, blk.step_s * 1e3, obs_ratio,
              obs_cheap ? "yes" : miss);
  std::printf("  recording does not perturb the trajectory, zero tensor allocs: %s\n",
              (obs_identical && obs_zero_alloc) ? "yes" : "NO — BUG");
  if (!identical || !zero_alloc) ok = false;
  if (!obs_identical || !obs_zero_alloc) ok = false;
  if (!custom && (!fast_enough || !obs_cheap)) ok = false;

  report.add("e2e.reference.step_ms", ref.step_s * 1e3, "ms");
  report.add("e2e.blocked.step_ms", blk.step_s * 1e3, "ms");
  report.add("e2e.simd.step_ms", simd.step_s * 1e3, "ms");
  report.add("e2e.speedup", speedup, "x");
  report.add("e2e.simd_speedup", simd_e2e, "x");
  report.add("e2e.blocked.tensor_allocs_per_step",
             static_cast<double>(blk.tensor_allocs) / static_cast<double>(steps),
             "allocs");
  report.add("e2e.obs_on.step_ms", obs_on.step_s * 1e3, "ms");
  report.add("e2e.obs_on.overhead_x", obs_ratio, "x");
  report.add("e2e.obs_on.trace_events", static_cast<double>(obs_trace.size()),
             "events");
  const std::string json = flags.json_path();
  if (!json.empty() && !report.save(json)) ok = false;

  return ok ? 0 : 1;
}
