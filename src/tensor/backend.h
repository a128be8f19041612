// Runtime kernel-backend factory: decides, per op and per shape, which
// kernel tier actually serves a call when the configured mode asks for
// the SIMD tier (the default mode, or `VF_KERNELS=simd`).
//
// VirtualFlow decouples the model from the hardware it runs on; on a CPU
// host the kernel layer is that hardware, and this factory is the
// decoupling point: the rest of the system only ever names a *mode*
// (`TensorConfig::kernel_mode()`), while the factory probes what the CPU
// can actually do (cpuid via `__builtin_cpu_supports`) and resolves every
// (op, shape) to the fastest tier that can keep the repo's bit-exactness
// contract. Resolution is by a small set of named rules, evaluated in a
// fixed order:
//
//   1. "isa"       — the SIMD tier was not compiled in, the CPU lacks the
//                    ISA, or a test force-disabled it: serve with blocked
//                    (bit-identical, the fastest scalar tier).
//   2. static rules — today only "narrow-n" (the vectorized axis is
//                    shorter than one vector register: nothing to win).
//   3. "vector"    — the SIMD kernel serves the call.
//
// The AVX2 backend never splits an accumulation chain — its vector lanes
// are independent output elements — so no shape needs a bit-exactness
// fallback. A future backend that cannot keep that discipline for some
// shape adds a static per-op rule that serves it elsewhere.
//
// The factory exposes the decision (`select()` returns tier + rule name)
// so bench_hotpath can print which tier actually served each shape and
// tests can assert the dispatch, not just the bits. See docs/kernels.md
// for the full tier handbook.
#pragma once

#include <cstdint>

#include "tensor/kernels.h"

namespace vf::backend {

/// Ops the factory dispatches. For every op, `n` in `select()` is the
/// extent of the vectorized axis (independent output lanes): the output
/// columns for the matmul family and column_sums, the element count for
/// mul.
enum class KernelOp : std::uint8_t {
  kMatmul,
  kMatmulTransposeLhs,
  kMatmulTransposeRhs,
  kMul,
  kColumnSums,
};

/// Short op name for logs/benches ("matmul", "tl", "tr", "mul",
/// "column_sums").
const char* kernel_op_name(KernelOp op);

/// Raw CPU-feature probe (independent of what was compiled in or any
/// test override).
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 runtime cpuid probe
  bool neon = false;  ///< aarch64: baseline, compile-time
};

/// One dispatch decision: the tier that will serve, and the name of the
/// rule that decided it.
struct Dispatch {
  KernelMode tier;
  const char* rule;
};

/// Process-wide backend factory. All queries are lock-free and safe from
/// any thread; the override hook is a test/setup API and must not race
/// in-flight kernels.
class BackendFactory {
 public:
  static BackendFactory& instance();

  /// True when this binary carries real vector kernels (the build gave
  /// kernels_simd.cpp a vector ISA). False on hosts/toolchains where the
  /// TU compiled as delegation stubs.
  static bool simd_compiled();
  /// Name of the compiled vector ISA: "avx2", "neon" (stub), or "none".
  static const char* simd_isa();

  /// Raw runtime probe of the host CPU.
  CpuFeatures cpu_features() const;

  /// True iff the SIMD tier can serve anything at all: vector kernels
  /// compiled in, the CPU reports the ISA, and no test override.
  bool simd_available() const;

  /// Test hook: make the factory behave as if the vector ISA were absent
  /// (every simd-mode call falls back to blocked under rule "isa").
  void set_simd_disabled(bool disabled);
  bool simd_disabled() const;

  /// Resolves the tier that will serve `op` at this shape when the
  /// configured kernel mode is kSimd. Shape extents follow the op (see
  /// KernelOp): gemm ops pass (m, k, n); mul (0, 0, count); column_sums
  /// (rows, 0, cols).
  Dispatch select(KernelOp op, std::int64_t m, std::int64_t k,
                  std::int64_t n) const;

 private:
  BackendFactory();
};

/// RAII test guard: force-disables the SIMD tier for a scope and restores
/// the previous override on exit.
class ScopedSimdDisable {
 public:
  ScopedSimdDisable()
      : saved_(BackendFactory::instance().simd_disabled()) {
    BackendFactory::instance().set_simd_disabled(true);
  }
  ~ScopedSimdDisable() { BackendFactory::instance().set_simd_disabled(saved_); }
  ScopedSimdDisable(const ScopedSimdDisable&) = delete;
  ScopedSimdDisable& operator=(const ScopedSimdDisable&) = delete;

 private:
  bool saved_;
};

}  // namespace vf::backend
