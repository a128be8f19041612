#include "tensor/backend.h"

#include <atomic>

namespace vf::backend {

namespace {

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // Runtime cpuid probe — what makes calling into the -mavx2 TU safe on
  // a binary that must also run on older x86 hosts.
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
  f.neon = true;  // baseline on aarch64
#endif
  return f;
}

std::atomic<bool> g_simd_disabled{false};

/// Lazily probed on first use: __builtin_cpu_supports needs libgcc's cpu
/// indicator initialized, which a namespace-scope initializer in another
/// TU could beat to the punch.
const CpuFeatures& features() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

}  // namespace

const char* kernel_op_name(KernelOp op) {
  switch (op) {
    case KernelOp::kMatmul: return "matmul";
    case KernelOp::kMatmulTransposeLhs: return "tl";
    case KernelOp::kMatmulTransposeRhs: return "tr";
    case KernelOp::kMul: return "mul";
    case KernelOp::kColumnSums: return "column_sums";
  }
  return "?";
}

BackendFactory::BackendFactory() = default;

BackendFactory& BackendFactory::instance() {
  static BackendFactory factory;
  return factory;
}

bool BackendFactory::simd_compiled() {
#if defined(VF_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

const char* BackendFactory::simd_isa() {
#if defined(VF_SIMD_AVX2)
  return "avx2";
#elif defined(__ARM_NEON) || defined(__aarch64__)
  return "neon";  // stub tier: compiled as delegation, never selected
#else
  return "none";
#endif
}

CpuFeatures BackendFactory::cpu_features() const { return features(); }

bool BackendFactory::simd_available() const {
  return simd_compiled() && features().avx2 &&
         !g_simd_disabled.load(std::memory_order_relaxed);
}

void BackendFactory::set_simd_disabled(bool disabled) {
  g_simd_disabled.store(disabled, std::memory_order_relaxed);
}

bool BackendFactory::simd_disabled() const {
  return g_simd_disabled.load(std::memory_order_relaxed);
}

Dispatch BackendFactory::select(KernelOp /*op*/, std::int64_t /*m*/,
                                std::int64_t /*k*/, std::int64_t n) const {
  // Rule order is the contract (backend.h): ISA, then the static rules,
  // then the vector kernel. Today's one static rule reads only the lane
  // axis, the same way for every op; op, m and k stay in the signature
  // for rules that need the op or the whole shape.
  if (!simd_available()) return {KernelMode::kBlocked, "isa"};
  // n is the lane axis for every op (see KernelOp): with fewer elements
  // than one vector register there is nothing to win, so the blocked tier
  // serves — it is bit-identical, so this is a speed decision, not a
  // contract one.
  if (n < 8) return {KernelMode::kBlocked, "narrow-n"};
  return {KernelMode::kSimd, "vector"};
}

}  // namespace vf::backend
