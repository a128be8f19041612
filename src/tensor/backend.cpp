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
  return "neon";  // no NEON core yet: the reference loops serve
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

}  // namespace vf::backend
