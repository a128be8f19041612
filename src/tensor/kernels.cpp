#include "tensor/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tensor/backend.h"
#include "tensor/kernels_simd.h"

namespace vf {

namespace {

/// Rejects a bad environment value the way the bench flag parser rejects
/// a bad flag (bench/common/bench_util.h): a one-line stderr diagnosis
/// and a clean exit 2 — never a silent fall-through to the default, and
/// never an uncaught throw out of a static initializer (which would bury
/// the message under terminate() stack noise).
[[noreturn]] void env_usage_error(const std::string& msg) {
  std::fprintf(stderr, "virtualflow: %s\n", msg.c_str());
  std::exit(2);
}

/// Unset or empty means the default, kSimd: the CPU probe then decides
/// whether it runs the vector core or the reference loops (backend.h).
KernelMode mode_from_env() {
  const char* env = std::getenv("VF_KERNELS");
  if (env == nullptr) return KernelMode::kSimd;
  const std::string v(env);
  if (v == "reference") return KernelMode::kReference;
  if (v == "simd" || v.empty()) return KernelMode::kSimd;
  env_usage_error("VF_KERNELS must be 'reference' or 'simd', got: '" + v + "'");
}

std::atomic<KernelMode>& mode_flag() {
  static std::atomic<KernelMode> flag{mode_from_env()};
  return flag;
}

}  // namespace

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kReference: return "reference";
    case KernelMode::kSimd: return "simd";
  }
  return "?";
}

KernelMode TensorConfig::kernel_mode() {
  return mode_flag().load(std::memory_order_relaxed);
}
void TensorConfig::set_kernel_mode(KernelMode mode) {
  mode_flag().store(mode, std::memory_order_relaxed);
}
void TensorConfig::reload_from_env() {
  mode_flag().store(mode_from_env(), std::memory_order_relaxed);
}

namespace kernels {

namespace {

// ------------------------------------------------------------- reference
//
// These are the original Tensor loops, verbatim: they define the
// accumulation order the simd versions must reproduce bit for bit.

void matmul_reference(const float* a, const float* b, float* out,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m * n; ++i) out[i] = 0.0F;
  // i-k-j loop order keeps the inner loop contiguous in both rhs and out.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0F) continue;
      const float* b_row = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void matmul_tl_reference(const float* a, const float* b, float* out,
                         std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m * n; ++i) out[i] = 0.0F;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0F) continue;
      float* o_row = out + i * n;
      for (std::int64_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void matmul_tr_reference(const float* a, const float* b, float* out,
                         std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0F;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      out[i * n + j] = acc;
    }
  }
}

void mul_reference(const float* a, const float* b, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = a[i] * b[i];
}

void column_sums_reference(const float* in, float* out, std::int64_t rows,
                           std::int64_t cols) {
  for (std::int64_t j = 0; j < cols; ++j) out[j] = 0.0F;
  // Single row-major pass; per column the accumulation runs over rows in
  // ascending order.
  const float* p = in;
  for (std::int64_t i = 0; i < rows; ++i, p += cols)
    for (std::int64_t j = 0; j < cols; ++j) out[j] += p[j];
}

#if defined(VF_SIMD_AVX2)
/// The simd mode runs the vector core on every shape whenever the CPU
/// can (backend.h); its masked lanes cover outputs narrower than one
/// register.
bool vector_core(KernelMode mode) {
  return mode == KernelMode::kSimd &&
         backend::BackendFactory::instance().simd_available();
}
#endif

}  // namespace

// The vector implementations live in kernels_simd.cpp, the one TU built
// with -mavx2 (see CMakeLists); a build without it has only the
// reference loops.

void matmul(const float* a, const float* b, float* out, std::int64_t m,
            std::int64_t k, std::int64_t n, [[maybe_unused]] KernelMode mode) {
#if defined(VF_SIMD_AVX2)
  if (vector_core(mode)) {
    detail::matmul_simd(a, b, out, m, k, n);
    return;
  }
#endif
  matmul_reference(a, b, out, m, k, n);
}

void matmul_transpose_lhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          [[maybe_unused]] KernelMode mode) {
#if defined(VF_SIMD_AVX2)
  if (vector_core(mode)) {
    detail::matmul_tl_simd(a, b, out, m, k, n);
    return;
  }
#endif
  matmul_tl_reference(a, b, out, m, k, n);
}

void matmul_transpose_rhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          [[maybe_unused]] KernelMode mode) {
#if defined(VF_SIMD_AVX2)
  if (vector_core(mode)) {
    detail::matmul_tr_simd(a, b, out, m, k, n);
    return;
  }
#endif
  matmul_tr_reference(a, b, out, m, k, n);
}

void mul(const float* a, const float* b, float* out, std::int64_t count,
         [[maybe_unused]] KernelMode mode) {
#if defined(VF_SIMD_AVX2)
  if (vector_core(mode)) {
    detail::mul_simd(a, b, out, count);
    return;
  }
#endif
  mul_reference(a, b, out, count);
}

void column_sums(const float* in, float* out, std::int64_t rows,
                 std::int64_t cols, [[maybe_unused]] KernelMode mode) {
#if defined(VF_SIMD_AVX2)
  if (vector_core(mode)) {
    detail::column_sums_simd(in, out, rows, cols);
    return;
  }
#endif
  column_sums_reference(in, out, rows, cols);
}

}  // namespace kernels

}  // namespace vf
