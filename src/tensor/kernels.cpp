#include "tensor/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tensor/backend.h"
#include "tensor/kernels_blocked.h"
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

/// Unset or empty means the default, kSimd: the backend factory then picks
/// the tier per shape from the CPU probe (blocked without the vector ISA).
KernelMode mode_from_env() {
  const char* env = std::getenv("VF_KERNELS");
  if (env == nullptr) return KernelMode::kSimd;
  const std::string v(env);
  if (v == "reference") return KernelMode::kReference;
  if (v == "blocked") return KernelMode::kBlocked;
  if (v == "simd" || v.empty()) return KernelMode::kSimd;
  env_usage_error("VF_KERNELS must be 'reference', 'blocked', or 'simd', got: '" +
                  v + "'");
}

std::atomic<KernelMode>& mode_flag() {
  static std::atomic<KernelMode> flag{mode_from_env()};
  return flag;
}

}  // namespace

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kReference: return "reference";
    case KernelMode::kBlocked: return "blocked";
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
// accumulation order the blocked and simd versions must reproduce bit
// for bit.

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

// The scalar elementwise/column-sum loops serve BOTH the reference and
// blocked tiers (there is nothing to tile); only simd differs.

void mul_scalar(const float* a, const float* b, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = a[i] * b[i];
}

void column_sums_scalar(const float* in, float* out, std::int64_t rows,
                        std::int64_t cols) {
  for (std::int64_t j = 0; j < cols; ++j) out[j] = 0.0F;
  // Single row-major pass; per column the accumulation runs over rows in
  // ascending order.
  const float* p = in;
  for (std::int64_t i = 0; i < rows; ++i, p += cols)
    for (std::int64_t j = 0; j < cols; ++j) out[j] += p[j];
}

/// Resolves the tier that actually serves this call: kSimd consults the
/// backend factory per shape (ISA probe, then per-op entries — see
/// backend.h); the other modes are themselves.
KernelMode resolve(backend::KernelOp op, std::int64_t m, std::int64_t k,
                   std::int64_t n, KernelMode mode) {
  if (mode != KernelMode::kSimd) return mode;
  return backend::BackendFactory::instance().select(op, m, k, n).tier;
}

}  // namespace

// The blocked implementations live in kernels_blocked.cpp (compiled -O3)
// and the vector implementations in kernels_simd.cpp (the one TU built
// with -mavx2; see CMakeLists). Dispatch is the only coupling.

void matmul(const float* a, const float* b, float* out, std::int64_t m,
            std::int64_t k, std::int64_t n, KernelMode mode) {
  switch (resolve(backend::KernelOp::kMatmul, m, k, n, mode)) {
    case KernelMode::kSimd: detail::matmul_simd(a, b, out, m, k, n); return;
    case KernelMode::kBlocked: detail::matmul_blocked(a, b, out, m, k, n); return;
    case KernelMode::kReference: break;
  }
  matmul_reference(a, b, out, m, k, n);
}

void matmul_transpose_lhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          KernelMode mode) {
  switch (resolve(backend::KernelOp::kMatmulTransposeLhs, m, k, n, mode)) {
    case KernelMode::kSimd: detail::matmul_tl_simd(a, b, out, m, k, n); return;
    case KernelMode::kBlocked: detail::matmul_tl_blocked(a, b, out, m, k, n); return;
    case KernelMode::kReference: break;
  }
  matmul_tl_reference(a, b, out, m, k, n);
}

void matmul_transpose_rhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          KernelMode mode) {
  switch (resolve(backend::KernelOp::kMatmulTransposeRhs, m, k, n, mode)) {
    case KernelMode::kSimd: detail::matmul_tr_simd(a, b, out, m, k, n); return;
    case KernelMode::kBlocked: detail::matmul_tr_blocked(a, b, out, m, k, n); return;
    case KernelMode::kReference: break;
  }
  matmul_tr_reference(a, b, out, m, k, n);
}

void mul(const float* a, const float* b, float* out, std::int64_t count,
         KernelMode mode) {
  if (resolve(backend::KernelOp::kMul, 0, 0, count, mode) == KernelMode::kSimd) {
    detail::mul_simd(a, b, out, count);
    return;
  }
  mul_scalar(a, b, out, count);
}

void column_sums(const float* in, float* out, std::int64_t rows,
                 std::int64_t cols, KernelMode mode) {
  if (resolve(backend::KernelOp::kColumnSums, rows, 0, cols, mode) ==
      KernelMode::kSimd) {
    detail::column_sums_simd(in, out, rows, cols);
    return;
  }
  column_sums_scalar(in, out, rows, cols);
}

}  // namespace kernels

}  // namespace vf
