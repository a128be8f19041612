// Dense-kernel layer: the matmul/elementwise/column-sum inner loops behind
// Tensor.
//
// VirtualFlow replays many virtual nodes serially on each physical device,
// so per-slice compute time is multiplied by the VN:device ratio — these
// loops ARE the system's throughput. Three implementations are provided
// for the hot kernels and are selectable at runtime:
//
//   * kReference — the original order-stable loops, kept as the executable
//     specification.
//   * kBlocked   — cache-blocked (i/j-tiled), unroll-by-4 versions.
//   * kSimd      — explicitly vectorized (AVX2; NEON slot stubbed) cores,
//     selected per shape through the backend factory in tensor/backend.h,
//     which probes the CPU at runtime and falls back to blocked whenever
//     the ISA or the shape cannot keep the contract below. The default.
//
// Bit-exactness contract: all modes produce bit-identical outputs on all
// finite inputs. The blocked kernels tile ONLY over the i/j (output)
// dimensions and never reorder, split, or vectorize the k-accumulation of
// a single output element: each out[i, j] is built by the exact
// float-addition chain the reference performs, term by term in ascending
// k. The SIMD kernels keep the same discipline with vector registers: a
// lane is always one output element, the k chain stays sequential per
// lane (multiply then add, two roundings — never FMA-contracted), and no
// horizontal reduction ever combines lanes. Two implementation liberties
// are taken, neither observable on finite data:
//
//   * The reference's zero-lhs skip is dropped (branchless inner loops).
//     A skipped term contributes a*b = +/-0, and adding a signed zero to
//     a running sum that started at +0 can never change its bits — the
//     modes diverge only in the 0 * inf / 0 * NaN corner.
//   * The transpose-variant kernels reuse their tier's one core. blocked
//     transposes the transposed operand of tl and tr into scratch first;
//     simd transposes only tr's rhs and reads tl's [k x m] lhs in place
//     through strides. The multiplication terms and their order per
//     output element are unchanged either way.
//
// This is what lets the entire training/serving bit-reproducibility story
// (mapping invariance, worker invariance) survive a kernel swap, and it is
// what tests/tensor/test_kernels.cpp and tests/tensor/test_backend.cpp
// assert shape by shape. The full tier handbook is docs/kernels.md.
#pragma once

#include <cstdint>

namespace vf {

/// Which implementation the tensor ops dispatch to.
enum class KernelMode : std::uint8_t {
  kReference,  ///< original order-stable loops (executable specification)
  kBlocked,    ///< i/j-tiled, unroll-by-4; bit-identical to kReference
  kSimd,       ///< vectorized per-shape via backend factory; same bits
};

/// Short name for logs/benches: "reference", "blocked", or "simd".
const char* kernel_mode_name(KernelMode mode);

/// Process-wide tensor-runtime configuration. The kernel mode comes from
/// the environment on first use and can be overridden programmatically
/// (the benches A/B the tiers):
///
///   VF_KERNELS=reference|blocked|simd  kernel implementation (default
///                                      simd, also when empty: the
///                                      backend factory serves blocked
///                                      per shape when the CPU or the
///                                      shape cannot carry it)
///
/// An unknown value is rejected loudly: a one-line diagnosis on stderr and
/// exit code 2, the same usage-error policy as the bench flag parser — a
/// typo must never silently run the default configuration. The mode cannot
/// change a single bit of any computed result — kernels are bit-identical
/// by contract — so flipping it mid-run is safe; it trades speed only.
struct TensorConfig {
  static KernelMode kernel_mode();
  static void set_kernel_mode(KernelMode mode);
  /// Re-reads the mode from the environment (it is otherwise latched on
  /// first use). Test hook; applies the same reject-loudly policy.
  static void reload_from_env();
};

namespace kernels {

// All kernels take row-major dense buffers. Output buffers must not alias
// inputs. Shapes follow the Tensor-level ops:
//
//   matmul:               out[m x n]  = a[m x k] @ b[k x n]
//   matmul_transpose_lhs: out[m x n]  = a[k x m]^T @ b[k x n]
//   matmul_transpose_rhs: out[m x n]  = a[m x k] @ b[n x k]^T
//   mul:                  out[i]      = a[i] * b[i]
//   column_sums:          out[n]      = sum over rows of in[r x n]
//
// Each overwrites `out` entirely (no accumulation into prior contents).

void matmul(const float* a, const float* b, float* out, std::int64_t m,
            std::int64_t k, std::int64_t n, KernelMode mode);

void matmul_transpose_lhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          KernelMode mode);

void matmul_transpose_rhs(const float* a, const float* b, float* out,
                          std::int64_t m, std::int64_t k, std::int64_t n,
                          KernelMode mode);

// Elementwise / reduction kernels. reference and blocked share one scalar
// loop (there is nothing to tile); simd vectorizes the independent lanes
// (elements / columns) and keeps every per-element chain in order.

void mul(const float* a, const float* b, float* out, std::int64_t count,
         KernelMode mode);

void column_sums(const float* in, float* out, std::int64_t rows,
                 std::int64_t cols, KernelMode mode);

}  // namespace kernels

}  // namespace vf
