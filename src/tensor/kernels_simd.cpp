// SIMD kernel implementations — the vector tier of tensor/kernels.h.
//
// This is the only translation unit the build compiles with a vector ISA
// (-mavx2 on x86-64; see the per-TU flags in CMakeLists.txt), which is
// what keeps the rest of the library runnable on any host: AVX2
// instructions exist only behind entry points the backend factory guards
// with its runtime cpuid probe.
//
// Determinism scheme (the whole trick): a vector lane is always ONE
// output element, never a slice of one. The j axis — output columns for
// the matmul family and column_sums, the element index for mul — is
// the lane axis, because its elements' accumulation chains are mutually
// independent; the k chain is never split across lanes or reordered, so
// each out[i, j] is built by the same ascending-k multiply-then-add
// chain the reference kernels perform, just eight elements at a time. No horizontal reduction ever
// combines lanes, and the build forbids FMA contraction for this TU
// (-mno-fma -ffp-contract=off): a fused multiply-add rounds once where
// the reference rounds twice, which would change bits. The result is
// bit-identity with the reference tier on all finite inputs at ANY
// vector width — the lane count only changes how many independent chains
// advance per instruction, never the order within a chain. A backend
// that cannot keep this discipline for some shape (e.g. a lane-split dot
// product with a reduction tree) must route that shape to another tier
// through a per-op rule in the factory instead of weakening the contract
// (backend.h).
//
// The matmul core keeps a 2-row x 32-column block of out in eight ymm
// accumulators across each k tile, streaming b row by row — with mul+add
// on separate ports this saturates the FP units on AVX2 hosts at about
// twice the blocked tier's SSE-width ceiling. The k loop is tiled so the
// streamed [kc x n] panel of b stays L1-resident while every output row
// sweeps it (without this, long-k shapes like the backward-pass dW GEMM
// re-stream a multi-hundred-KB operand from L2 per row pair and the
// kernel goes bandwidth-bound). Between tiles the accumulators round-trip
// through out[] — a float store/reload is value-exact, so the per-element
// chain is STILL the one ascending-k mul-then-add sequence at any tile
// size. The transpose-operand variants (tl/tr) transpose the transposed
// operand into per-thread scratch and reuse the core, exactly like the
// blocked tier.
#include "tensor/kernels_simd.h"

#include <algorithm>
#include <vector>

#include "tensor/kernels_blocked.h"

#if defined(VF_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace vf::kernels::detail {

#if defined(VF_SIMD_AVX2)

namespace {

/// Reusable per-thread transpose scratch for the tl/tr mappings (same
/// pattern as the blocked tier: kernel-internal, invisible to the
/// workspace audit, stable after warm-up).
std::vector<float>& simd_scratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

/// out[i0..i0+1, jj..jj+31] over one k tile. `b_col` points at the
/// tile's b + jj (stride n). Eight accumulators live in registers for
/// the tile; `first` seeds them with +0 (tile 0) or the partial sums
/// already in out — per element the chain is ascending-k mul-then-add
/// from +0 either way: the reference chain.
inline void panel_2x32(const float* __restrict a0, const float* __restrict a1,
                       const float* __restrict b_col, float* __restrict o0,
                       float* __restrict o1, std::int64_t k, std::int64_t n,
                       bool first) {
  __m256 c00, c01, c02, c03, c10, c11, c12, c13;
  if (first) {
    c00 = c01 = c02 = c03 = _mm256_setzero_ps();
    c10 = c11 = c12 = c13 = _mm256_setzero_ps();
  } else {
    c00 = _mm256_loadu_ps(o0);
    c01 = _mm256_loadu_ps(o0 + 8);
    c02 = _mm256_loadu_ps(o0 + 16);
    c03 = _mm256_loadu_ps(o0 + 24);
    c10 = _mm256_loadu_ps(o1);
    c11 = _mm256_loadu_ps(o1 + 8);
    c12 = _mm256_loadu_ps(o1 + 16);
    c13 = _mm256_loadu_ps(o1 + 24);
  }
  for (std::int64_t kk = 0; kk < k; ++kk, b_col += n) {
    const __m256 b0 = _mm256_loadu_ps(b_col);
    const __m256 b1 = _mm256_loadu_ps(b_col + 8);
    const __m256 b2 = _mm256_loadu_ps(b_col + 16);
    const __m256 b3 = _mm256_loadu_ps(b_col + 24);
    const __m256 av0 = _mm256_set1_ps(a0[kk]);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(av0, b1));
    c02 = _mm256_add_ps(c02, _mm256_mul_ps(av0, b2));
    c03 = _mm256_add_ps(c03, _mm256_mul_ps(av0, b3));
    const __m256 av1 = _mm256_set1_ps(a1[kk]);
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(av1, b1));
    c12 = _mm256_add_ps(c12, _mm256_mul_ps(av1, b2));
    c13 = _mm256_add_ps(c13, _mm256_mul_ps(av1, b3));
  }
  _mm256_storeu_ps(o0, c00);
  _mm256_storeu_ps(o0 + 8, c01);
  _mm256_storeu_ps(o0 + 16, c02);
  _mm256_storeu_ps(o0 + 24, c03);
  _mm256_storeu_ps(o1, c10);
  _mm256_storeu_ps(o1 + 8, c11);
  _mm256_storeu_ps(o1 + 16, c12);
  _mm256_storeu_ps(o1 + 24, c13);
}

/// Single-row variant of panel_2x32 for odd m tails.
inline void panel_1x32(const float* __restrict a_row,
                       const float* __restrict b_col, float* __restrict o,
                       std::int64_t k, std::int64_t n, bool first) {
  __m256 c0, c1, c2, c3;
  if (first) {
    c0 = c1 = c2 = c3 = _mm256_setzero_ps();
  } else {
    c0 = _mm256_loadu_ps(o);
    c1 = _mm256_loadu_ps(o + 8);
    c2 = _mm256_loadu_ps(o + 16);
    c3 = _mm256_loadu_ps(o + 24);
  }
  for (std::int64_t kk = 0; kk < k; ++kk, b_col += n) {
    const __m256 av = _mm256_set1_ps(a_row[kk]);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(b_col)));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(b_col + 8)));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(b_col + 16)));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(b_col + 24)));
  }
  _mm256_storeu_ps(o, c0);
  _mm256_storeu_ps(o + 8, c1);
  _mm256_storeu_ps(o + 16, c2);
  _mm256_storeu_ps(o + 24, c3);
}

/// One-vector (8-column) strip for n tails past the 32-wide panels.
inline void panel_1x8(const float* __restrict a_row,
                      const float* __restrict b_col, float* __restrict o,
                      std::int64_t k, std::int64_t n, bool first) {
  __m256 c = first ? _mm256_setzero_ps() : _mm256_loadu_ps(o);
  for (std::int64_t kk = 0; kk < k; ++kk, b_col += n) {
    const __m256 av = _mm256_set1_ps(a_row[kk]);
    c = _mm256_add_ps(c, _mm256_mul_ps(av, _mm256_loadu_ps(b_col)));
  }
  _mm256_storeu_ps(o, c);
}

/// out = a[m x k] @ b[k x n], vector lanes over the n axis, scalar tail
/// for the last n % 8 columns (same per-element chain either way). The
/// k loop is tiled to keep the streamed b panel L1-resident; tile 0
/// seeds the accumulators with +0, later tiles resume from out[].
void matmul_core_avx2(const float* __restrict a, const float* __restrict b,
                      float* __restrict out, std::int64_t m, std::int64_t k,
                      std::int64_t n) {
  if (k == 0) {
    for (std::int64_t i = 0; i < m * n; ++i) out[i] = 0.0F;
    return;
  }
  // ~24 KiB of b per tile leaves L1 room for the out rows in flight; the
  // floor keeps tiles from degenerating on very wide n (where one b row
  // is most of the budget and tiling buys nothing anyway).
  constexpr std::int64_t kPanelBudgetFloats = 6 * 1024;
  const std::int64_t kc_max =
      n > 0 ? std::max<std::int64_t>(16, kPanelBudgetFloats / n) : k;
  for (std::int64_t k0 = 0; k0 < k; k0 += kc_max) {
    const std::int64_t kc = std::min(kc_max, k - k0);
    const bool first = k0 == 0;
    const float* __restrict bt = b + k0 * n;
    std::int64_t jj = 0;
    for (; jj + 32 <= n; jj += 32) {
      std::int64_t i = 0;
      for (; i + 2 <= m; i += 2)
        panel_2x32(a + i * k + k0, a + (i + 1) * k + k0, bt + jj,
                   out + i * n + jj, out + (i + 1) * n + jj, kc, n, first);
      if (i < m)
        panel_1x32(a + i * k + k0, bt + jj, out + i * n + jj, kc, n, first);
    }
    for (; jj + 8 <= n; jj += 8)
      for (std::int64_t i = 0; i < m; ++i)
        panel_1x8(a + i * k + k0, bt + jj, out + i * n + jj, kc, n, first);
    if (jj < n) {
      for (std::int64_t i = 0; i < m; ++i) {
        const float* __restrict a_row = a + i * k + k0;
        for (std::int64_t j = jj; j < n; ++j) {
          float acc = first ? 0.0F : out[i * n + j];
          for (std::int64_t kk = 0; kk < kc; ++kk)
            acc += a_row[kk] * bt[kk * n + j];
          out[i * n + j] = acc;
        }
      }
    }
  }
}

}  // namespace

void matmul_simd(const float* a, const float* b, float* out, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  matmul_core_avx2(a, b, out, m, k, n);
}

void matmul_tl_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  // out = a^T @ b with a stored [k x m]. The practical tl shapes are the
  // backward-pass dW GEMMs: m and n are layer widths (small), k is the
  // batch (large) — so out fits in L1 and the win is streaming a and b
  // exactly once in their storage order. That is the reference tl loop
  // itself (kk outer, i, j inner), vectorized over the j lanes: element
  // (i, j) accumulates a[kk, i] * b[kk, j] for kk ascending, in place in
  // out — the identical chain (the reference's zero-lhs skip is
  // value-invisible: a +/-0 term can never flip a live accumulator's
  // bits, see kernels.h).
  if (m * n <= 8192) {
    for (std::int64_t i = 0; i < m * n; ++i) out[i] = 0.0F;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* __restrict a_row = a + kk * m;
      const float* __restrict b_row = b + kk * n;
      // The b row is hoisted into registers per 32-column panel and
      // reused by every output row — the i loop is then pure
      // broadcast/mul/add/store with no reloads and no inner branch.
      std::int64_t j0 = 0;
      for (; j0 + 32 <= n; j0 += 32) {
        const __m256 b0 = _mm256_loadu_ps(b_row + j0);
        const __m256 b1 = _mm256_loadu_ps(b_row + j0 + 8);
        const __m256 b2 = _mm256_loadu_ps(b_row + j0 + 16);
        const __m256 b3 = _mm256_loadu_ps(b_row + j0 + 24);
        for (std::int64_t i = 0; i < m; ++i) {
          const __m256 av = _mm256_set1_ps(a_row[i]);
          float* __restrict o = out + i * n + j0;
          _mm256_storeu_ps(
              o, _mm256_add_ps(_mm256_loadu_ps(o), _mm256_mul_ps(av, b0)));
          _mm256_storeu_ps(o + 8, _mm256_add_ps(_mm256_loadu_ps(o + 8),
                                                _mm256_mul_ps(av, b1)));
          _mm256_storeu_ps(o + 16, _mm256_add_ps(_mm256_loadu_ps(o + 16),
                                                 _mm256_mul_ps(av, b2)));
          _mm256_storeu_ps(o + 24, _mm256_add_ps(_mm256_loadu_ps(o + 24),
                                                 _mm256_mul_ps(av, b3)));
        }
      }
      for (; j0 + 8 <= n; j0 += 8) {
        const __m256 b0 = _mm256_loadu_ps(b_row + j0);
        for (std::int64_t i = 0; i < m; ++i) {
          float* __restrict o = out + i * n + j0;
          _mm256_storeu_ps(
              o, _mm256_add_ps(_mm256_loadu_ps(o),
                               _mm256_mul_ps(_mm256_set1_ps(a_row[i]), b0)));
        }
      }
      if (j0 < n) {
        for (std::int64_t i = 0; i < m; ++i) {
          const float av = a_row[i];
          float* __restrict o_row = out + i * n;
          for (std::int64_t j = j0; j < n; ++j) o_row[j] += av * b_row[j];
        }
      }
    }
    return;
  }
  // Large-out fallback: cycling a beyond-L1 out per kk row would thrash,
  // so transpose a into row-major scratch and run the tiled core.
  std::vector<float>& scratch = simd_scratch();
  scratch.resize(static_cast<std::size_t>(m * k));
  transpose_blocked(a, scratch.data(), k, m);
  matmul_core_avx2(scratch.data(), b, out, m, k, n);
}

void matmul_tr_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  // out = a @ b^T with b stored [n x k]: transpose b into row-major
  // [k x n] scratch and run the core — same terms, same order.
  std::vector<float>& scratch = simd_scratch();
  scratch.resize(static_cast<std::size_t>(k * n));
  transpose_blocked(b, scratch.data(), n, k);
  matmul_core_avx2(a, scratch.data(), out, m, k, n);
}

void mul_simd(const float* a, const float* b, float* out, std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8)
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  for (; i < count; ++i) out[i] = a[i] * b[i];
}

void column_sums_simd(const float* in, float* out, std::int64_t rows,
                      std::int64_t cols) {
  // Lanes over columns; per column the chain runs over rows in ascending
  // order, exactly as the reference single-pass loop does.
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    const float* p = in + j;
    for (std::int64_t i = 0; i < rows; ++i, p += cols)
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(p));
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < cols; ++j) {
    float s = 0.0F;
    const float* p = in + j;
    for (std::int64_t i = 0; i < rows; ++i, p += cols) s += *p;
    out[j] = s;
  }
}

#else  // !VF_SIMD_AVX2

// Portable stubs: same symbol set on every platform, delegating to the
// blocked tier. The factory reports simd_compiled() == false here, so
// these are never selected — they exist so link and call sites need no
// preprocessor guards. The `#if defined(__ARM_NEON)` slot below is where
// real NEON kernels land (same lane discipline: a lane is one output
// element, the k chain never splits); until then aarch64 builds take the
// delegation path too.
#if defined(__ARM_NEON) || defined(__aarch64__)
// NEON tier: intentionally still the delegation stub — see docs/kernels.md
// ("Adding a backend") for the checklist a real implementation follows.
#endif

void matmul_simd(const float* a, const float* b, float* out, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  matmul_blocked(a, b, out, m, k, n);
}

void matmul_tl_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  matmul_tl_blocked(a, b, out, m, k, n);
}

void matmul_tr_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  matmul_tr_blocked(a, b, out, m, k, n);
}

void mul_simd(const float* a, const float* b, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = a[i] * b[i];
}

void column_sums_simd(const float* in, float* out, std::int64_t rows,
                      std::int64_t cols) {
  for (std::int64_t j = 0; j < cols; ++j) out[j] = 0.0F;
  const float* p = in;
  for (std::int64_t i = 0; i < rows; ++i, p += cols)
    for (std::int64_t j = 0; j < cols; ++j) out[j] += p[j];
}

#endif  // VF_SIMD_AVX2

}  // namespace vf::kernels::detail
