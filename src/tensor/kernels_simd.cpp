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
// chain the reference kernels perform, just eight elements at a time. No
// horizontal reduction ever combines lanes, and the build forbids FMA
// contraction for this TU (-mno-fma -ffp-contract=off): a fused
// multiply-add rounds once where the reference rounds twice, which would
// change bits. The result is bit-identity with the reference tier on all
// finite inputs at ANY vector width — the lane count only changes how
// many independent chains advance per instruction, never the order
// within a chain. A backend that cannot keep this discipline for some
// shape (e.g. a lane-split dot product with a reduction tree) must route
// that shape to another tier through a per-op rule in the factory
// instead of weakening the contract (backend.h).
//
// One register-blocked core serves all three products. It keeps a block
// of out in ymm accumulators across a k tile — 2 rows x 32 columns on
// the wide panels, 4 x 16 and 4 x 8 on the n tails, where more rows in
// flight hide the add latency that one or two chains per row would
// expose — streams the tile's b rows and broadcasts one lhs element per
// row and k step. With mul and add on separate ports this saturates the
// FP units on AVX2 hosts at about twice the blocked tier's SSE-width
// ceiling. The core reads its lhs through two strides, so the dW GEMM
// (tl) broadcasts straight from its [k x m] operand and never transposes
// it; tr transposes its [n x k] operand into per-thread scratch with 8x8
// in-register transposes and runs the core on the result. The last
// n % 8 columns run as masked lanes: maskload reads 0 into the dead
// lanes and maskstore never writes them, so no dead lane is observed.
// The k loop is tiled so the streamed [kc x n] panel of b stays
// L1-resident while every output row group sweeps it (without this,
// long-k shapes like the dW GEMM re-stream a multi-hundred-KB operand
// from L2 per row group and the kernel goes bandwidth-bound). Between
// tiles the accumulators round-trip through out[] — a float
// store/reload is value-exact, so the per-element chain is STILL the one
// ascending-k mul-then-add sequence at any tile size.
#include "tensor/kernels_simd.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "tensor/kernels_blocked.h"

#if defined(VF_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace vf::kernels::detail {

#if defined(VF_SIMD_AVX2)

namespace {

/// Reusable per-thread scratch for tr's transposed operand (same pattern
/// as the blocked tier: kernel-internal, invisible to the workspace
/// audit, stable after warm-up). The returned `count` floats start on a
/// 64-byte line, so no b row load of the core straddles two lines.
float* simd_scratch(std::size_t count) {
  thread_local std::vector<float> scratch;
  scratch.resize(count + 16);
  void* p = scratch.data();
  std::size_t space = scratch.size() * sizeof(float);
  return static_cast<float*>(std::align(64, count * sizeof(float), p, space));
}

/// Lanes [0, live) set: the mask of the last n % 8 columns.
inline __m256i lane_mask(std::int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool kMasked>
inline __m256 load(const float* p, __m256i mask) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
inline void store(float* p, __m256 v, __m256i mask) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// out[R rows x 8V columns] over one k tile of kc steps. `a` points at
/// the block's first row at the tile's first k, and lhs element (i, kk)
/// sits at a[i * rs + kk * ks] (see gemm_avx2). `b` points at
/// the tile's first b row plus the block's column offset, `o` at the
/// block's first output element; b and o have row stride n. The R x V accumulators live in
/// registers for the tile; `first` seeds them with +0 (tile 0) or the
/// partial sums already in out — per element the chain is ascending-k
/// mul-then-add from +0 either way: the reference chain. kMasked runs
/// the last n % 8 columns (a one-vector panel).
template <int R, int V, bool kMasked = false>
[[gnu::always_inline]] inline void panel(
    const float* __restrict a, std::int64_t rs, std::int64_t ks,
    const float* __restrict b, float* __restrict o, std::int64_t kc,
    std::int64_t n, bool first, __m256i mask) {
  static_assert(!kMasked || V == 1, "only a one-vector panel is masked");
  __m256 c[R][V];
  if (first) {
    for (int r = 0; r < R; ++r)
      for (int v = 0; v < V; ++v) c[r][v] = _mm256_setzero_ps();
  } else {
    for (int r = 0; r < R; ++r)
      for (int v = 0; v < V; ++v) c[r][v] = load<kMasked>(o + r * n + 8 * v, mask);
  }
  for (std::int64_t kk = 0; kk < kc; ++kk, a += ks, b += n) {
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = load<kMasked>(b + 8 * v, mask);
      // Pin the b vector in a register: GCC otherwise folds the load into
      // every row's multiply, reading b R times per k step, and the load
      // ports, not the FP units, then bound the panel.
      if constexpr (R > 1) asm("" : "+x"(bv[v]));
    }
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * rs]);
      for (int v = 0; v < V; ++v)
        c[r][v] = _mm256_add_ps(c[r][v], _mm256_mul_ps(av, bv[v]));
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v) store<kMasked>(o + r * n + 8 * v, c[r][v], mask);
}

/// Columns [jj, jj + 8V) of every out row over one k tile: R-row
/// panels, then the m % R leftover rows one at a time. `bt` is the
/// tile's first b row.
template <int R, int V, bool kMasked = false>
void strip(const float* a0, std::int64_t rs, std::int64_t ks,
           const float* __restrict bt, float* __restrict out, std::int64_t m,
           std::int64_t kc, std::int64_t n, std::int64_t jj, bool first,
           __m256i mask) {
  std::int64_t i = 0;
  for (; i + R <= m; i += R)
    panel<R, V, kMasked>(a0 + i * rs, rs, ks, bt + jj, out + i * n + jj, kc, n,
                         first, mask);
  for (; i < m; ++i)
    panel<1, V, kMasked>(a0 + i * rs, rs, ks, bt + jj, out + i * n + jj, kc, n,
                         first, mask);
}

/// out[m x n] = lhs[m x k] @ b[k x n], vector lanes over the n axis.
/// Lhs element (i, kk) sits at a[i * rs + kk * ks]: matmul and tr pass a
/// row-major [m x k] operand (rs = k, ks = 1), tl its [k x m] operand as
/// stored (rs = 1, ks = m). The k loop is tiled to keep the streamed b panel L1-resident while every
/// row sweeps it; tile 0 seeds the accumulators with +0, later tiles
/// resume from out[]. Columns go in 32-wide strips of 2-row panels, then
/// at most one 16-wide, one 8-wide and one masked strip of 4-row panels:
/// a narrow strip has fewer chains per row, so it keeps more rows in
/// flight to cover the add latency.
void gemm_avx2(const float* a, std::int64_t rs, std::int64_t ks,
               const float* __restrict b, float* __restrict out, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  if (k == 0) {
    for (std::int64_t i = 0; i < m * n; ++i) out[i] = 0.0F;
    return;
  }
  // ~24 KiB of b per tile leaves L1 room for the lhs lines and out rows
  // in flight; the floor keeps tiles from degenerating on very wide n
  // (where one b row is most of the budget and tiling buys nothing
  // anyway).
  constexpr std::int64_t kPanelBudgetFloats = 6 * 1024;
  const std::int64_t kc_max =
      n > 0 ? std::max<std::int64_t>(16, kPanelBudgetFloats / n) : k;
  const __m256i mask = lane_mask(n % 8);
  for (std::int64_t k0 = 0; k0 < k; k0 += kc_max) {
    const std::int64_t kc = std::min(kc_max, k - k0);
    const bool first = k0 == 0;
    const float* at = a + k0 * ks;
    const float* bt = b + k0 * n;
    std::int64_t jj = 0;
    for (; jj + 32 <= n; jj += 32)
      strip<2, 4>(at, rs, ks, bt, out, m, kc, n, jj, first, mask);
    if (jj + 16 <= n) {
      strip<4, 2>(at, rs, ks, bt, out, m, kc, n, jj, first, mask);
      jj += 16;
    }
    if (jj + 8 <= n) {
      strip<4, 1>(at, rs, ks, bt, out, m, kc, n, jj, first, mask);
      jj += 8;
    }
    if (jj < n) strip<4, 1, true>(at, rs, ks, bt, out, m, kc, n, jj, first, mask);
  }
}

/// out[c * rows + r] = in[r * cols + c]. Pure data movement, so any
/// visit order is bit-exact: 8 x 8 blocks go through registers (eight
/// row loads, three shuffle stages, eight row stores), the edges move
/// element by element.
void transpose_avx2(const float* __restrict in, float* __restrict out,
                    std::int64_t rows, std::int64_t cols) {
  std::int64_t r0 = 0;
  for (; r0 + 8 <= rows; r0 += 8) {
    std::int64_t c0 = 0;
    for (; c0 + 8 <= cols; c0 += 8) {
      const float* src = in + r0 * cols + c0;
      __m256 x[8];
      for (int q = 0; q < 8; ++q) x[q] = _mm256_loadu_ps(src + q * cols);
      // Interleave row pairs, then row quads: u0..u3 hold columns 0..3 of
      // rows 0..3 (low half) and columns 4..7 (high half); u4..u7 the
      // same of rows 4..7.
      const __m256 t0 = _mm256_unpacklo_ps(x[0], x[1]);
      const __m256 t1 = _mm256_unpackhi_ps(x[0], x[1]);
      const __m256 t2 = _mm256_unpacklo_ps(x[2], x[3]);
      const __m256 t3 = _mm256_unpackhi_ps(x[2], x[3]);
      const __m256 t4 = _mm256_unpacklo_ps(x[4], x[5]);
      const __m256 t5 = _mm256_unpackhi_ps(x[4], x[5]);
      const __m256 t6 = _mm256_unpacklo_ps(x[6], x[7]);
      const __m256 t7 = _mm256_unpackhi_ps(x[6], x[7]);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
      float* dst = out + c0 * rows + r0;
      _mm256_storeu_ps(dst, _mm256_permute2f128_ps(u0, u4, 0x20));
      _mm256_storeu_ps(dst + rows, _mm256_permute2f128_ps(u1, u5, 0x20));
      _mm256_storeu_ps(dst + 2 * rows, _mm256_permute2f128_ps(u2, u6, 0x20));
      _mm256_storeu_ps(dst + 3 * rows, _mm256_permute2f128_ps(u3, u7, 0x20));
      _mm256_storeu_ps(dst + 4 * rows, _mm256_permute2f128_ps(u0, u4, 0x31));
      _mm256_storeu_ps(dst + 5 * rows, _mm256_permute2f128_ps(u1, u5, 0x31));
      _mm256_storeu_ps(dst + 6 * rows, _mm256_permute2f128_ps(u2, u6, 0x31));
      _mm256_storeu_ps(dst + 7 * rows, _mm256_permute2f128_ps(u3, u7, 0x31));
    }
    for (; c0 < cols; ++c0)
      for (std::int64_t r = r0; r < r0 + 8; ++r) out[c0 * rows + r] = in[r * cols + c0];
  }
  for (; r0 < rows; ++r0)
    for (std::int64_t c = 0; c < cols; ++c) out[c * rows + r0] = in[r0 * cols + c];
}

/// out[0..8V) = column sums of an 8V-column strip of in (row stride
/// cols), each column's chain over rows in ascending order from +0.
template <int V, bool kMasked = false>
inline void column_block(const float* __restrict in, float* __restrict out,
                         std::int64_t rows, std::int64_t cols, __m256i mask) {
  static_assert(!kMasked || V == 1, "only a one-vector block is masked");
  __m256 c[V];
  for (int v = 0; v < V; ++v) c[v] = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < rows; ++i, in += cols)
    for (int v = 0; v < V; ++v)
      c[v] = _mm256_add_ps(c[v], load<kMasked>(in + 8 * v, mask));
  for (int v = 0; v < V; ++v) store<kMasked>(out + 8 * v, c[v], mask);
}

}  // namespace

void matmul_simd(const float* a, const float* b, float* out, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  gemm_avx2(a, k, 1, b, out, m, k, n);
}

void matmul_tl_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  // out = a^T @ b with a stored [k x m]: the core broadcasts a[kk, i]
  // where it lies, so element (i, j) sums a[kk, i] * b[kk, j] for kk
  // ascending — the reference tl chain (its zero-lhs skip is
  // value-invisible: a +/-0 term can never flip a live accumulator's
  // bits, see kernels.h) — with no transpose and no per-k
  // read-modify-write of out.
  gemm_avx2(a, 1, m, b, out, m, k, n);
}

void matmul_tr_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  // out = a @ b^T with b stored [n x k]: transpose b into row-major
  // [k x n] scratch and run the core — same terms, same order.
  float* bt = simd_scratch(static_cast<std::size_t>(k * n));
  transpose_avx2(b, bt, n, k);
  gemm_avx2(a, k, 1, bt, out, m, k, n);
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
  // order, exactly as the reference single-pass loop does. Four column
  // blocks stay in flight so four add chains overlap instead of one
  // waiting on its own latency.
  const __m256i mask = lane_mask(cols % 8);
  std::int64_t j = 0;
  for (; j + 32 <= cols; j += 32) column_block<4>(in + j, out + j, rows, cols, mask);
  for (; j + 8 <= cols; j += 8) column_block<1>(in + j, out + j, rows, cols, mask);
  if (j < cols) column_block<1, true>(in + j, out + j, rows, cols, mask);
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
