// Kernel-backend suite: the one runtime decision behind VF_KERNELS=simd.
// What is asserted here is the *decision*, not just the bits — the simd
// mode runs the vector core on every shape when the CPU has the ISA and
// the reference loops otherwise — plus the bit-identity of the vector
// core against the reference specification on the shapes the generic
// kernel suite does not reach (edge dims, outputs narrower than one
// register, negative zero, NaN/Inf passthrough).
//
// Everything must pass on hosts WITHOUT the vector ISA too: there the
// simd mode runs the reference loops on every shape, and the
// vector-specific asserts are skipped rather than weakened.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/common.h"
#include "util/rng.h"

namespace vf {
namespace {

using backend::BackendFactory;
using backend::ScopedSimdDisable;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Restores the global kernel mode.
struct FactoryGuard {
  KernelMode mode = TensorConfig::kernel_mode();
  ~FactoryGuard() { TensorConfig::set_kernel_mode(mode); }
};

/// True bitwise equality (Tensor::equals uses float ==, which conflates
/// +0/-0 and rejects equal NaNs — exactly the cases this suite probes).
bool bits_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  // An empty tensor's data pointer may be null, which memcmp must not see.
  if (a.data().empty()) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// True when a simd-mode matmul of `n` output columns ran the vector
/// core. The one place the two implementations differ is 0 * inf
/// (kernels.h): the reference loops skip a zero lhs term, the vector core
/// multiplies it, so a zero lhs against an inf rhs reads 0 after the
/// reference and NaN after the core.
bool simd_mode_ran_vector_core(std::int64_t n) {
  const float a = 0.0F;
  const std::vector<float> b(static_cast<std::size_t>(n), kInf);
  std::vector<float> out(static_cast<std::size_t>(n));
  kernels::matmul(&a, b.data(), out.data(), 1, 1, n, KernelMode::kSimd);
  return std::isnan(out[0]);
}

TEST(BackendFactory, ProbeAndAvailabilityAreCoherent) {
  BackendFactory& f = BackendFactory::instance();
  if (BackendFactory::simd_compiled()) {
    EXPECT_STREQ(BackendFactory::simd_isa(), "avx2");
  }
  // simd_available implies all three gates.
  if (f.simd_available()) {
    EXPECT_TRUE(BackendFactory::simd_compiled());
    EXPECT_TRUE(f.cpu_features().avx2);
    EXPECT_FALSE(f.simd_disabled());
  }
}

TEST(BackendFactory, ForceDisableRunsTheReferenceLoops) {
  FactoryGuard guard;
  BackendFactory& f = BackendFactory::instance();
  {
    ScopedSimdDisable disable;
    EXPECT_FALSE(f.simd_available());
    EXPECT_FALSE(simd_mode_ran_vector_core(64));

    // The public kernel entry points still keep the contract while
    // disabled.
    CounterRng rng(3, 0x51);
    const Tensor a = Tensor::randn({17, 9}, rng);
    const Tensor b = Tensor::randn({9, 21}, rng);
    Tensor ref({17, 21}), simd({17, 21});
    kernels::matmul(a.data().data(), b.data().data(), ref.data().data(), 17, 9,
                    21, KernelMode::kReference);
    kernels::matmul(a.data().data(), b.data().data(), simd.data().data(), 17, 9,
                    21, KernelMode::kSimd);
    EXPECT_TRUE(bits_equal(ref, simd));
  }
  // The guard restored the previous override.
  EXPECT_EQ(f.simd_disabled(), false);
  EXPECT_EQ(simd_mode_ran_vector_core(64), f.simd_available());
}

TEST(BackendFactory, VectorCoreServesEveryOutputWidth) {
  // One decision per process, none per shape: outputs narrower than one
  // register run the core's masked lanes, never a fallback.
  if (!BackendFactory::instance().simd_available())
    GTEST_SKIP() << "no vector ISA on this host";
  for (std::int64_t n = 1; n <= 17; ++n)
    EXPECT_TRUE(simd_mode_ran_vector_core(n)) << "n = " << n;
}

// ---- simd bit-identity on the edges the generic suite does not reach.

struct Shape {
  std::int64_t m, k, n;
};

/// Edge shapes with at least one full register of output columns:
/// degenerate and 1-sized m/k, odd everything, panel boundaries
/// (8/16/32) and their neighbours. Narrower outputs have their own sweep
/// below.
const std::vector<Shape> kEdgeShapes = {
    {0, 5, 9},  {5, 0, 9},   {1, 1, 8},   {3, 1, 12},  {1, 7, 33},
    {2, 3, 8},  {7, 5, 31},  {9, 11, 32}, {33, 7, 40}, {5, 13, 72},
};

/// All three products of one [m x k] lhs and [k x n] rhs, simd against
/// reference: matmul as given, tl on the lhs stored [k x m], tr on the
/// rhs stored [n x k]. Every product builds out[i, j] from the same
/// terms in the same order, so each must match its reference bit for
/// bit.
void expect_matmul_family_bits_equal(const Tensor& a_mm, const Tensor& b_mm,
                                     const Shape& s) {
  const std::string shape = std::to_string(s.m) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.n);
  const Tensor a_tl = a_mm.transposed();
  const Tensor b_tr = b_mm.transposed();
  Tensor ref({s.m, s.n}), simd({s.m, s.n});
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kSimd}) {
    Tensor& out = mode == KernelMode::kReference ? ref : simd;
    kernels::matmul(a_mm.data().data(), b_mm.data().data(), out.data().data(),
                    s.m, s.k, s.n, mode);
  }
  EXPECT_TRUE(bits_equal(ref, simd)) << "matmul " << shape;
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kSimd}) {
    Tensor& out = mode == KernelMode::kReference ? ref : simd;
    kernels::matmul_transpose_lhs(a_tl.data().data(), b_mm.data().data(),
                                  out.data().data(), s.m, s.k, s.n, mode);
  }
  EXPECT_TRUE(bits_equal(ref, simd)) << "tl " << shape;
  for (const KernelMode mode : {KernelMode::kReference, KernelMode::kSimd}) {
    Tensor& out = mode == KernelMode::kReference ? ref : simd;
    kernels::matmul_transpose_rhs(a_mm.data().data(), b_tr.data().data(),
                                  out.data().data(), s.m, s.k, s.n, mode);
  }
  EXPECT_TRUE(bits_equal(ref, simd)) << "tr " << shape;
}

/// Signed zeros in every position parity: (+0) + (-0) = +0 but
/// (-0) + (-0) = -0, so a re-associated or a skipped term shows.
void seed_negative_zeros(Tensor& a, Tensor& b) {
  for (std::int64_t i = 0; i < a.size(); i += 3) a.at(i) = -0.0F;
  for (std::int64_t i = 1; i < b.size(); i += 4) b.at(i) = -0.0F;
}

/// Inf and NaN with no exact zero in the lhs, so the reference zero-skip
/// never fires (with zeros, 0 * inf differs by documented design —
/// kernels.h) and the chains are term-for-term identical. Each output
/// chain meets at most one special lhs term (one per lhs row) and one
/// special rhs term (one rhs row, inf and NaN in different columns), so
/// no chain adds a default NaN from inf + -inf to a quiet NaN, whose sum
/// would carry the payload of whichever operand comes first.
void seed_nan_inf(Tensor& a, Tensor& b) {
  for (float& v : a.data())
    if (v == 0.0F) v = 1.0F;
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  if (k == 0) return;
  const float specials[3] = {kInf, -kInf, kNan};
  for (std::int64_t i = 0; i < m; ++i) a.at(i, i % k) = specials[i % 3];
  for (std::int64_t j = 1; j < n; j += 2) b.at(k - 1, j) = j % 4 == 1 ? kInf : kNan;
}

/// All three products at shape `s`, from a random draw (`relu` zeroes the
/// lhs's negative half, as a cached activation is), then from the same
/// draw under each special-value seed.
void expect_bits_equal_under_every_seed(const Shape& s, CounterRng& rng, bool relu) {
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  if (relu)
    for (float& v : a.data()) v = v < 0.0F ? 0.0F : v;
  const Tensor b = Tensor::randn({s.k, s.n}, rng);
  expect_matmul_family_bits_equal(a, b, s);
  Tensor a0 = a, b0 = b;
  seed_negative_zeros(a0, b0);
  expect_matmul_family_bits_equal(a0, b0, s);
  Tensor a1 = a, b1 = b;
  seed_nan_inf(a1, b1);
  expect_matmul_family_bits_equal(a1, b1, s);
}

TEST(SimdBitIdentity, EdgeShapesMatchReferenceBitForBit) {
  CounterRng rng(41, 0x53);
  for (const Shape& s : kEdgeShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_matmul_family_bits_equal(a, b, s);
  }
}

TEST(SimdBitIdentity, NarrowOutputsMatchReferenceBitForBit) {
  // Fewer output columns than one register: the vector core runs them
  // as an all-masked panel. Every row remainder of its panels, and k
  // from empty through one k step to a deep chain.
  CounterRng rng(71, 0x5A);
  for (std::int64_t n = 1; n <= 7; ++n)
    for (std::int64_t m = 1; m <= 9; ++m)
      for (const std::int64_t k : {0, 1, 2, 8, 64})
        expect_bits_equal_under_every_seed({m, k, n}, rng, /*relu=*/false);
}

TEST(SimdBitIdentity, TrainingWorkloadShapesMatchReferenceBitForBit) {
  // The per-VN GEMMs of both training workloads: 256-row micro-batches
  // (32 -> 64 -> 64 -> 16) and 8-row ones (32 -> 64 -> 64 -> 10). The
  // matmul rows are the forwards, then (m, k, n) = (in, batch, out) for
  // the dW GEMMs and (batch, out, in) for the input gradients. The lhs
  // is ReLU-sparse, as a cached activation is, so the reference's
  // zero-lhs skip fires.
  const std::vector<Shape> shapes = {
      {256, 32, 64}, {256, 64, 64}, {256, 64, 16}, {8, 32, 64},   {8, 64, 64},
      {8, 64, 10},   {32, 256, 64}, {64, 256, 64}, {64, 256, 16}, {32, 8, 64},
      {64, 8, 64},   {64, 8, 10},   {256, 16, 64}, {256, 64, 32}, {8, 10, 64},
      {8, 64, 32},
  };
  CounterRng rng(61, 0x58);
  for (const Shape& s : shapes) {
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    for (float& v : a.data()) v = v < 0.0F ? 0.0F : v;
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_matmul_family_bits_equal(a, b, s);
  }
}

TEST(SimdBitIdentity, GlueTenantShapesMatchReferenceBitForBit) {
  // The per-VN GEMMs of the GLUE tenants (16 -> 64 -> 64 -> 2) at 1..8
  // rows: the forwards, the dW GEMMs (in, rows, out) and the input
  // gradients (rows, out, in) — the two-class head's among them.
  CounterRng rng(73, 0x5B);
  for (std::int64_t r = 1; r <= 8; ++r)
    for (const Shape& s : std::vector<Shape>{{r, 16, 64},
                                             {r, 64, 64},
                                             {r, 64, 2},
                                             {16, r, 64},
                                             {64, r, 64},
                                             {64, r, 2},
                                             {r, 64, 16},
                                             {r, 2, 64}})
      expect_bits_equal_under_every_seed(s, rng, /*relu=*/true);
}

TEST(SimdBitIdentity, PanelEdgesMatchReferenceBitForBit) {
  // The simd core tiles k at max(16, 6144 / n) (kernels_simd.cpp): k one
  // below, at and one above a tile edge. Then every row remainder of its
  // 4-row panels (m = 1, 2, 3 mod 4) against every column strip: a
  // masked tail alone (n < 16), a 16- or 8-wide strip plus tail (n <
  // 32), and a 32-wide strip plus tail (n = 33..39).
  std::vector<Shape> shapes;
  for (const std::int64_t k : {95, 96, 97}) shapes.push_back({6, k, 64});
  for (const std::int64_t k : {383, 384, 385}) shapes.push_back({5, k, 16});
  for (const std::int64_t m : {5, 6, 7, 9, 10, 11})
    for (const std::int64_t n : {8, 11, 15, 16, 23, 24, 31, 33, 36, 39})
      shapes.push_back({m, 7, n});
  CounterRng rng(67, 0x59);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_matmul_family_bits_equal(a, b, s);
  }
}

TEST(SimdBitIdentity, NegativeZeroSurvivesEveryTier) {
  // -0.0 inputs are where a "harmless" re-association or a skipped term
  // shows up: (+0) + (-0) = +0 but (-0) + (-0) = -0. Seed operands with
  // signed zeros in every position parity and require exact bits.
  FactoryGuard guard;
  CounterRng rng(43, 0x54);
  const Shape s{9, 12, 16};
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  Tensor b = Tensor::randn({s.k, s.n}, rng);
  seed_negative_zeros(a, b);
  expect_matmul_family_bits_equal(a, b, s);

  // Elementwise: a lane is one element; signed-zero products must match.
  Tensor ref, simd;
  Tensor zpos = Tensor::full({4, 8}, 0.0F);
  Tensor zneg = Tensor::full({4, 8}, -0.0F);
  TensorConfig::set_kernel_mode(KernelMode::kReference);
  zneg.mul_into(zpos, ref);
  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  zneg.mul_into(zpos, simd);
  EXPECT_TRUE(bits_equal(ref, simd));
  EXPECT_EQ(std::signbit(simd.at(0)), true);  // (-0) * (+0) = -0
}

TEST(SimdBitIdentity, NanAndInfPassThroughIdentically) {
  // With no exact zeros in the lhs the reference zero-skip never fires,
  // so the chains are term-for-term identical and NaN/Inf must propagate
  // to the same bits. (With zeros, 0 * inf differs by documented design —
  // kernels.h.)
  CounterRng rng(47, 0x55);
  const Shape s{6, 9, 24};
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  Tensor b = Tensor::randn({s.k, s.n}, rng);
  for (float& v : a.data())
    if (v == 0.0F) v = 1.0F;  // keep the zero-skip out of play
  a.at(0, 3) = kInf;
  a.at(2, 1) = -kInf;
  a.at(4, 7) = kNan;
  b.at(1, 9) = kInf;
  b.at(5, 17) = kNan;
  expect_matmul_family_bits_equal(a, b, s);
}

TEST(SimdBitIdentity, ElementwiseAndColumnSumsMatchAcrossCounts) {
  // Sweep counts below one register (an all-masked strip) and across the
  // 8-lane boundary (tails 0..7), and column counts for the strided
  // reduction that reach its four-block strips (32, 33, 64, 72), the
  // one-block strips after them (31, 40, 72), its masked tail (11, 31,
  // 33) and an all-masked strip (1..7). Each runs from a random draw,
  // then under the signed-zero and the inf/NaN seed (one special value
  // per column chain, as in seed_nan_inf).
  const float specials[3] = {kInf, -kInf, kNan};
  CounterRng rng(53, 0x56);
  for (int seed = 0; seed < 3; ++seed) {
    for (std::int64_t count : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 40, 64, 100}) {
      Tensor a = Tensor::randn({count}, rng);
      Tensor b = Tensor::randn({count}, rng);
      if (seed == 1) seed_negative_zeros(a, b);
      if (seed == 2)
        for (std::int64_t i = 0; i < count; ++i) a.at(i) = specials[i % 3];
      Tensor r1({count}), r2({count});
      kernels::mul(a.data().data(), b.data().data(), r1.data().data(), count,
                   KernelMode::kReference);
      kernels::mul(a.data().data(), b.data().data(), r2.data().data(), count,
                   KernelMode::kSimd);
      EXPECT_TRUE(bits_equal(r1, r2)) << "mul " << count << " seed " << seed;
    }
    for (const auto& [rows, cols] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {0, 9}, {1, 8}, {23, 11}, {40, 31}, {7, 64}, {9, 32}, {17, 33},
             {5, 40}, {33, 72}, {1, 1}, {5, 2}, {23, 3}, {1, 4}, {5, 5},
             {23, 6}, {0, 7}, {5, 7}}) {
      Tensor m = Tensor::randn({rows, cols}, rng);
      if (seed == 1)
        for (std::int64_t i = 0; i < m.size(); i += 3) m.at(i) = -0.0F;
      if (seed == 2 && rows > 0)
        for (std::int64_t j = 0; j < cols; ++j) m.at(j % rows, j) = specials[j % 3];
      Tensor r1({cols}), r2({cols});
      kernels::column_sums(m.data().data(), r1.data().data(), rows, cols,
                           KernelMode::kReference);
      kernels::column_sums(m.data().data(), r2.data().data(), rows, cols,
                           KernelMode::kSimd);
      EXPECT_TRUE(bits_equal(r1, r2))
          << "column_sums " << rows << "x" << cols << " seed " << seed;
    }
  }
}

TEST(SimdBitIdentity, TensorOpsHonorTheSimdMode) {
  FactoryGuard guard;
  CounterRng rng(59, 0x57);
  const Tensor a = Tensor::randn({33, 17}, rng);
  const Tensor b = Tensor::randn({17, 29}, rng);

  TensorConfig::set_kernel_mode(KernelMode::kReference);
  const Tensor ref = a.matmul(b);
  const Tensor ref_cs = a.column_sums();
  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  const Tensor simd = a.matmul(b);
  const Tensor simd_cs = a.column_sums();

  EXPECT_TRUE(bits_equal(ref, simd));
  EXPECT_TRUE(bits_equal(ref_cs, simd_cs));
}

}  // namespace
}  // namespace vf
