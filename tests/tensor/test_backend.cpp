// Backend-factory suite: the runtime dispatch policy behind
// VF_KERNELS=simd. What is asserted here is the *decision*, not just the
// bits — which tier serves which (op, shape) and under which factory
// rule — plus the bit-identity of the simd tier against the reference
// specification on the shapes the generic kernel suite does not reach
// (edge dims with a live lane axis, negative zero, NaN/Inf passthrough).
//
// Everything must pass on hosts WITHOUT the vector ISA too: there the
// factory serves every shape with the blocked tier under rule "isa", and
// the tier-specific asserts are skipped rather than weakened.
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
using backend::Dispatch;
using backend::KernelOp;
using backend::ScopedSimdDisable;

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

TEST(BackendFactory, ForceDisableFallsBackToBlockedUnderIsaRule) {
  FactoryGuard guard;
  BackendFactory& f = BackendFactory::instance();
  {
    ScopedSimdDisable disable;
    EXPECT_FALSE(f.simd_available());
    const Dispatch d = f.select(KernelOp::kMatmul, 64, 64, 64);
    EXPECT_EQ(d.tier, KernelMode::kBlocked);
    EXPECT_STREQ(d.rule, "isa");

    // Dispatch through the public kernel entry points still works and
    // still keeps the contract while disabled.
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
}

TEST(BackendFactory, PerShapeIntrospectionNamesTheDecidingRule) {
  BackendFactory& f = BackendFactory::instance();
  if (!f.simd_available()) GTEST_SKIP() << "no vector ISA on this host";

  // A healthy GEMM shape is served by the vector kernel.
  Dispatch d = f.select(KernelOp::kMatmul, 64, 64, 64);
  EXPECT_EQ(d.tier, KernelMode::kSimd);
  EXPECT_STREQ(d.rule, "vector");

  // A lane axis shorter than one vector register has nothing to win.
  d = f.select(KernelOp::kMatmul, 64, 64, 3);
  EXPECT_EQ(d.tier, KernelMode::kBlocked);
  EXPECT_STREQ(d.rule, "narrow-n");

  // Elementwise ops vectorize from one full register up.
  EXPECT_EQ(f.select(KernelOp::kMul, 0, 0, 8).tier, KernelMode::kSimd);
  EXPECT_EQ(f.select(KernelOp::kMul, 0, 0, 7).tier, KernelMode::kBlocked);
  EXPECT_EQ(f.select(KernelOp::kColumnSums, 40, 0, 11).tier, KernelMode::kSimd);
}

TEST(BackendFactory, KernelOpNamesRoundTrip) {
  EXPECT_STREQ(backend::kernel_op_name(KernelOp::kMatmul), "matmul");
  EXPECT_STREQ(backend::kernel_op_name(KernelOp::kMatmulTransposeLhs), "tl");
  EXPECT_STREQ(backend::kernel_op_name(KernelOp::kMatmulTransposeRhs), "tr");
  EXPECT_STREQ(backend::kernel_op_name(KernelOp::kMul), "mul");
  EXPECT_STREQ(backend::kernel_op_name(KernelOp::kColumnSums), "column_sums");
}

// ---- simd bit-identity on the edges the generic suite does not reach.

struct Shape {
  std::int64_t m, k, n;
};

/// Edge shapes with a live lane axis (n >= 8, so the vector kernel — not
/// a fallback — actually serves): degenerate and 1-sized m/k, odd
/// everything, panel boundaries (8/16/32) and their neighbours.
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

TEST(SimdBitIdentity, EdgeShapesMatchReferenceBitForBit) {
  CounterRng rng(41, 0x53);
  for (const Shape& s : kEdgeShapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    expect_matmul_family_bits_equal(a, b, s);
  }
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
  CounterRng rng(43, 0x54);
  const Shape s{9, 12, 16};
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  Tensor b = Tensor::randn({s.k, s.n}, rng);
  for (std::int64_t i = 0; i < a.size(); i += 3) a.at(i) = -0.0F;
  for (std::int64_t i = 1; i < b.size(); i += 4) b.at(i) = -0.0F;
  expect_matmul_family_bits_equal(a, b, s);

  // Elementwise: a lane is one element; signed-zero products must match.
  Tensor ref, simd;
  Tensor zpos = Tensor::full({4, 8}, 0.0F);
  Tensor zneg = Tensor::full({4, 8}, -0.0F);
  TensorConfig::set_kernel_mode(KernelMode::kReference);
  zneg.mul_into(zpos, ref);
  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  zneg.mul_into(zpos, simd);
  TensorConfig::set_kernel_mode(KernelMode::kBlocked);
  EXPECT_TRUE(bits_equal(ref, simd));
  EXPECT_EQ(std::signbit(simd.at(0)), true);  // (-0) * (+0) = -0
}

TEST(SimdBitIdentity, NanAndInfPassThroughIdentically) {
  // With no exact zeros in the lhs the reference zero-skip never fires,
  // so the chains are term-for-term identical and NaN/Inf must propagate
  // to the same bits. (With zeros, 0 * inf differs by documented design —
  // kernels.h.)
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
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
  // Sweep counts across the 8-lane boundary (tails 0..7), and column
  // counts for the strided reduction that reach its four-block strips
  // (32, 33, 64, 72), the one-block strips after them (31, 40, 72) and
  // its masked tail (11, 31, 33).
  CounterRng rng(53, 0x56);
  for (std::int64_t count : {1, 7, 8, 9, 15, 16, 17, 40, 64, 100}) {
    const Tensor a = Tensor::randn({count}, rng);
    const Tensor b = Tensor::randn({count}, rng);
    Tensor r1({count}), r2({count});
    kernels::mul(a.data().data(), b.data().data(), r1.data().data(), count,
                 KernelMode::kReference);
    kernels::mul(a.data().data(), b.data().data(), r2.data().data(), count,
                 KernelMode::kSimd);
    EXPECT_TRUE(bits_equal(r1, r2)) << "mul " << count;
  }
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {0, 9}, {1, 8}, {23, 11}, {40, 31}, {7, 64}, {9, 32}, {17, 33},
           {5, 40}, {33, 72}}) {
    const Tensor m = Tensor::randn({rows, cols}, rng);
    Tensor r1({cols}), r2({cols});
    kernels::column_sums(m.data().data(), r1.data().data(), rows, cols,
                         KernelMode::kReference);
    kernels::column_sums(m.data().data(), r2.data().data(), rows, cols,
                         KernelMode::kSimd);
    EXPECT_TRUE(bits_equal(r1, r2)) << "column_sums " << rows << "x" << cols;
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
