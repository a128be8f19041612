// Kernel equivalence suite: the simd kernels must be bit-identical to the
// reference kernels on every (finite) input — that is the contract that
// lets the training/serving bit-reproducibility story survive a kernel
// swap. Hammered shape by shape, including the degenerate and odd shapes
// the panel and lane tails have to get right, and with ReLU-style exact
// zeros (the reference's zero-skip must be invisible). On hosts without
// the vector ISA the kSimd arms still run — the simd mode runs the
// reference loops there, so the asserts hold everywhere (the backend
// decision itself is tested in test_backend.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/common.h"
#include "util/rng.h"

namespace vf {
namespace {

/// Restores the global kernel mode on scope exit.
struct ConfigGuard {
  KernelMode mode = TensorConfig::kernel_mode();
  ~ConfigGuard() { TensorConfig::set_kernel_mode(mode); }
};

/// Gaussian tensor with a `sparsity` fraction of exact zeros — the shape
/// of a post-ReLU activation, which is what the lhs zero-skip sees.
Tensor sparse_randn(std::vector<std::int64_t> shape, CounterRng& rng,
                    double sparsity) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (float& v : t.data())
    if (rng.next_double() < sparsity) v = 0.0F;
  return t;
}

struct Shape {
  std::int64_t m, k, n;
};

// Degenerate (0- and 1-sized dims), odd, prime, panel-boundary, and
// beyond-one-k-tile shapes.
const std::vector<Shape> kShapes = {
    {0, 5, 3},   {5, 0, 3},   {4, 6, 0},    {1, 1, 1},   {1, 7, 1},
    {3, 1, 5},   {7, 13, 9},  {17, 33, 29}, {32, 4, 128}, {33, 5, 129},
    {64, 31, 64}, {40, 64, 200}, {129, 128, 65},
};

class KernelEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalence, MatmulSimdMatchesReferenceBitForBit) {
  const double sparsity = GetParam();
  CounterRng rng(7, 0xAB);
  for (const Shape& s : kShapes) {
    const Tensor a = sparse_randn({s.m, s.k}, rng, sparsity);
    const Tensor b = sparse_randn({s.k, s.n}, rng, sparsity);
    Tensor ref({s.m, s.n}), simd({s.m, s.n});
    kernels::matmul(a.data().data(), b.data().data(), ref.data().data(), s.m, s.k,
                    s.n, KernelMode::kReference);
    kernels::matmul(a.data().data(), b.data().data(), simd.data().data(), s.m,
                    s.k, s.n, KernelMode::kSimd);
    EXPECT_TRUE(ref.equals(simd)) << s.m << "x" << s.k << "x" << s.n
                                  << " max diff " << ref.max_abs_diff(simd);
  }
}

TEST_P(KernelEquivalence, TransposeLhsSimdMatchesReferenceBitForBit) {
  const double sparsity = GetParam();
  CounterRng rng(11, 0xCD);
  for (const Shape& s : kShapes) {
    const Tensor a = sparse_randn({s.k, s.m}, rng, sparsity);  // lhs is [k x m]
    const Tensor b = sparse_randn({s.k, s.n}, rng, sparsity);
    Tensor ref({s.m, s.n}), simd({s.m, s.n});
    kernels::matmul_transpose_lhs(a.data().data(), b.data().data(),
                                  ref.data().data(), s.m, s.k, s.n,
                                  KernelMode::kReference);
    kernels::matmul_transpose_lhs(a.data().data(), b.data().data(),
                                  simd.data().data(), s.m, s.k, s.n,
                                  KernelMode::kSimd);
    EXPECT_TRUE(ref.equals(simd)) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(KernelEquivalence, TransposeRhsSimdMatchesReferenceBitForBit) {
  const double sparsity = GetParam();
  CounterRng rng(13, 0xEF);
  for (const Shape& s : kShapes) {
    const Tensor a = sparse_randn({s.m, s.k}, rng, sparsity);
    const Tensor b = sparse_randn({s.n, s.k}, rng, sparsity);  // rhs is [n x k]
    Tensor ref({s.m, s.n}), simd({s.m, s.n});
    kernels::matmul_transpose_rhs(a.data().data(), b.data().data(),
                                  ref.data().data(), s.m, s.k, s.n,
                                  KernelMode::kReference);
    kernels::matmul_transpose_rhs(a.data().data(), b.data().data(),
                                  simd.data().data(), s.m, s.k, s.n,
                                  KernelMode::kSimd);
    EXPECT_TRUE(ref.equals(simd)) << s.m << "x" << s.k << "x" << s.n;
  }
}

INSTANTIATE_TEST_SUITE_P(DenseAndReluSparse, KernelEquivalence,
                         ::testing::Values(0.0, 0.5, 0.95),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "sparsity" +
                                  std::to_string(static_cast<int>(info.param * 100));
                         });

TEST(KernelDispatch, TensorOpsHonorTheGlobalMode) {
  ConfigGuard guard;
  CounterRng rng(19, 0x22);
  const Tensor a = Tensor::randn({33, 17}, rng);
  const Tensor b = Tensor::randn({17, 29}, rng);

  TensorConfig::set_kernel_mode(KernelMode::kReference);
  const Tensor ref = a.matmul(b);
  TensorConfig::set_kernel_mode(KernelMode::kSimd);
  const Tensor simd = a.matmul(b);

  EXPECT_TRUE(ref.equals(simd));
}

TEST(KernelDispatch, ModeNamesRoundTrip) {
  EXPECT_STREQ(kernel_mode_name(KernelMode::kReference), "reference");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kSimd), "simd");
}

// ---- Environment parsing: accept the documented values, reject loudly.
//
// A typo in VF_KERNELS silently running the wrong tier would invalidate a
// whole benchmark campaign, so unknown values are a hard usage error
// (stderr one-liner + exit 2 — bench_util's kUsageErrorExit), not a
// fall-through to the default. The env is latched on first use, so the
// death tests go through the reload_from_env() test hook; EXPECT_EXIT
// forks, leaving the parent's latched config untouched.

class EnvConfig : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* v = std::getenv("VF_KERNELS");
    saved_ = {v != nullptr, v != nullptr ? v : ""};
  }
  void TearDown() override {
    if (saved_.first)
      ::setenv("VF_KERNELS", saved_.second.c_str(), 1);
    else
      ::unsetenv("VF_KERNELS");
    TensorConfig::reload_from_env();
  }

 private:
  std::pair<bool, std::string> saved_;
};

TEST_F(EnvConfig, AcceptsEveryDocumentedKernelMode) {
  ::setenv("VF_KERNELS", "reference", 1);
  TensorConfig::reload_from_env();
  EXPECT_EQ(TensorConfig::kernel_mode(), KernelMode::kReference);
  ::setenv("VF_KERNELS", "simd", 1);
  TensorConfig::reload_from_env();
  EXPECT_EQ(TensorConfig::kernel_mode(), KernelMode::kSimd);
  // Unset and empty both mean the default, simd; each is read after
  // "reference", so the mode is seen to move.
  ::setenv("VF_KERNELS", "reference", 1);
  TensorConfig::reload_from_env();
  ::setenv("VF_KERNELS", "", 1);
  TensorConfig::reload_from_env();
  EXPECT_EQ(TensorConfig::kernel_mode(), KernelMode::kSimd);
  ::setenv("VF_KERNELS", "reference", 1);
  TensorConfig::reload_from_env();
  ::unsetenv("VF_KERNELS");
  TensorConfig::reload_from_env();
  EXPECT_EQ(TensorConfig::kernel_mode(), KernelMode::kSimd);
}

TEST_F(EnvConfig, DefaultModeRunsReferenceWithoutTheVectorIsa) {
  ::unsetenv("VF_KERNELS");
  TensorConfig::reload_from_env();
  ASSERT_EQ(TensorConfig::kernel_mode(), KernelMode::kSimd);
  backend::ScopedSimdDisable disable;
  EXPECT_FALSE(backend::BackendFactory::instance().simd_available());

  // 0 * inf is the one product the reference loops skip (kernels.h), so
  // the default mode keeping the zero lhs term's 0 shows they served.
  const Tensor zero_lhs = Tensor::full({1, 1}, 0.0F);
  const Tensor inf_rhs = Tensor::full({1, 3}, std::numeric_limits<float>::infinity());
  EXPECT_TRUE(zero_lhs.matmul(inf_rhs).equals(Tensor::full({1, 3}, 0.0F)));

  CounterRng rng(29, 0x23);
  const Tensor a = Tensor::randn({33, 17}, rng);
  const Tensor b = Tensor::randn({17, 29}, rng);
  const Tensor by_default = a.matmul(b);
  TensorConfig::set_kernel_mode(KernelMode::kReference);
  EXPECT_TRUE(by_default.equals(a.matmul(b)));
}

TEST_F(EnvConfig, RejectsUnknownKernelModeWithUsageError) {
  // The classic transposition typo, and the retired third tier.
  for (const char* value : {"sidm", "blocked"}) {
    ::setenv("VF_KERNELS", value, 1);
    EXPECT_EXIT(TensorConfig::reload_from_env(), ::testing::ExitedWithCode(2),
                "VF_KERNELS must be 'reference' or 'simd'")
        << value;
  }
}

TEST(TensorInto, MatmulIntoReusesTheOutputBuffer) {
  CounterRng rng(23, 0x33);
  const Tensor a = Tensor::randn({40, 24}, rng);
  const Tensor b = Tensor::randn({24, 56}, rng);
  Tensor out;
  a.matmul_into(b, out);
  EXPECT_TRUE(out.equals(a.matmul(b)));

  const std::int64_t allocs = tensor_alloc_count();
  a.matmul_into(b, out);  // same shape: must not touch the heap
  EXPECT_EQ(tensor_alloc_count(), allocs);

  // Shrinking reuses capacity too.
  const Tensor a2 = Tensor::randn({8, 24}, rng);
  const std::int64_t allocs2 = tensor_alloc_count();
  a2.matmul_into(b, out);
  EXPECT_EQ(tensor_alloc_count(), allocs2);
  EXPECT_TRUE(out.equals(a2.matmul(b)));
}

TEST(TensorInto, IntoVariantsMatchByValueOps) {
  CounterRng rng(29, 0x44);
  const Tensor a = Tensor::randn({9, 14}, rng);
  const Tensor b = Tensor::randn({9, 14}, rng);
  Tensor out;
  a.mul_into(b, out);
  EXPECT_TRUE(out.equals(a.mul(b)));
  a.column_sums_into(out);
  EXPECT_TRUE(out.equals(a.column_sums()));
}

TEST(TensorInto, AliasingIsRejected) {
  CounterRng rng(31, 0x55);
  Tensor a = Tensor::randn({6, 6}, rng);
  const Tensor b = Tensor::randn({6, 6}, rng);
  EXPECT_THROW(a.matmul_into(b, a), VfError);
  EXPECT_THROW(a.mul_into(b, a), VfError);
}

TEST(TensorInto, EnsureShapeCountsOnlyGrowth) {
  Tensor t;
  const std::int64_t before = tensor_alloc_count();
  t.ensure_shape({16, 16});
  EXPECT_EQ(tensor_alloc_count(), before + 1);
  t.ensure_shape({4, 4});  // shrink: reuse
  t.ensure_shape({16, 16});  // regrow within capacity: reuse
  EXPECT_EQ(tensor_alloc_count(), before + 1);
  t.ensure_shape({32, 32});  // genuine growth
  EXPECT_EQ(tensor_alloc_count(), before + 2);
}

TEST(SinglePassReductions, RowArgmaxAndColumnSumsMatchNaiveLoops) {
  CounterRng rng(37, 0x66);
  const Tensor a = Tensor::randn({23, 11}, rng);
  std::vector<std::int64_t> am;
  a.row_argmax_into(am);
  ASSERT_EQ(am.size(), 23U);
  for (std::int64_t i = 0; i < 23; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < 11; ++j)
      if (a.at(i, j) > a.at(i, best)) best = j;
    EXPECT_EQ(am[static_cast<std::size_t>(i)], best) << "row " << i;
  }
  const Tensor cs = a.column_sums();
  for (std::int64_t j = 0; j < 11; ++j) {
    float s = 0.0F;
    for (std::int64_t i = 0; i < 23; ++i) s += a.at(i, j);
    EXPECT_EQ(cs.at(j), s) << "col " << j;
  }
}

}  // namespace
}  // namespace vf
