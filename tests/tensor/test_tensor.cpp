// Tensor math against hand-computed values; the numerical floor under the
// whole training stack.
#include <gtest/gtest.h>

#include <functional>
#include <regex>
#include <string>

#include "tensor/tensor.h"
#include "util/common.h"

namespace vf {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, FromValuesAndAccessors) {
  Tensor t = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(0, 1), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 2);
}

TEST(Tensor, FromValuesShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_values({2, 2}, {1, 2, 3}), VfError);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(4), VfError);
  EXPECT_THROW(t.at(2, 0), VfError);
  EXPECT_THROW(t.at(0, -1), VfError);
}

TEST(Tensor, FillAndFull) {
  Tensor t = Tensor::full({3}, 2.5F);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(t.at(i), 2.5F);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = Tensor::from_values({3}, {1, 2, 3});
  Tensor b = Tensor::from_values({3}, {4, 5, 6});
  EXPECT_EQ(a.add(b).at(1), 7.0F);
  EXPECT_EQ(b.sub(a).at(2), 3.0F);
  EXPECT_EQ(a.mul(b).at(0), 4.0F);
  EXPECT_EQ(a.scaled(2.0F).at(2), 6.0F);
  Tensor c = a;
  c.axpy_(2.0F, b);
  EXPECT_EQ(c.at(0), 9.0F);  // 1 + 2*4
  c.add_scalar_(1.0F);
  EXPECT_EQ(c.at(0), 10.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a.add(b), VfError);
  EXPECT_THROW(a.mul_(b), VfError);
}

TEST(Tensor, MatmulHandValues) {
  // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_values({2, 2}, {5, 6, 7, 8});
  Tensor c = a.matmul(b);
  EXPECT_EQ(c.at(0, 0), 19.0F);
  EXPECT_EQ(c.at(0, 1), 22.0F);
  EXPECT_EQ(c.at(1, 0), 43.0F);
  EXPECT_EQ(c.at(1, 1), 50.0F);
}

TEST(Tensor, MatmulRectangular) {
  Tensor a = Tensor::from_values({1, 3}, {1, 2, 3});
  Tensor b = Tensor::from_values({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = a.matmul(b);
  EXPECT_EQ(c.shape(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(c.at(0, 0), 4.0F);
  EXPECT_EQ(c.at(0, 1), 5.0F);
}

TEST(Tensor, MatmulInnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(a.matmul(b), VfError);
}

/// The message of the VfError `op` throws, after checking that its
/// "<file>:<line>: " prefix names tensor.cpp, where the check sits.
std::string tensor_check_message(const std::function<void()>& op) {
  try {
    op();
  } catch (const VfError& e) {
    const std::string text = e.what();
    std::smatch m;
    EXPECT_TRUE(
        std::regex_match(text, m, std::regex(R"(.*src/tensor/tensor\.cpp:[0-9]+: (.*))")))
        << text;
    return m.size() == 2 ? m[1].str() : text;
  }
  return "<no throw>";
}

TEST(Tensor, FailedChecksNameTheOpAndShapes) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_EQ(tensor_check_message([&] { a.add_(b); }),
            "add_: shape mismatch [2, 3] vs [3, 2]");
  Tensor out;
  EXPECT_EQ(tensor_check_message([&] { a.matmul_into(a, out); }),
            "matmul: inner dimensions disagree ([2, 3] @ [2, 3])");
  Tensor sq({2, 2});
  Tensor rhs({2, 2});
  EXPECT_EQ(tensor_check_message([&] { sq.matmul_into(rhs, sq); }),
            "matmul_into: out must not alias an input tensor");
}

TEST(Tensor, MatmulTransposeLhsMatchesExplicit) {
  CounterRng rng(1, 0);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  const Tensor expect = a.transposed().matmul(b);
  const Tensor got = a.matmul_transpose_lhs(b);
  EXPECT_LT(expect.max_abs_diff(got), 1e-5F);
}

TEST(Tensor, MatmulTransposeRhsMatchesExplicit) {
  CounterRng rng(2, 0);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({5, 3}, rng);
  const Tensor expect = a.matmul(b.transposed());
  const Tensor got = a.matmul_transpose_rhs(b);
  EXPECT_LT(expect.max_abs_diff(got), 1e-5F);
}

TEST(Tensor, TransposedHandValues) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = a.transposed();
  EXPECT_EQ(t.shape(), (std::vector<std::int64_t>{3, 2}));
  EXPECT_EQ(t.at(0, 1), 4.0F);
  EXPECT_EQ(t.at(2, 0), 3.0F);
}

TEST(Tensor, Reductions) {
  Tensor a = Tensor::from_values({2, 2}, {1, -2, 3, -4});
  EXPECT_EQ(a.sum(), -2.0F);
  EXPECT_EQ(a.mean(), -0.5F);
  EXPECT_EQ(a.abs_max(), 4.0F);
  EXPECT_EQ(a.squared_norm(), 30.0F);
}

TEST(Tensor, ColumnSums) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = a.column_sums();
  EXPECT_EQ(s.at(0), 5.0F);
  EXPECT_EQ(s.at(1), 7.0F);
  EXPECT_EQ(s.at(2), 9.0F);
}

TEST(Tensor, RowArgmax) {
  Tensor a = Tensor::from_values({2, 3}, {1, 5, 2, 9, 0, 3});
  std::vector<std::int64_t> am;
  a.row_argmax_into(am);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 0);
}

TEST(Tensor, RowArgmaxTieBreaksFirst) {
  Tensor a = Tensor::from_values({1, 3}, {7, 7, 7});
  std::vector<std::int64_t> am;
  a.row_argmax_into(am);
  EXPECT_EQ(am[0], 0);
}

TEST(Tensor, SliceRows) {
  Tensor a = Tensor::from_values({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = a.slice_rows(1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.at(0, 0), 3.0F);
  EXPECT_EQ(s.at(1, 1), 6.0F);
  EXPECT_THROW(a.slice_rows(2, 2), VfError);
}

TEST(Tensor, EqualsAndMaxAbsDiff) {
  Tensor a = Tensor::from_values({2}, {1, 2});
  Tensor b = Tensor::from_values({2}, {1, 2.5});
  EXPECT_TRUE(a.equals(a));
  EXPECT_FALSE(a.equals(b));
  EXPECT_FLOAT_EQ(a.max_abs_diff(b), 0.5F);
}

TEST(Tensor, RandnDeterministicInRng) {
  CounterRng r1(7, 1), r2(7, 1);
  Tensor a = Tensor::randn({8}, r1);
  Tensor b = Tensor::randn({8}, r2);
  EXPECT_TRUE(a.equals(b));
}

TEST(Tensor, RandnStddevScales) {
  CounterRng rng(8, 0);
  Tensor a = Tensor::randn({10000}, rng, 3.0F);
  float sum2 = 0.0F;
  for (float v : a.data()) sum2 += v * v;
  EXPECT_NEAR(sum2 / 10000.0F, 9.0F, 0.5F);
}

TEST(Tensor, ShapeStr) {
  EXPECT_EQ(Tensor({2, 3}).shape_str(), "[2, 3]");
  EXPECT_EQ(Tensor().shape_str(), "[]");
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({-1, 2}), VfError);
}

TEST(Tensor, RankLimit) {
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), VfError);
}

}  // namespace
}  // namespace vf
