#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "util/common.h"

namespace vf {
namespace {

// The loss by value, through the library's in-place form.
LossResult cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  LossResult out;
  softmax_cross_entropy_into(logits, labels, out);
  return out;
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});  // all zeros -> uniform distribution
  const LossResult r = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss_sum, 2.0 * std::log(4.0), 1e-5);
  EXPECT_EQ(r.count, 2);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectHasLowLoss) {
  Tensor logits = Tensor::from_values({1, 3}, {10, 0, 0});
  const LossResult r = cross_entropy(logits, {0});
  EXPECT_LT(r.loss_sum, 1e-3);
  EXPECT_EQ(r.correct, 1);
}

TEST(SoftmaxCrossEntropy, ConfidentWrongHasHighLoss) {
  Tensor logits = Tensor::from_values({1, 3}, {10, 0, 0});
  const LossResult r = cross_entropy(logits, {2});
  EXPECT_GT(r.loss_sum, 9.0);
  EXPECT_EQ(r.correct, 0);
}

TEST(SoftmaxCrossEntropy, GradRowsSumToZero) {
  // d(loss)/d(logits) rows are (softmax - onehot), which sums to zero.
  Tensor logits = Tensor::from_values({2, 3}, {1, 2, 3, -1, 0, 1});
  const LossResult r = cross_entropy(logits, {1, 2});
  for (std::int64_t i = 0; i < 2; ++i) {
    float s = 0.0F;
    for (std::int64_t j = 0; j < 3; ++j) s += r.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0F, 1e-5F);
  }
}

TEST(SoftmaxCrossEntropy, GradIsSumFormNotMean) {
  // Duplicating the batch must double loss_sum and keep per-row grads.
  Tensor one = Tensor::from_values({1, 3}, {1, 2, 3});
  Tensor two = Tensor::from_values({2, 3}, {1, 2, 3, 1, 2, 3});
  const auto r1 = cross_entropy(one, {0});
  const auto r2 = cross_entropy(two, {0, 0});
  EXPECT_NEAR(r2.loss_sum, 2.0 * r1.loss_sum, 1e-6);
  EXPECT_NEAR(r2.grad_logits.at(0, 0), r1.grad_logits.at(0, 0), 1e-6F);
  EXPECT_NEAR(r2.grad_logits.at(1, 0), r1.grad_logits.at(0, 0), 1e-6F);
}

TEST(SoftmaxCrossEntropy, NumericallyStableAtExtremes) {
  Tensor logits = Tensor::from_values({1, 2}, {1000.0F, -1000.0F});
  const LossResult r = cross_entropy(logits, {0});
  EXPECT_TRUE(std::isfinite(r.loss_sum));
  EXPECT_NEAR(r.loss_sum, 0.0, 1e-5);
  const LossResult r2 = cross_entropy(logits, {1});
  EXPECT_TRUE(std::isfinite(r2.loss_sum));
  EXPECT_NEAR(r2.loss_sum, 2000.0, 1.0);
}

TEST(SoftmaxCrossEntropy, BadLabelThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(cross_entropy(logits, {3}), VfError);
  EXPECT_THROW(cross_entropy(logits, {-1}), VfError);
}

TEST(SoftmaxCrossEntropy, LabelCountMismatchThrows) {
  Tensor logits({2, 3});
  EXPECT_THROW(cross_entropy(logits, {0}), VfError);
}

}  // namespace
}  // namespace vf
