// Behavioural tests for individual layers (shapes, modes, determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/model.h"
#include "tensor/kernels.h"
#include "util/common.h"

namespace vf {
namespace {

ExecContext make_ctx(bool training, std::int64_t step = 0, std::int32_t vn = 0,
                     VnState* state = nullptr) {
  ExecContext ctx;
  ctx.seed = 42;
  ctx.step = step;
  ctx.vn_id = vn;
  ctx.training = training;
  ctx.state = state;
  return ctx;
}

TEST(Dense, ForwardShapeAndBias) {
  CounterRng rng(1, 0);
  Dense d(3, 2, rng);
  // Zero the weights: output should equal the bias.
  d.params()[0]->fill(0.0F);
  d.params()[1]->at(0) = 1.5F;
  d.params()[1]->at(1) = -2.0F;
  Tensor x = Tensor::full({4, 3}, 1.0F);
  Tensor y = d.forward(x, make_ctx(true));
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{4, 2}));
  EXPECT_EQ(y.at(2, 0), 1.5F);
  EXPECT_EQ(y.at(3, 1), -2.0F);
}

TEST(Dense, ParamCount) {
  CounterRng rng(2, 0);
  Dense d(10, 7, rng);
  EXPECT_EQ(d.param_count(), 10 * 7 + 7);
}

TEST(Dense, GradAccumulatesAcrossBackwards) {
  CounterRng rng(3, 0);
  Dense d(2, 2, rng);
  Tensor x = Tensor::full({1, 2}, 1.0F);
  Tensor g = Tensor::full({1, 2}, 1.0F);
  d.forward(x, make_ctx(true));
  d.backward(g);
  const float once = d.grads()[0]->at(0);
  d.forward(x, make_ctx(true));
  d.backward(g);
  EXPECT_FLOAT_EQ(d.grads()[0]->at(0), 2.0F * once);
  d.zero_grad();
  EXPECT_EQ(d.grads()[0]->at(0), 0.0F);
}

TEST(Dense, InputShapeMismatchThrows) {
  CounterRng rng(4, 0);
  Dense d(3, 2, rng);
  Tensor x({2, 4});
  EXPECT_THROW(d.forward(x, make_ctx(true)), VfError);
}

TEST(Relu, ClampsNegatives) {
  Relu r;
  Tensor x = Tensor::from_values({1, 4}, {-1, 0, 2, -3});
  Tensor y = r.forward(x, make_ctx(true));
  EXPECT_EQ(y.at(0, 0), 0.0F);
  EXPECT_EQ(y.at(0, 2), 2.0F);
}

float from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

TEST(Relu, BackwardMasksBySign) {
  // 37 elements: a vector body plus a scalar tail at any vector width,
  // with every special value landing in both.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-0.0F, 1.5F, -2.5F, 0.0F, -kDenorm, kNan, kDenorm, kInf, -kInf};
  constexpr std::int64_t kN = 37;
  std::vector<float> in(kN), grad(kN), want(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    in[i] = specials[i % 9];
    // Negative values and NaNs with distinct payloads, so a pass-through
    // is checked bit for bit.
    grad[i] = i % 3 == 0   ? from_bits(0x7fc00000U | static_cast<std::uint32_t>(i + 1))
              : i % 3 == 1 ? -0.25F * static_cast<float>(i + 1)
                           : 0.5F * static_cast<float>(i + 1);
    // Derivative at 0 (either sign) is defined as 0 and written as +0; a
    // positive or NaN input passes the gradient through.
    const bool passes = std::isnan(in[i]) || in[i] > 0.0F;
    want[i] = passes ? grad[i] : 0.0F;
  }

  Relu r;
  r.forward(Tensor::from_values({1, kN}, in), make_ctx(true));
  const Tensor gx = r.backward(Tensor::from_values({1, kN}, grad));
  ASSERT_EQ(gx.size(), kN);
  EXPECT_EQ(std::memcmp(gx.data().data(), want.data(), kN * sizeof(float)), 0);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5F);
  d.set_layer_index(1);
  Tensor x = Tensor::full({2, 4}, 3.0F);
  Tensor y = d.forward(x, make_ctx(false));
  EXPECT_TRUE(y.equals(x));
}

TEST(Dropout, ZeroRateIsIdentity) {
  Dropout d(0.0F);
  d.set_layer_index(1);
  Tensor x = Tensor::full({2, 4}, 3.0F);
  EXPECT_TRUE(d.forward(x, make_ctx(true)).equals(x));
}

TEST(Dropout, InvalidRateThrows) {
  EXPECT_THROW(Dropout(1.0F), VfError);
  EXPECT_THROW(Dropout(-0.1F), VfError);
}

TEST(Dropout, MaskDeterministicInContext) {
  Dropout a(0.5F), b(0.5F);
  a.set_layer_index(3);
  b.set_layer_index(3);
  CounterRng rng(5, 0);
  Tensor x = Tensor::randn({4, 8}, rng);
  Tensor ya = a.forward(x, make_ctx(true, 7, 2));
  Tensor yb = b.forward(x, make_ctx(true, 7, 2));
  EXPECT_TRUE(ya.equals(yb));
}

TEST(Dropout, MaskVariesWithStepVnAndLayer) {
  Dropout d(0.5F);
  d.set_layer_index(3);
  Tensor x = Tensor::full({1, 64}, 1.0F);
  Tensor base = d.forward(x, make_ctx(true, 7, 2));
  EXPECT_FALSE(d.forward(x, make_ctx(true, 8, 2)).equals(base)) << "step must vary mask";
  EXPECT_FALSE(d.forward(x, make_ctx(true, 7, 3)).equals(base)) << "vn must vary mask";
  Dropout other(0.5F);
  other.set_layer_index(4);
  EXPECT_FALSE(other.forward(x, make_ctx(true, 7, 2)).equals(base))
      << "layer index must vary mask";
}

TEST(Dropout, InvertedScalingPreservesExpectation) {
  Dropout d(0.25F);
  d.set_layer_index(1);
  Tensor x = Tensor::full({100, 100}, 1.0F);
  Tensor y = d.forward(x, make_ctx(true));
  EXPECT_NEAR(y.mean(), 1.0F, 0.02F);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  BatchNorm1d bn(2);
  bn.set_layer_index(0);
  VnState state;
  Tensor x = Tensor::from_values({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor y = bn.forward(x, make_ctx(true, 0, 0, &state));
  // Column means ~0, variance ~1 after normalization (gamma=1, beta=0).
  float mean0 = 0.0F, var0 = 0.0F;
  for (std::int64_t i = 0; i < 4; ++i) mean0 += y.at(i, 0);
  mean0 /= 4.0F;
  for (std::int64_t i = 0; i < 4; ++i) var0 += (y.at(i, 0) - mean0) * (y.at(i, 0) - mean0);
  var0 /= 4.0F;
  EXPECT_NEAR(mean0, 0.0F, 1e-5F);
  EXPECT_NEAR(var0, 1.0F, 1e-3F);
}

TEST(BatchNorm, UpdatesMovingStatsInVnState) {
  BatchNorm1d bn(1);
  bn.set_layer_index(5);
  VnState state;
  Tensor x = Tensor::full({4, 1}, 10.0F);
  bn.forward(x, make_ctx(true, 0, 0, &state));
  ASSERT_TRUE(state.has(bn.mean_key()));
  // momentum 0.9: mean = 0.9*0 + 0.1*10 = 1.
  EXPECT_NEAR(state.get(bn.mean_key()).at(0), 1.0F, 1e-5F);
}

TEST(BatchNorm, EvalUsesMovingStats) {
  BatchNorm1d bn(1);
  bn.set_layer_index(5);
  VnState state;
  state.put(bn.mean_key(), Tensor::full({1}, 4.0F));
  state.put(bn.var_key(), Tensor::full({1}, 1.0F));
  Tensor x = Tensor::full({2, 1}, 5.0F);
  Tensor y = bn.forward(x, make_ctx(false, 0, 0, &state));
  EXPECT_NEAR(y.at(0, 0), 1.0F, 1e-3F);  // (5-4)/sqrt(1+eps)
}

TEST(BatchNorm, EvalWithoutStateFallsBackToIdentityStats) {
  // The "reset stateful kernels" failure mode: mean 0 / var 1.
  BatchNorm1d bn(1);
  bn.set_layer_index(5);
  Tensor x = Tensor::full({2, 1}, 3.0F);
  Tensor y = bn.forward(x, make_ctx(false, 0, 0, nullptr));
  EXPECT_NEAR(y.at(0, 0), 3.0F, 1e-3F);
}

TEST(BatchNorm, DistinctLayersUseDistinctKeys) {
  BatchNorm1d a(1), b(1);
  a.set_layer_index(1);
  b.set_layer_index(2);
  EXPECT_NE(a.mean_key(), b.mean_key());
  EXPECT_NE(a.var_key(), b.var_key());
}

TEST(Layers, CloneIsDeep) {
  CounterRng rng(6, 0);
  Dense d(2, 2, rng);
  auto c = d.clone();
  d.params()[0]->fill(9.0F);
  auto* cd = dynamic_cast<Dense*>(c.get());
  ASSERT_NE(cd, nullptr);
  EXPECT_NE(cd->params()[0]->at(0), 9.0F);
}

// ------------------------------------ eval forward before a backward

/// Input gradient and parameter gradients of one training forward and
/// backward on a fresh clone of `proto`, with an eval-mode forward of
/// `eval_x` in between when it is given.
struct PassGrads {
  Tensor grad_in;
  std::vector<Tensor> params;
};

PassGrads train_pass(const Layer& proto, const Tensor& x, const Tensor* eval_x) {
  const std::unique_ptr<Layer> layer = proto.clone();
  VnState state;
  const ExecContext train = make_ctx(true, 3, 0, &state);
  Tensor y;
  layer->forward_into(x, y, train);
  if (eval_x != nullptr) {
    // Same instance, VN and state, as infer() on lane 0's model.
    ExecContext eval = train;
    eval.training = false;
    Tensor y_eval;
    layer->forward_into(*eval_x, y_eval, eval);
  }
  CounterRng grng(9, 1);
  const Tensor g = Tensor::randn(y.shape(), grng);
  layer->zero_grad();
  PassGrads out;
  layer->backward_into(g, out.grad_in);
  for (Tensor* p : layer->grads()) out.params.push_back(*p);
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

TEST(Layers, EvalForwardBeforeBackwardKeepsEveryGradientBit) {
  // Layer's contract: eval-mode forwards between a training forward and
  // its backward write no cache that backward reads, though they run
  // through the same instance scratch. An 8-row training batch, a 3-row
  // eval batch that reads the moving statistics the training pass just
  // wrote, then backward: every gradient must match an uninterrupted pass
  // bit for bit.
  CounterRng rng(12, 0);
  const Tensor x = Tensor::randn({8, 4}, rng);
  const Tensor x_eval = Tensor::randn({3, 4}, rng);
  Dense dense(4, 4, rng);
  Relu relu;
  Dropout dropout(0.5F);
  dropout.set_layer_index(1);
  BatchNorm1d bn(4);
  bn.set_layer_index(2);
  Sequential stack;
  stack.add(std::make_unique<Dense>(4, 6, rng));
  stack.add(std::make_unique<BatchNorm1d>(6));
  stack.add(std::make_unique<Relu>());
  stack.add(std::make_unique<Dropout>(0.25F));
  stack.add(std::make_unique<Dense>(6, 3, rng));

  const std::pair<const char*, const Layer*> cases[] = {
      {"dense", &dense}, {"relu", &relu}, {"dropout", &dropout},
      {"batch_norm", &bn}, {"sequential", &stack}};
  for (const auto& [name, layer] : cases) {
    SCOPED_TRACE(name);
    const PassGrads plain = train_pass(*layer, x, nullptr);
    const PassGrads interleaved = train_pass(*layer, x, &x_eval);
    EXPECT_TRUE(same_bits(plain.grad_in, interleaved.grad_in))
        << "grad_in max diff " << plain.grad_in.max_abs_diff(interleaved.grad_in);
    ASSERT_EQ(plain.params.size(), interleaved.params.size());
    for (std::size_t i = 0; i < plain.params.size(); ++i)
      EXPECT_TRUE(same_bits(plain.params[i], interleaved.params[i])) << "param grad " << i;
  }
}

TEST(BatchNorm, TrainingPassIsBitIdenticalInEveryKernelTier) {
  // BatchNorm1d takes its moments and backward sums from
  // kernels::column_sums and kernels::mul, so no kernel tier may move a
  // bit of its training forward, moving statistics or backward: on the
  // per-VN batches of both training workloads (256 and 8 rows of 64
  // features), a ragged shape that reaches the kernels' masked column
  // tail, and a one-row batch.
  const KernelMode saved = TensorConfig::kernel_mode();
  for (const auto& [rows, cols] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {256, 64}, {8, 64}, {7, 33}, {1, 64}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    CounterRng rng(21, static_cast<std::uint64_t>(rows * 100 + cols));
    const Tensor x = Tensor::randn({rows, cols}, rng);
    const Tensor g = Tensor::randn({rows, cols}, rng);
    const Tensor gamma = Tensor::randn({cols}, rng);
    const Tensor beta = Tensor::randn({cols}, rng);
    // y, grad_in, moving mean, moving variance, dgamma, dbeta.
    auto pass = [&](KernelMode mode) {
      TensorConfig::set_kernel_mode(mode);
      BatchNorm1d bn(cols);
      bn.set_layer_index(1);
      *bn.params()[0] = gamma;
      *bn.params()[1] = beta;
      VnState state;
      std::vector<Tensor> out(2);
      bn.forward_into(x, out[0], make_ctx(true, 0, 0, &state));
      bn.backward_into(g, out[1]);
      out.push_back(state.get(bn.mean_key()));
      out.push_back(state.get(bn.var_key()));
      for (Tensor* t : bn.grads()) out.push_back(*t);
      return out;
    };
    const std::vector<Tensor> ref = pass(KernelMode::kReference);
    const std::vector<Tensor> got = pass(KernelMode::kSimd);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_TRUE(same_bits(ref[i], got[i])) << "simd output " << i;
  }
  TensorConfig::set_kernel_mode(saved);
}

}  // namespace
}  // namespace vf
