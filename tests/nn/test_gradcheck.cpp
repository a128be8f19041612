// Finite-difference gradient checks for every layer's backward pass and
// for the softmax cross-entropy loss. These are the tests that make the
// convergence experiments trustworthy: if backward() is right, training
// results are real SGD, not an artifact.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model.h"

namespace vf {
namespace {

ExecContext train_ctx(VnState* state = nullptr) {
  ExecContext ctx;
  ctx.seed = 42;
  ctx.step = 3;
  ctx.vn_id = 1;
  ctx.training = true;
  ctx.state = state;
  return ctx;
}

/// Pseudo-loss L(x) = sum(G ⊙ layer(x)) with fixed G; compares analytic
/// dL/dx (and dL/dparams) against central differences.
void check_layer_gradients(Layer& layer, const Tensor& x0, float eps, float tol) {
  VnState state;
  ExecContext ctx = train_ctx(&state);

  CounterRng grng(7, 99);
  Tensor x = x0;
  Tensor y = layer.forward(x, ctx);
  Tensor g = Tensor::randn(y.shape(), grng);

  layer.zero_grad();
  Tensor gx = layer.backward(g);

  auto loss_at = [&](const Tensor& xin) -> double {
    // Fresh state copy so batch-norm moving averages don't drift between
    // probes (the probe uses training-mode batch statistics, which are a
    // pure function of the input).
    VnState probe_state = state;
    ExecContext pctx = train_ctx(&probe_state);
    Tensor out = layer.forward(xin, pctx);
    double l = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i)
      l += static_cast<double>(g.at(i)) * static_cast<double>(out.at(i));
    return l;
  };

  // Input gradients.
  for (std::int64_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp.at(i) += eps;
    xm.at(i) -= eps;
    const double num = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(gx.at(i), num, tol) << "input grad " << i;
  }

  // Parameter gradients.
  const auto params = layer.params();
  const auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::int64_t i = 0; i < params[p]->size(); ++i) {
      const float orig = params[p]->at(i);
      params[p]->at(i) = orig + eps;
      const double lp = loss_at(x);
      params[p]->at(i) = orig - eps;
      const double lm = loss_at(x);
      params[p]->at(i) = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->at(i), num, tol) << "param " << p << " grad " << i;
    }
  }
}

TEST(GradCheck, Dense) {
  CounterRng rng(1, 0);
  Dense layer(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  check_layer_gradients(layer, x, 1e-2F, 2e-2F);
}

TEST(GradCheck, Relu) {
  CounterRng rng(2, 0);
  Relu layer;
  // Keep probe points away from the kink at 0.
  Tensor x = Tensor::randn({4, 6}, rng);
  for (float& v : x.data())
    if (std::fabs(v) < 0.05F) v = 0.2F;
  check_layer_gradients(layer, x, 1e-2F, 1e-2F);
}

TEST(GradCheck, Dropout) {
  CounterRng rng(4, 0);
  Dropout layer(0.4F);
  layer.set_layer_index(2);
  Tensor x = Tensor::randn({4, 6}, rng);
  // The mask is deterministic in (seed, layer, step, vn), so the pseudo-
  // loss is differentiable with a fixed context.
  check_layer_gradients(layer, x, 1e-2F, 1e-2F);
}

TEST(GradCheck, BatchNorm) {
  CounterRng rng(5, 0);
  BatchNorm1d layer(3);
  layer.set_layer_index(1);
  Tensor x = Tensor::randn({6, 3}, rng);
  check_layer_gradients(layer, x, 1e-2F, 3e-2F);
}

TEST(GradCheck, BatchNormWithScaleShift) {
  CounterRng rng(6, 0);
  BatchNorm1d layer(4);
  layer.set_layer_index(1);
  // Non-trivial gamma/beta to exercise those paths in backward.
  for (std::int64_t i = 0; i < 4; ++i) {
    layer.params()[0]->at(i) = 0.5F + 0.3F * static_cast<float>(i);
    layer.params()[1]->at(i) = -0.2F * static_cast<float>(i);
  }
  Tensor x = Tensor::randn({8, 4}, rng);
  check_layer_gradients(layer, x, 1e-2F, 3e-2F);
}

TEST(GradCheck, SequentialStack) {
  CounterRng rng(7, 0);
  Sequential model;
  model.add(std::make_unique<Dense>(4, 8, rng));
  // Batch norm is the smooth nonlinearity among the layers (ReLU's kink
  // would break central differences at a hidden pre-activation near 0).
  model.add(std::make_unique<BatchNorm1d>(8));
  model.add(std::make_unique<Dense>(8, 3, rng));
  Tensor x = Tensor::randn({3, 4}, rng);
  check_layer_gradients(model, x, 1e-2F, 3e-2F);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  CounterRng rng(9, 0);
  Tensor logits = Tensor::randn({5, 4}, rng);
  std::vector<std::int64_t> labels = {0, 3, 1, 2, 2};
  auto cross_entropy = [&labels](const Tensor& l) {
    LossResult out;
    softmax_cross_entropy_into(l, labels, out);
    return out;
  };
  const LossResult res = cross_entropy(logits);

  const float eps = 1e-2F;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp.at(i) += eps;
    lm.at(i) -= eps;
    const double num =
        (cross_entropy(lp).loss_sum - cross_entropy(lm).loss_sum) / (2.0 * eps);
    EXPECT_NEAR(res.grad_logits.at(i), num, 1e-2) << "logit grad " << i;
  }
}

}  // namespace
}  // namespace vf
