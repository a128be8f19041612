#include "nn/optimizer.h"

#include <cmath>

#include "util/common.h"

namespace vf {

std::int64_t Optimizer::slot_bytes() const {
  std::int64_t n = 0;
  for (const Tensor& s : slots_) n += s.size() * static_cast<std::int64_t>(sizeof(float));
  return n;
}

void Optimizer::ensure_slots(Sequential& model, std::size_t per_param) {
  const auto params = model.params();
  const std::size_t want = params.size() * per_param;
  if (slots_.size() == want) return;
  check(slots_.empty(), "optimizer slot layout changed mid-training");
  slots_.reserve(want);
  for (std::size_t rep = 0; rep < per_param; ++rep) {
    for (const Tensor* p : params) slots_.emplace_back(p->shape());
  }
}

// ------------------------------------------------------------------ Sgd

Sgd::Sgd(float momentum, float weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {
  check(momentum >= 0.0F && momentum < 1.0F, "momentum must be in [0, 1)");
  check(weight_decay >= 0.0F, "weight decay must be non-negative");
}

void Sgd::apply(Sequential& model, float lr) {
  const auto params = model.params();
  const auto grads = model.grads();
  check(params.size() == grads.size(), "params/grads mismatch");

  if (momentum_ == 0.0F) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      float* p = params[i]->data().data();
      const float* g = grads[i]->data().data();
      const std::int64_t n = params[i]->size();
      for (std::int64_t k = 0; k < n; ++k) {
        const float gk = g[k] + weight_decay_ * p[k];
        p[k] -= lr * gk;
      }
    }
    return;
  }

  ensure_slots(model, 1);
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data().data();
    const float* g = grads[i]->data().data();
    float* v = slots_[i].data().data();
    const std::int64_t n = params[i]->size();
    for (std::int64_t k = 0; k < n; ++k) {
      const float gk = g[k] + weight_decay_ * p[k];
      v[k] = momentum_ * v[k] + gk;
      p[k] -= lr * v[k];
    }
  }
}

// ----------------------------------------------------------------- Adam

Adam::Adam(float beta1, float beta2, float eps, float weight_decay)
    : beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {
  check(beta1 > 0.0F && beta1 < 1.0F, "beta1 must be in (0, 1)");
  check(beta2 > 0.0F && beta2 < 1.0F, "beta2 must be in (0, 1)");
}

void Adam::apply(Sequential& model, float lr) {
  const auto params = model.params();
  const auto grads = model.grads();
  check(params.size() == grads.size(), "params/grads mismatch");

  ensure_slots(model, 2);  // first half: m, second half: v
  ++t_;
  const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));

  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data().data();
    const float* g = grads[i]->data().data();
    float* m = slots_[i].data().data();
    float* v = slots_[params.size() + i].data().data();
    const std::int64_t n = params[i]->size();
    for (std::int64_t k = 0; k < n; ++k) {
      const float gk = g[k] + weight_decay_ * p[k];
      m[k] = beta1_ * m[k] + (1.0F - beta1_) * gk;
      v[k] = beta2_ * v[k] + (1.0F - beta2_) * gk * gk;
      const float mhat = m[k] / bc1;
      const float vhat = v[k] / bc2;
      p[k] -= lr * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace vf
