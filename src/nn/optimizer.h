// Optimizers. Slots (momentum buffers, Adam moments) are exposed so the
// elastic controller can migrate them alongside model parameters — a new
// worker bootstrapped without optimizer slots would silently restart
// momentum from zero, which is exactly the class of hidden state the paper
// warns about in §4.1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.h"

namespace vf {

/// Base optimizer interface. `apply` consumes the gradients currently
/// accumulated in the model (already averaged over the global batch) and
/// updates parameters in place.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  Optimizer() = default;
  Optimizer(const Optimizer&) = default;
  Optimizer& operator=(const Optimizer&) = default;

  virtual void apply(Sequential& model, float lr) = 0;
  virtual std::unique_ptr<Optimizer> clone() const = 0;
  virtual std::string name() const = 0;

  /// Flattened view of all optimizer slots (for state migration).
  const std::vector<Tensor>& slots() const { return slots_; }

  /// Total slot bytes (migration-cost accounting).
  std::int64_t slot_bytes() const;

 protected:
  /// Lazily sizes `slots_` to match the model's parameter list.
  void ensure_slots(Sequential& model, std::size_t per_param);

  std::vector<Tensor> slots_;
};

/// SGD with optional momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(float momentum = 0.0F, float weight_decay = 0.0F);

  void apply(Sequential& model, float lr) override;
  std::unique_ptr<Optimizer> clone() const override { return std::make_unique<Sgd>(*this); }
  std::string name() const override { return "sgd"; }

  float momentum() const { return momentum_; }

 private:
  float momentum_, weight_decay_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(float beta1 = 0.9F, float beta2 = 0.999F, float eps = 1e-8F,
                float weight_decay = 0.0F);

  void apply(Sequential& model, float lr) override;
  std::unique_ptr<Optimizer> clone() const override { return std::make_unique<Adam>(*this); }
  std::string name() const override { return "adam"; }

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
};

}  // namespace vf
