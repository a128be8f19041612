// Concrete layers: Dense, ReLU, Dropout, BatchNorm1d.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace vf {

/// Fully connected layer: y = x @ W + b, with W of shape [in, out].
class Dense : public Layer {
 public:
  /// Weights use scaled-Gaussian (He-style) init keyed by `rng`.
  Dense(std::int64_t in_dim, std::int64_t out_dim, CounterRng& rng);

  void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<const Tensor*> params() const override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Dense>(*this); }
  std::string name() const override { return "dense"; }

  std::int64_t in_dim() const { return w_.rows(); }
  std::int64_t out_dim() const { return w_.cols(); }

 private:
  Tensor w_, b_, dw_, db_;
  Tensor cached_input_;
  // Workspace stash from the last forward (gradient temporaries live
  // there); the member tensors are the ws-less fallback.
  Workspace* bw_ws_ = nullptr;
  std::int32_t bw_vn_ = 0;
  Tensor dw_tmp_, db_tmp_;
};

/// Rectified linear unit.
class Relu : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Relu>(*this); }
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

/// Inverted dropout. The mask for a given (step, vn_id) pair is a pure
/// function of the experiment seed and the layer index, so remapping VNs
/// across devices cannot change which units are dropped.
class Dropout : public Layer {
 public:
  explicit Dropout(float rate);

  void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Dropout>(*this); }
  std::string name() const override { return "dropout"; }

  float rate() const { return rate_; }

 private:
  float rate_;
  Tensor cached_mask_;
};

/// 1-D batch normalization over the batch dimension.
///
/// gamma/beta are trainable parameters synchronized like any other; the
/// moving mean/variance are *stateful kernels* stored per virtual node in
/// the VnState (see nn/state.h and paper §4.1). During training the batch
/// statistics of the VN's own micro-batch are used (and the moving stats
/// updated); during inference the moving stats are read from the VnState.
class BatchNorm1d : public Layer {
 public:
  explicit BatchNorm1d(std::int64_t dim, float momentum = 0.9F, float eps = 1e-5F);

  void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<const Tensor*> params() const override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&dgamma_, &dbeta_}; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<BatchNorm1d>(*this); }
  std::string name() const override { return "batch_norm"; }
  void set_layer_index(std::int32_t idx) override;

  /// VnState keys used by this layer instance.
  const std::string& mean_key() const { return mean_key_; }
  const std::string& var_key() const { return var_key_; }

  std::int64_t dim() const { return gamma_.size(); }

 private:
  float momentum_, eps_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  // VnState keys, derived from the layer index once (hot-path strings).
  std::string mean_key_, var_key_, var_init_key_;
  // Backward-pass caches and per-forward scratch (reused across steps).
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  std::vector<float> mean_scratch_, var_scratch_;
};

}  // namespace vf
