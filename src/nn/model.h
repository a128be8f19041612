// Sequential model container and parameter flattening.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/layers.h"

namespace vf {

/// A sequential stack of layers. This is VirtualFlow's "model graph": the
/// graph contains *no* hardware configuration — device placement lives
/// entirely in the VnMapping (src/core/mapping.h), which is the point of
/// the paper's decoupling argument.
class Sequential : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; assigns its stable layer index.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Runs the stack through this instance's reusable ping-pong buffers;
  /// only the final layer writes `y`. Zero tensor allocations once warm.
  void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Tensor*> params() override;
  std::vector<const Tensor*> params() const override;
  std::vector<Tensor*> grads() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "sequential"; }

  /// Re-keys children into an index range disjoint from other subtrees so
  /// that dropout streams and batch-norm state keys never collide.
  void set_layer_index(std::int32_t idx) override;

  Layer& layer(std::size_t i);

  /// Copies all parameters into one contiguous vector (used to model the
  /// flat gradient buffer and for all-gather state migration).
  Tensor flatten_params() const;
  /// Copies accumulated gradients into `flat`, reshaped in place so its
  /// buffer is reused (the engine's per-VN gradient-sum slots).
  void flatten_grads_into(Tensor& flat) const;
  /// Loads gradients back from a flat vector in flatten_grads_into() order.
  void load_grads(const Tensor& flat);

  /// Structural description: layer names in order, e.g. "dense-relu-dense".
  std::string describe() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Ping-pong buffers for the pass intermediates (0/1 forward, 2/3
  // backward), reused pass after pass. Not copied by the copy operations
  // — scratch contents are never meaningful.
  Tensor scratch_[4];
};

}  // namespace vf
