// Layer abstraction for the trainable neural-network substrate.
//
// Layers are deliberately deterministic: any randomness (dropout masks) is
// keyed by (experiment seed, layer index, step, virtual-node id), never by
// call order, so that the same logical computation yields bit-identical
// results regardless of which device executes it.
//
// The primitive operations are the `_into` forms: they write the result
// into a caller-owned tensor, and each layer instance keeps its own
// intermediates and gradient temporaries, reused pass after pass. The
// engine gives each host lane one model and runs that lane's virtual
// nodes one at a time, so this per-instance scratch is per-lane scratch
// and a warmed-up training step performs zero tensor heap allocations.
// The by-value forward()/backward() are thin convenience wrappers that
// only tests call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/state.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace vf {

/// Execution context threaded through forward passes. Identifies *which*
/// logical computation this is (step + virtual node) and where stateful
/// kernels should read/write their per-VN state.
struct ExecContext {
  std::uint64_t seed = 0;     ///< experiment seed (keys dropout masks)
  std::int64_t step = 0;      ///< global training step
  std::int32_t vn_id = 0;     ///< virtual node id executing this pass
  bool training = true;       ///< training vs inference mode
  VnState* state = nullptr;   ///< per-VN stateful-kernel storage (may be null)
  /// Read by no layer: layers keep their scratch per instance. Kept only
  /// because vfbench's phase replay (benchmark/src/train.cpp) sets it.
  Workspace* ws = nullptr;
};

/// Base class for all layers. A layer caches whatever it needs during
/// forward_into() so that the next backward_into() can produce input
/// gradients and accumulate parameter gradients.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;

  /// Computes the layer output into `y` (reshaped via ensure_shape and
  /// fully overwritten). `y` must not alias `x`.
  virtual void forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) = 0;

  /// Consumes d(loss)/d(output), writes d(loss)/d(input) into `grad_in`
  /// (must not alias `grad_out`), and adds parameter gradients into the
  /// tensors returned by grads(). Must follow a training-mode
  /// forward_into() on the same instance: backward reuses that forward's
  /// caches (eval-mode forwards in between are fine: they write no cache
  /// that backward reads).
  virtual void backward_into(const Tensor& grad_out, Tensor& grad_in) = 0;

  /// Convenience by-value wrappers over the `_into` primitives.
  Tensor forward(const Tensor& x, const ExecContext& ctx);
  Tensor backward(const Tensor& grad_out);

  /// Trainable parameters (paired 1:1 with grads()).
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<const Tensor*> params() const { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Zeroes accumulated parameter gradients.
  void zero_grad();

  /// Deep copy (Sequential's copy uses it; the engine copies its model
  /// once per host lane).
  virtual std::unique_ptr<Layer> clone() const = 0;

  virtual std::string name() const = 0;

  /// Total trainable scalar count.
  std::int64_t param_count() const;

  /// Set by Sequential when the layer is added; gives stateful/random
  /// layers a stable identity within the model. Sequential overrides this
  /// to re-key its children into a disjoint index range.
  virtual void set_layer_index(std::int32_t idx) { layer_index_ = idx; }
  std::int32_t layer_index() const { return layer_index_; }

 protected:
  std::int32_t layer_index_ = -1;
};

}  // namespace vf
