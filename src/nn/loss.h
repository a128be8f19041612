// Softmax cross-entropy loss with integer class labels.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace vf {

/// Result of a loss evaluation over one micro-batch.
struct LossResult {
  double loss_sum = 0.0;    ///< summed (not averaged) NLL over the batch
  Tensor grad_logits;       ///< d(sum loss)/d(logits), same shape as logits
  std::int64_t correct = 0; ///< argmax matches label
  std::int64_t count = 0;   ///< number of examples
};

/// Computes softmax cross-entropy over `logits` [n x classes] against
/// `labels` (size n) into `out`. Gradients are w.r.t. the *sum* of
/// per-example losses; the caller divides by the relevant batch size.
/// Keeping sums (rather than means) at this level is what makes the
/// weighted heterogeneous gradient synchronization (§5.2) exact:
/// sum(all) / B is independent of how examples were partitioned.
/// Allocation-free: scalars are reset and `out.grad_logits` is reshaped in
/// place (reusing its buffer), so a per-VN LossResult slot can be recycled
/// step after step.
void softmax_cross_entropy_into(const Tensor& logits,
                                const std::vector<std::int64_t>& labels,
                                LossResult& out);

}  // namespace vf
