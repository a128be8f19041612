#include "nn/loss.h"

#include <cmath>

#include "util/common.h"

namespace vf {

void softmax_cross_entropy_into(const Tensor& logits,
                                const std::vector<std::int64_t>& labels,
                                LossResult& out) {
  check(logits.rank() == 2, "softmax_cross_entropy expects rank-2 logits");
  const std::int64_t n = logits.rows(), c = logits.cols();
  check(static_cast<std::int64_t>(labels.size()) == n,
        "softmax_cross_entropy: label count mismatch");

  out.grad_logits.ensure_shape({n, c});
  out.loss_sum = 0.0;
  out.correct = 0;
  out.count = n;

  const float* lp = logits.data().data();
  float* gp = out.grad_logits.data().data();
  for (std::int64_t i = 0; i < n; ++i, lp += c, gp += c) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    check_index(y, c, "class label");

    // Numerically stable log-softmax.
    float mx = lp[0];
    for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, lp[j]);
    double z = 0.0;
    for (std::int64_t j = 0; j < c; ++j) z += std::exp(static_cast<double>(lp[j] - mx));
    const double log_z = std::log(z) + mx;

    out.loss_sum += log_z - lp[y];

    std::int64_t best = 0;
    float best_v = lp[0];
    for (std::int64_t j = 1; j < c; ++j) {
      if (lp[j] > best_v) {
        best_v = lp[j];
        best = j;
      }
    }
    if (best == y) ++out.correct;

    for (std::int64_t j = 0; j < c; ++j) {
      const double p = std::exp(static_cast<double>(lp[j]) - log_z);
      gp[j] = static_cast<float>(p) - (j == y ? 1.0F : 0.0F);
    }
  }
}

}  // namespace vf
