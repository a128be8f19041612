#include "nn/layers.h"

#include <cmath>

#include "tensor/kernels.h"
#include "util/common.h"

namespace vf {

Tensor Layer::forward(const Tensor& x, const ExecContext& ctx) {
  Tensor y;
  forward_into(x, y, ctx);
  return y;
}

Tensor Layer::backward(const Tensor& grad_out) {
  Tensor gx;
  backward_into(grad_out, gx);
  return gx;
}

void Layer::zero_grad() {
  for (Tensor* g : grads()) g->fill(0.0F);
}

std::int64_t Layer::param_count() const {
  std::int64_t n = 0;
  for (const Tensor* p : params()) n += p->size();
  return n;
}

// ---------------------------------------------------------------- Dense

Dense::Dense(std::int64_t in_dim, std::int64_t out_dim, CounterRng& rng)
    : w_(Tensor::randn({in_dim, out_dim}, rng,
                       std::sqrt(2.0F / static_cast<float>(in_dim)))),
      b_(Tensor({out_dim})),
      dw_(Tensor({in_dim, out_dim})),
      db_(Tensor({out_dim})) {
  check(in_dim > 0 && out_dim > 0, "Dense dimensions must be positive");
}

void Dense::forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) {
  check(x.rank() == 2 && x.cols() == w_.rows(), "Dense: input shape mismatch");
  // The backward stash tracks the *training* forward it serves (an eval
  // forward between a training forward and its backward — evaluate() and
  // infer() run on lane 0's model, which also trains — must not redirect
  // backward's scratch to another VN's slots).
  if (ctx.training) {
    cached_input_ = x;
    bw_ws_ = ctx.ws;
    bw_vn_ = ctx.vn_id;
  }
  x.matmul_into(w_, y);
  const std::int64_t n = y.rows(), d = y.cols();
  const float* b = b_.data().data();
  float* yp = y.data().data();
  for (std::int64_t i = 0; i < n; ++i, yp += d)
    for (std::int64_t j = 0; j < d; ++j) yp[j] += b[j];
}

void Dense::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  check(!cached_input_.empty(), "Dense::backward before forward");
  // Parameter gradients are formed in a zero-based temporary and then
  // added, so accumulation across multiple backwards (gradient
  // accumulation, pipelining) keeps the historical addition order.
  Tensor& dw_tmp = bw_ws_ != nullptr ? bw_ws_->acquire(bw_vn_, ws_tag(0)) : dw_tmp_;
  Tensor& db_tmp = bw_ws_ != nullptr ? bw_ws_->acquire(bw_vn_, ws_tag(1)) : db_tmp_;
  cached_input_.matmul_transpose_lhs_into(grad_out, dw_tmp);
  dw_.add_(dw_tmp);
  grad_out.column_sums_into(db_tmp);
  db_.add_(db_tmp);
  grad_out.matmul_transpose_rhs_into(w_, grad_in);
}

// ----------------------------------------------------------------- Relu

void Relu::forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) {
  check(&y != &x, "Relu: y must not alias x");
  if (ctx.training) cached_input_ = x;
  y.ensure_shape(x.shape());
  const float* in = x.data().data();
  float* out = y.data().data();
  const std::size_t n = x.data().size();
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] < 0.0F ? 0.0F : in[i];
}

void Relu::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  check(!cached_input_.empty(), "Relu::backward before forward");
  check_same_shape(grad_out, cached_input_, "Relu::backward");
  check(&grad_in != &grad_out, "Relu: grad_in must not alias grad_out");
  grad_in.ensure_shape(grad_out.shape());
  const float* in = cached_input_.data().data();
  const float* g = grad_out.data().data();
  float* gx = grad_in.data().data();
  const std::size_t n = grad_out.data().size();
  // Loading g[i] unconditionally lets the compiler vectorize the select
  // (compare + mask) instead of branching per element; same bits.
  for (std::size_t i = 0; i < n; ++i) {
    const float gv = g[i];
    gx[i] = in[i] <= 0.0F ? 0.0F : gv;
  }
}

// -------------------------------------------------------------- Dropout

Dropout::Dropout(float rate) : rate_(rate) {
  check(rate >= 0.0F && rate < 1.0F, "dropout rate must be in [0, 1)");
}

void Dropout::forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) {
  check(&y != &x, "Dropout: y must not alias x");
  if (!ctx.training || rate_ == 0.0F) {
    y = x;
    return;
  }
  // Mask stream keyed purely by logical identifiers -> mapping-invariant.
  const std::uint64_t stream =
      derive_seed(static_cast<std::uint64_t>(layer_index_) + 1,
                  (static_cast<std::uint64_t>(ctx.step) << 20) ^
                      static_cast<std::uint64_t>(ctx.vn_id));
  CounterRng rng(ctx.seed, stream);
  cached_mask_.ensure_shape(x.shape());
  const float keep = 1.0F - rate_;
  float* m = cached_mask_.data().data();
  const std::size_t n = cached_mask_.data().size();
  for (std::size_t i = 0; i < n; ++i)
    m[i] = rng.next_double() < keep ? 1.0F / keep : 0.0F;
  x.mul_into(cached_mask_, y);
}

void Dropout::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (cached_mask_.empty()) {  // eval mode or rate 0
    grad_in = grad_out;
    return;
  }
  grad_out.mul_into(cached_mask_, grad_in);
}

// ---------------------------------------------------------- BatchNorm1d

BatchNorm1d::BatchNorm1d(std::int64_t dim, float momentum, float eps)
    : momentum_(momentum),
      eps_(eps),
      gamma_(Tensor({dim})),
      beta_(Tensor({dim})),
      dgamma_(Tensor({dim})),
      dbeta_(Tensor({dim})) {
  check(dim > 0, "BatchNorm1d dim must be positive");
  check(momentum > 0.0F && momentum < 1.0F, "BatchNorm1d momentum must be in (0, 1)");
  gamma_.fill(1.0F);
  set_layer_index(layer_index_);  // derive keys for the default index too
}

void BatchNorm1d::set_layer_index(std::int32_t idx) {
  layer_index_ = idx;
  const std::string base = "bn" + std::to_string(layer_index_);
  mean_key_ = base + "/moving_mean";
  var_key_ = base + "/moving_var";
  var_init_key_ = var_key_ + "/init";
}

void BatchNorm1d::forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) {
  check(&y != &x, "BatchNorm1d: y must not alias x");
  const std::int64_t n = x.rows(), d = x.cols();
  check(d == dim(), "BatchNorm1d: feature dim mismatch");

  mean_scratch_.resize(static_cast<std::size_t>(d));
  var_scratch_.resize(static_cast<std::size_t>(d));
  float* mean = mean_scratch_.data();
  float* var = var_scratch_.data();
  const float* xp = x.data().data();
  y.ensure_shape({n, d});
  if (ctx.training) cached_xhat_.ensure_shape({n, d});

  if (ctx.training) {
    check(n > 0, "BatchNorm1d training forward needs a non-empty batch");
    // Two-pass moments through the kernel layer: kernels::column_sums
    // builds each column's sum over rows in ascending order from +0, and
    // kernels::mul rounds each c * c to float before that sum adds it —
    // the chains of the row-major loops `mean[j] += x[i][j]` and
    // `var[j] += c * c` exactly, in every kernel tier. The centered
    // values stage in y and their squares in the xhat cache; the
    // normalize pass below overwrites both.
    const KernelMode mode = TensorConfig::kernel_mode();
    kernels::column_sums(xp, mean, n, d, mode);
    for (std::int64_t j = 0; j < d; ++j) mean[j] /= static_cast<float>(n);
    float* centered = y.data().data();
    const float* p = xp;
    for (std::int64_t i = 0; i < n; ++i, p += d)
      for (std::int64_t j = 0; j < d; ++j) centered[i * d + j] = p[j] - mean[j];
    float* squares = cached_xhat_.data().data();
    kernels::mul(centered, centered, squares, n * d, mode);
    kernels::column_sums(squares, var, n, d, mode);
    for (std::int64_t j = 0; j < d; ++j) var[j] /= static_cast<float>(n);
    if (ctx.state != nullptr) {
      // Moving stats live in the *virtual node's* state, initialized to
      // mean 0 / var 1 on first touch.
      Tensor& mm = ctx.state->slot(mean_key_, {d});
      Tensor& mv = ctx.state->slot(var_key_, {d});
      if (!ctx.state->has(var_init_key_)) {
        mv.fill(1.0F);
        ctx.state->slot(var_init_key_, {1}).fill(1.0F);
      }
      float* mmp = mm.data().data();
      float* mvp = mv.data().data();
      for (std::int64_t j = 0; j < d; ++j) {
        mmp[j] = momentum_ * mmp[j] + (1.0F - momentum_) * mean[j];
        mvp[j] = momentum_ * mvp[j] + (1.0F - momentum_) * var[j];
      }
    }
  } else {
    // Inference: use the VN's moving statistics (mean 0 / var 1 if absent:
    // a VN that has not trained yet, such as a new id after a reconfigure).
    for (std::int64_t j = 0; j < d; ++j) {
      mean[j] = 0.0F;
      var[j] = 1.0F;
    }
    if (ctx.state != nullptr && ctx.state->has(mean_key_)) {
      const Tensor& mm = ctx.state->get(mean_key_);
      const Tensor& mv = ctx.state->get(var_key_);
      const float* mmp = mm.data().data();
      const float* mvp = mv.data().data();
      for (std::int64_t j = 0; j < d; ++j) {
        mean[j] = mmp[j];
        var[j] = mvp[j];
      }
    }
  }

  // Only a training forward writes backward's cache. An eval forward
  // overwrites its own variances in place (dead after this), so an eval
  // pass between a training forward and its backward leaves the cache as
  // that backward expects it.
  float* inv_std = var;
  if (ctx.training) {
    cached_inv_std_.assign(static_cast<std::size_t>(d), 0.0F);
    inv_std = cached_inv_std_.data();
  }
  for (std::int64_t j = 0; j < d; ++j) inv_std[j] = 1.0F / std::sqrt(var[j] + eps_);
  const float* gp = gamma_.data().data();
  const float* bp = beta_.data().data();
  float* yp = y.data().data();
  float* xh = ctx.training ? cached_xhat_.data().data() : nullptr;
  const float* p = xp;
  for (std::int64_t i = 0; i < n; ++i, p += d, yp += d) {
    for (std::int64_t j = 0; j < d; ++j) {
      const float xhat = (p[j] - mean[j]) * inv_std[j];
      if (xh != nullptr) xh[i * d + j] = xhat;
      yp[j] = gp[j] * xhat + bp[j];
    }
  }
}

void BatchNorm1d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  check(!cached_xhat_.empty(), "BatchNorm1d::backward before training forward");
  const std::int64_t n = grad_out.rows(), d = grad_out.cols();
  check_same_shape(grad_out, cached_xhat_, "BatchNorm1d::backward");
  check(&grad_in != &grad_out, "BatchNorm1d: grad_in must not alias grad_out");

  grad_in.ensure_shape({n, d});
  // Per-column sums of g and of g * xhat through the kernel layer:
  // kernels::column_sums runs each column's chain over rows in ascending
  // order from +0, and kernels::mul rounds each product to float before
  // it is added — the chains of the row-major loops `sum_g[j] += g` and
  // `sum_gx[j] += g * xhat` exactly, in every kernel tier. The products
  // stage in grad_in, which the pass below overwrites; mean/var scratch
  // is dead after forward, so it holds the two sum vectors.
  mean_scratch_.resize(static_cast<std::size_t>(d));
  var_scratch_.resize(static_cast<std::size_t>(d));
  float* sum_g = mean_scratch_.data();
  float* sum_gx = var_scratch_.data();
  const float* g = grad_out.data().data();
  const float* xh = cached_xhat_.data().data();
  const KernelMode mode = TensorConfig::kernel_mode();
  kernels::column_sums(g, sum_g, n, d, mode);
  kernels::mul(g, xh, grad_in.data().data(), n * d, mode);
  kernels::column_sums(grad_in.data().data(), sum_gx, n, d, mode);
  float* dbp = dbeta_.data().data();
  float* dgp = dgamma_.data().data();
  for (std::int64_t j = 0; j < d; ++j) {
    dbp[j] += sum_g[j];
    dgp[j] += sum_gx[j];
  }
  const float* inv_std = cached_inv_std_.data();
  const float* gp = gamma_.data().data();
  const float inv_n = 1.0F / static_cast<float>(n);
  float* gx = grad_in.data().data();
  const float* gr = g;
  const float* xr = xh;
  for (std::int64_t i = 0; i < n; ++i, gr += d, xr += d, gx += d) {
    for (std::int64_t j = 0; j < d; ++j) {
      gx[j] = gp[j] * inv_std[j] *
              (gr[j] - inv_n * sum_g[j] - xr[j] * inv_n * sum_gx[j]);
    }
  }
}

}  // namespace vf
