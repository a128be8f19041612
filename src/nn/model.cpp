#include "nn/model.h"

#include <algorithm>

#include "util/common.h"

namespace vf {

Sequential::Sequential(const Sequential& other) { *this = other; }

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  layer_index_ = other.layer_index_;
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  check(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  set_layer_index(layer_index_);  // re-key all children deterministically
  return *this;
}

void Sequential::set_layer_index(std::int32_t idx) {
  layer_index_ = idx;
  // Children of the root (-1) get 0, 1, 2, ...; children of a nested
  // composite at index k get (k+1)*1000 + position, keeping subtree index
  // ranges disjoint for realistic model depths.
  const std::int32_t base = (idx + 1) * 1000;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->set_layer_index(base + static_cast<std::int32_t>(i));
  }
}

Tensor& Sequential::pass_buf(Workspace* ws, std::int32_t vn, std::int32_t which) {
  if (ws != nullptr) return ws->acquire(vn, ws_tag(which));
  return scratch_[static_cast<std::size_t>(which)];
}

void Sequential::forward_into(const Tensor& x, Tensor& y, const ExecContext& ctx) {
  check(&y != &x, "Sequential: y must not alias x");
  // Stash the backward arena only for training forwards, so backward
  // always draws scratch from the arena of the forward whose caches it
  // consumes (eval forwards may interleave with a different workspace).
  if (ctx.training) {
    bw_ws_ = ctx.ws;
    bw_vn_ = ctx.vn_id;
  }
  const std::size_t n = layers_.size();
  if (n == 0) {
    y = x;
    return;
  }
  // Intermediates alternate between two reusable buffers; each layer reads
  // one and writes the other (layers never alias input and output), and
  // the last layer writes straight into the caller's tensor.
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor& dst = (i + 1 == n)
                      ? y
                      : pass_buf(ctx.ws, ctx.vn_id, static_cast<std::int32_t>(i & 1));
    layers_[i]->forward_into(*cur, dst, ctx);
    cur = &dst;
  }
}

void Sequential::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  check(&grad_in != &grad_out, "Sequential: grad_in must not alias grad_out");
  const std::size_t n = layers_.size();
  if (n == 0) {
    grad_in = grad_out;
    return;
  }
  const Tensor* cur = &grad_out;
  for (std::size_t done = 0; done < n; ++done) {
    const std::size_t idx = n - 1 - done;
    Tensor& dst = (idx == 0)
                      ? grad_in
                      : pass_buf(bw_ws_, bw_vn_, static_cast<std::int32_t>(2 + (done & 1)));
    layers_[idx]->backward_into(*cur, dst);
    cur = &dst;
  }
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<const Tensor*> Sequential::params() const {
  std::vector<const Tensor*> out;
  for (const auto& l : layers_)
    for (const Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* g : l->grads()) out.push_back(g);
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

Layer& Sequential::layer(std::size_t i) {
  check(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

Tensor Sequential::flatten_params() const {
  std::int64_t total = 0;
  for (const Tensor* p : params()) total += p->size();
  Tensor flat({total});
  std::int64_t off = 0;
  for (const Tensor* p : params()) {
    std::copy(p->data().begin(), p->data().end(), flat.data().begin() + off);
    off += p->size();
  }
  return flat;
}

void Sequential::flatten_grads_into(Tensor& flat) const {
  auto* self = const_cast<Sequential*>(this);
  const auto grads = self->grads();
  std::int64_t total = 0;
  for (Tensor* g : grads) total += g->size();
  flat.ensure_shape({total});
  std::int64_t off = 0;
  for (Tensor* g : grads) {
    std::copy(g->data().begin(), g->data().end(), flat.data().begin() + off);
    off += g->size();
  }
}

void Sequential::load_grads(const Tensor& flat) {
  std::int64_t off = 0;
  for (Tensor* g : grads()) {
    check(off + g->size() <= flat.size(), "load_grads: flat tensor too small");
    std::copy_n(flat.data().begin() + off, g->size(), g->data().begin());
    off += g->size();
  }
  check(off == flat.size(), "load_grads: flat tensor size mismatch");
}

std::string Sequential::describe() const {
  std::string s;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) s += "-";
    s += layers_[i]->name();
  }
  return s;
}

}  // namespace vf
