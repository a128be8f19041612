#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "tensor/kernels.h"
#include "util/common.h"

namespace vf {

namespace {

std::atomic<std::int64_t> g_tensor_allocs{0};

/// Records one tensor heap-buffer allocation (growth). Relaxed: the
/// counter is a diagnostic total, not a synchronization point.
inline void note_alloc() { g_tensor_allocs.fetch_add(1, std::memory_order_relaxed); }

std::int64_t shape_product(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    check(d >= 0, "tensor dimensions must be non-negative");
    n *= d;
  }
  return n;
}

std::int64_t shape_product(std::span<const std::int64_t> shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    check(d >= 0, "tensor dimensions must be non-negative");
    n *= d;
  }
  return n;
}

/// _into ops fully overwrite `out`, so aliasing an input would corrupt the
/// computation silently; catch it loudly instead.
void check_no_alias(const Tensor& out, const Tensor& in, const char* op) {
  check(out.data().data() != in.data().data() || out.data().empty(),
        [&] { return std::string(op) + ": out must not alias an input tensor"; });
}

}  // namespace

std::int64_t tensor_alloc_count() {
  return g_tensor_allocs.load(std::memory_order_relaxed);
}

Tensor::Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape)) {
  check(shape_.size() <= 4, "tensor rank must be <= 4");
  const auto n = static_cast<std::size_t>(shape_product(shape_));
  if (n > 0) note_alloc();
  data_.assign(n, 0.0F);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_), data_(other.data_) {
  if (!data_.empty()) note_alloc();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // vector copy-assignment recycles the existing buffer when it is large
  // enough; only a genuine growth counts as an allocation.
  if (other.data_.size() > data_.capacity()) note_alloc();
  shape_ = other.shape_;
  data_ = other.data_;
  return *this;
}

Tensor Tensor::zeros(std::initializer_list<std::int64_t> shape) {
  return Tensor(std::vector<std::int64_t>(shape));
}

Tensor Tensor::full(std::initializer_list<std::int64_t> shape, float value) {
  Tensor t{std::vector<std::int64_t>(shape)};
  t.fill(value);
  return t;
}

Tensor Tensor::from_values(std::vector<std::int64_t> shape, std::vector<float> values) {
  Tensor t;
  t.shape_ = std::move(shape);
  check(static_cast<std::int64_t>(values.size()) == shape_product(t.shape_),
        "from_values: value count does not match shape");
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, CounterRng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.normal(0.0F, stddev);
  return t;
}

Tensor& Tensor::ensure_shape(std::span<const std::int64_t> shape) {
  check(shape.size() <= 4, "tensor rank must be <= 4");
  const auto n = static_cast<std::size_t>(shape_product(shape));
  if (n > data_.capacity()) note_alloc();
  shape_.assign(shape.begin(), shape.end());
  data_.resize(n);
  return *this;
}

Tensor& Tensor::ensure_shape(std::initializer_list<std::int64_t> shape) {
  return ensure_shape(std::span<const std::int64_t>(shape.begin(), shape.size()));
}

std::int64_t Tensor::dim(std::int64_t i) const {
  check_index(i, rank(), "tensor dim");
  return shape_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::int64_t i) {
  check_index(i, size(), "tensor element");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  check_index(i, size(), "tensor element");
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  check(rank() == 2, "rank-2 accessor on non-matrix tensor");
  check_index(r, rows(), "row");
  check_index(c, cols(), "col");
  return data_[static_cast<std::size_t>(r * cols() + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

std::int64_t Tensor::rows() const {
  check(rank() == 2, "rows() requires a rank-2 tensor");
  return shape_[0];
}

std::int64_t Tensor::cols() const {
  check(rank() == 2, "cols() requires a rank-2 tensor");
  return shape_[1];
}

Tensor& Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  check(a.shape() == b.shape(), [&] {
    return std::string(op) + ": shape mismatch " + a.shape_str() + " vs " + b.shape_str();
  });
}

Tensor& Tensor::add_(const Tensor& other) {
  check_same_shape(*this, other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check_same_shape(*this, other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check_same_shape(*this, other, "mul_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::scale_(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::axpy_(float a, const Tensor& x) {
  check_same_shape(*this, x, "axpy_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += a * x.data_[i];
  return *this;
}

Tensor& Tensor::add_scalar_(float s) {
  for (float& v : data_) v += s;
  return *this;
}

Tensor Tensor::add(const Tensor& other) const { return Tensor(*this).add_(other); }
Tensor Tensor::sub(const Tensor& other) const { return Tensor(*this).sub_(other); }
Tensor Tensor::mul(const Tensor& other) const { return Tensor(*this).mul_(other); }
Tensor Tensor::scaled(float s) const { return Tensor(*this).scale_(s); }

void Tensor::mul_into(const Tensor& other, Tensor& out) const {
  check_same_shape(*this, other, "mul_into");
  check_no_alias(out, *this, "mul_into");
  check_no_alias(out, other, "mul_into");
  out.ensure_shape(shape_);
  kernels::mul(data_.data(), other.data_.data(), out.data_.data(), size(),
               TensorConfig::kernel_mode());
}

void Tensor::matmul_into(const Tensor& rhs, Tensor& out) const {
  check(rank() == 2 && rhs.rank() == 2, "matmul requires rank-2 tensors");
  check(cols() == rhs.rows(), [&] {
    return "matmul: inner dimensions disagree (" + shape_str() + " @ " +
           rhs.shape_str() + ")";
  });
  check_no_alias(out, *this, "matmul_into");
  check_no_alias(out, rhs, "matmul_into");
  const std::int64_t m = rows(), k = cols(), n = rhs.cols();
  out.ensure_shape({m, n});
  kernels::matmul(data_.data(), rhs.data_.data(), out.data_.data(), m, k, n,
                  TensorConfig::kernel_mode());
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  Tensor out;
  matmul_into(rhs, out);
  return out;
}

void Tensor::matmul_transpose_lhs_into(const Tensor& rhs, Tensor& out) const {
  check(rank() == 2 && rhs.rank() == 2, "matmul_transpose_lhs requires rank-2 tensors");
  check(rows() == rhs.rows(), "matmul_transpose_lhs: row counts disagree");
  check_no_alias(out, *this, "matmul_transpose_lhs_into");
  check_no_alias(out, rhs, "matmul_transpose_lhs_into");
  const std::int64_t k = rows(), m = cols(), n = rhs.cols();
  out.ensure_shape({m, n});
  kernels::matmul_transpose_lhs(data_.data(), rhs.data_.data(), out.data_.data(), m,
                                k, n, TensorConfig::kernel_mode());
}

Tensor Tensor::matmul_transpose_lhs(const Tensor& rhs) const {
  Tensor out;
  matmul_transpose_lhs_into(rhs, out);
  return out;
}

void Tensor::matmul_transpose_rhs_into(const Tensor& rhs, Tensor& out) const {
  check(rank() == 2 && rhs.rank() == 2, "matmul_transpose_rhs requires rank-2 tensors");
  check(cols() == rhs.cols(), "matmul_transpose_rhs: column counts disagree");
  check_no_alias(out, *this, "matmul_transpose_rhs_into");
  check_no_alias(out, rhs, "matmul_transpose_rhs_into");
  const std::int64_t m = rows(), k = cols(), n = rhs.rows();
  out.ensure_shape({m, n});
  kernels::matmul_transpose_rhs(data_.data(), rhs.data_.data(), out.data_.data(), m,
                                k, n, TensorConfig::kernel_mode());
}

Tensor Tensor::matmul_transpose_rhs(const Tensor& rhs) const {
  Tensor out;
  matmul_transpose_rhs_into(rhs, out);
  return out;
}

Tensor Tensor::transposed() const {
  check(rank() == 2, "transposed requires a rank-2 tensor");
  const std::int64_t r = rows(), c = cols();
  Tensor out({c, r});
  const float* in = data_.data();
  float* o = out.data_.data();
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) o[j * r + i] = in[i * c + j];
  return out;
}

float Tensor::sum() const {
  float s = 0.0F;
  for (float v : data_) s += v;
  return s;
}

float Tensor::mean() const {
  check(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0F;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::squared_norm() const {
  float s = 0.0F;
  for (float v : data_) s += v * v;
  return s;
}

void Tensor::column_sums_into(Tensor& out) const {
  check(rank() == 2, "column_sums requires a rank-2 tensor");
  check_no_alias(out, *this, "column_sums_into");
  const std::int64_t r = rows(), c = cols();
  out.ensure_shape({c});
  // Per column the accumulation runs over rows in ascending order in
  // every kernel tier, exactly as the nested at() loops did.
  kernels::column_sums(data_.data(), out.data_.data(), r, c,
                       TensorConfig::kernel_mode());
}

Tensor Tensor::column_sums() const {
  Tensor out;
  column_sums_into(out);
  return out;
}

void Tensor::row_argmax_into(std::vector<std::int64_t>& out) const {
  check(rank() == 2, "row_argmax requires a rank-2 tensor");
  const std::int64_t r = rows(), c = cols();
  check(c > 0 || r == 0, "row_argmax requires at least one column");
  out.resize(static_cast<std::size_t>(r));
  const float* p = data_.data();
  for (std::int64_t i = 0; i < r; ++i, p += c) {
    std::int64_t best = 0;
    float best_v = p[0];
    for (std::int64_t j = 1; j < c; ++j) {
      if (p[j] > best_v) {
        best_v = p[j];
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
}

Tensor Tensor::slice_rows(std::int64_t start_row, std::int64_t count) const {
  check(rank() == 2, "slice_rows requires a rank-2 tensor");
  check(start_row >= 0 && count >= 0 && start_row + count <= rows(),
        "slice_rows out of range");
  Tensor out({count, cols()});
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(start_row * cols()),
              static_cast<std::ptrdiff_t>(count * cols()), out.data_.begin());
  return out;
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  check_same_shape(*this, other, "max_abs_diff");
  float m = 0.0F;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

std::string Tensor::shape_str() const {
  std::string s = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape_[i]);
  }
  s += "]";
  return s;
}

}  // namespace vf
