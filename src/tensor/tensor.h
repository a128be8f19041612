// Dense float tensor used by the neural-network substrate.
//
// VirtualFlow's convergence experiments run real SGD, so this is a real
// (if deliberately small) tensor library: row-major dense storage, the
// elementwise/matmul/reduction ops the nn layers need, and nothing more.
// Determinism comes first — every op is sequential and order-stable so
// that training trajectories are bit-reproducible — but the hot-path ops
// (matmul family, elementwise mul, column_sums) dispatch to the kernel
// layer in tensor/kernels.h, whose blocked and simd tiers are
// bit-identical to the reference loops by construction (the simd tier
// resolves per shape through the backend factory in tensor/backend.h).
//
// Allocation discipline: the `_into` variants write into caller-owned
// tensors via ensure_shape(), which recycles the existing heap buffer
// whenever capacity allows. Every buffer growth is counted in a global
// allocation counter (tensor_alloc_count()) so tests can assert that a
// warmed-up training step performs zero tensor heap allocations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace vf {

/// Total tensor heap-buffer allocations (growths) performed by this
/// process so far. Monotone; read it before/after a region to count the
/// allocations inside. Thread-safe (relaxed atomic).
std::int64_t tensor_alloc_count();

/// Row-major dense float tensor with up to rank-4 shapes (rank 1 and 2 are
/// what the layers use; higher ranks exist for completeness).
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// Convenience rank-1 / rank-2 constructors.
  static Tensor zeros(std::initializer_list<std::int64_t> shape);
  static Tensor full(std::initializer_list<std::int64_t> shape, float value);
  static Tensor from_values(std::vector<std::int64_t> shape, std::vector<float> values);

  /// Gaussian init with the given stddev (mean 0), deterministic in `rng`.
  static Tensor randn(std::vector<std::int64_t> shape, CounterRng& rng, float stddev = 1.0F);

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  /// Heap-buffer capacity in floats (allocation-reuse introspection).
  std::size_t buffer_capacity() const { return data_.capacity(); }

  /// Reshapes to `shape`, reusing the existing heap buffer when capacity
  /// allows (the workspace-reuse fast path). Element contents are
  /// unspecified afterwards — callers overwrite. Never shrinks capacity.
  Tensor& ensure_shape(std::span<const std::int64_t> shape);
  Tensor& ensure_shape(std::initializer_list<std::int64_t> shape);

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  /// Rank-2 accessors.
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  /// Number of rows / columns for rank-2 tensors.
  std::int64_t rows() const;
  std::int64_t cols() const;

  // ---- In-place ops (return *this for chaining) ----
  Tensor& fill(float value);
  Tensor& add_(const Tensor& other);           // this += other
  Tensor& sub_(const Tensor& other);           // this -= other
  Tensor& mul_(const Tensor& other);           // elementwise this *= other
  Tensor& scale_(float s);                     // this *= s
  Tensor& axpy_(float a, const Tensor& x);     // this += a * x
  Tensor& add_scalar_(float s);                // this += s

  // ---- Out-of-place ops ----
  Tensor add(const Tensor& other) const;
  Tensor sub(const Tensor& other) const;
  Tensor mul(const Tensor& other) const;
  Tensor scaled(float s) const;

  /// Matrix multiply: (m x k) @ (k x n) -> (m x n). Both rank-2.
  Tensor matmul(const Tensor& rhs) const;
  /// this^T @ rhs for rank-2 tensors: (k x m)^T is (m x k).
  Tensor matmul_transpose_lhs(const Tensor& rhs) const;
  /// this @ rhs^T for rank-2 tensors.
  Tensor matmul_transpose_rhs(const Tensor& rhs) const;

  // ---- Out-parameter variants (allocation-free once `out` is warm) ----
  // `out` is reshaped with ensure_shape() and fully overwritten; it must
  // not alias this tensor or the operand.
  void matmul_into(const Tensor& rhs, Tensor& out) const;
  void matmul_transpose_lhs_into(const Tensor& rhs, Tensor& out) const;
  void matmul_transpose_rhs_into(const Tensor& rhs, Tensor& out) const;
  void mul_into(const Tensor& other, Tensor& out) const;
  void column_sums_into(Tensor& out) const;

  /// Rank-2 transpose (a plain loop; no hot path transposes a Tensor).
  Tensor transposed() const;

  // ---- Reductions ----
  float sum() const;
  float mean() const;
  float abs_max() const;
  float squared_norm() const;
  /// Per-column sums of a rank-2 tensor -> rank-1 of length cols().
  Tensor column_sums() const;
  /// Row-wise argmax of a rank-2 tensor: out[i] is row i's column index
  /// of its first maximum. Writes into a caller-owned vector (capacity
  /// reused across calls — the serving hot path's per-VN prediction
  /// scratch).
  void row_argmax_into(std::vector<std::int64_t>& out) const;

  /// Copies `count` rows starting at `start_row` into a new tensor.
  Tensor slice_rows(std::int64_t start_row, std::int64_t count) const;

  /// Exact equality (bitwise over all elements); used by reproducibility tests.
  bool equals(const Tensor& other) const;
  /// Max elementwise absolute difference.
  float max_abs_diff(const Tensor& other) const;

  std::string shape_str() const;

 private:
  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

/// Checks two tensors share a shape; throws with a helpful message otherwise.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace vf
