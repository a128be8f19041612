// Batch provider: materializes per-virtual-node micro-batches.
//
// Caches the epoch permutation so the engine can pull many VN slices per
// step without re-deriving it; the produced indices are identical to the
// pure-function form in sharding.h (a property test asserts this).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/sharding.h"

namespace vf {

/// One virtual node's materialized micro-batch.
struct MicroBatch {
  Tensor features;                   ///< [count x feature_dim]
  std::vector<std::int64_t> labels;  ///< size count
};

/// Iterates a dataset in deterministic epoch order, serving per-VN slices
/// of each global batch. The slicing (per-VN shares) may change between
/// batches — that is exactly what happens on an elastic resize or a
/// heterogeneous reconfiguration — without affecting which examples appear
/// in which global batch.
class EpochBatcher {
 public:
  EpochBatcher(const Dataset& dataset, std::uint64_t seed, std::int64_t global_batch);

  std::int64_t batches_per_epoch() const { return n_batches_; }
  std::int64_t global_batch() const { return global_batch_; }

  /// Writes the dataset indices for VN `vn` of global batch
  /// `batch_in_epoch` in `epoch`, given the current slice layout, into
  /// `out` (resized in place, so a reused vector does not reallocate).
  void indices_into(std::int64_t epoch, std::int64_t batch_in_epoch,
                    const std::vector<BatchSlice>& slices, std::int64_t vn,
                    std::vector<std::int64_t>& out);

  /// Materializes VN `vn`'s micro-batch into reusable caller-owned
  /// buffers: `mb`'s feature matrix and label vector are reshaped in
  /// place and `idx_scratch` holds the index list — the engine keeps one
  /// (mb, scratch) pair per VN, making steady-state batch materialization
  /// allocation-free.
  void micro_batch_into(std::int64_t epoch, std::int64_t batch_in_epoch,
                        const std::vector<BatchSlice>& slices, std::int64_t vn,
                        MicroBatch& mb, std::vector<std::int64_t>& idx_scratch);

  /// Warms the epoch-permutation cache. Call once before pulling this
  /// epoch's micro-batches from multiple threads: afterwards
  /// indices_into()/micro_batch_into() for that epoch only read shared
  /// state.
  void prepare_epoch(std::int64_t epoch) { ensure_epoch(epoch); }

  const Dataset& dataset() const { return dataset_; }

 private:
  void ensure_epoch(std::int64_t epoch);

  const Dataset& dataset_;
  std::uint64_t seed_;
  std::int64_t global_batch_;
  std::int64_t n_batches_;
  std::int64_t cached_epoch_ = -1;
  std::vector<std::int64_t> perm_;
};

/// Materializes a micro-batch from explicit dataset indices into a
/// reusable caller-owned MicroBatch. This is the serving path
/// (src/serve/): the indices come from request payloads, not from epoch
/// slices, so no permutation or slice layout is involved, and per-slot
/// scratch lets repeated dispatches reuse buffers instead of reallocating.
void gather_micro_batch_into(const Dataset& dataset,
                             const std::vector<std::int64_t>& indices,
                             MicroBatch& out);

}  // namespace vf
