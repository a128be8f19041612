#include "data/batch.h"

#include "util/common.h"

namespace vf {

EpochBatcher::EpochBatcher(const Dataset& dataset, std::uint64_t seed,
                           std::int64_t global_batch)
    : dataset_(dataset),
      seed_(seed),
      global_batch_(global_batch),
      n_batches_(vf::batches_per_epoch(dataset.size(), global_batch)) {}

void EpochBatcher::ensure_epoch(std::int64_t epoch) {
  if (epoch == cached_epoch_) return;
  perm_ = epoch_permutation(dataset_.size(), seed_, epoch);
  cached_epoch_ = epoch;
}

void EpochBatcher::indices_into(std::int64_t epoch, std::int64_t batch_in_epoch,
                                const std::vector<BatchSlice>& slices,
                                std::int64_t vn, std::vector<std::int64_t>& out) {
  check_index(batch_in_epoch, n_batches_, "batch in epoch");
  check_index(vn, static_cast<std::int64_t>(slices.size()), "virtual node");
  ensure_epoch(epoch);

  const BatchSlice& slice = slices[static_cast<std::size_t>(vn)];
  const std::int64_t base = batch_in_epoch * global_batch_ + slice.begin;
  check(base + slice.count <= dataset_.size(), "batch slice exceeds dataset");

  out.resize(static_cast<std::size_t>(slice.count));
  for (std::int64_t k = 0; k < slice.count; ++k)
    out[static_cast<std::size_t>(k)] = perm_[static_cast<std::size_t>(base + k)];
}

void EpochBatcher::micro_batch_into(std::int64_t epoch, std::int64_t batch_in_epoch,
                                    const std::vector<BatchSlice>& slices,
                                    std::int64_t vn, MicroBatch& mb,
                                    std::vector<std::int64_t>& idx_scratch) {
  indices_into(epoch, batch_in_epoch, slices, vn, idx_scratch);
  dataset_.gather(idx_scratch, mb.features, mb.labels);
}

void gather_micro_batch_into(const Dataset& dataset,
                             const std::vector<std::int64_t>& indices,
                             MicroBatch& out) {
  check(!indices.empty(), "gather_micro_batch_into needs at least one index");
  for (const std::int64_t i : indices) check_index(i, dataset.size(), "example");
  dataset.gather(indices, out.features, out.labels);
}

}  // namespace vf
