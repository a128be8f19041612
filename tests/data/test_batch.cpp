#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "data/batch.h"
#include "util/common.h"

namespace vf {
namespace {

GaussianMixtureDataset make_ds() {
  return GaussianMixtureDataset("t", 42, 64, 4, 2, 0.3F);
}

std::vector<std::int64_t> indices(EpochBatcher& batcher, std::int64_t epoch,
                                  std::int64_t batch_in_epoch,
                                  const std::vector<BatchSlice>& slices, std::int64_t vn) {
  std::vector<std::int64_t> out;
  batcher.indices_into(epoch, batch_in_epoch, slices, vn, out);
  return out;
}

TEST(EpochBatcher, MatchesPureFunctionForm) {
  // The cached batcher must produce exactly the indices of the pure
  // sharding functions.
  const auto ds = make_ds();
  EpochBatcher batcher(ds, 7, 16);
  const auto slices = split_batch(16, {4, 4, 8});
  for (std::int64_t epoch : {0, 1, 5}) {
    for (std::int64_t b = 0; b < batcher.batches_per_epoch(); ++b) {
      for (std::int64_t vn = 0; vn < 3; ++vn) {
        EXPECT_EQ(indices(batcher, epoch, b, slices, vn),
                  vn_batch_indices(64, 7, epoch, b, 16, slices, vn));
      }
    }
  }
}

TEST(EpochBatcher, CacheSurvivesEpochSwitches) {
  const auto ds = make_ds();
  EpochBatcher batcher(ds, 7, 16);
  const auto slices = split_batch(16, {16});
  const auto e0 = indices(batcher, 0, 0, slices, 0);
  indices(batcher, 1, 0, slices, 0);  // switch epoch
  EXPECT_EQ(indices(batcher, 0, 0, slices, 0), e0);  // switch back
}

TEST(EpochBatcher, MicroBatchMaterializesFeaturesAndLabels) {
  const auto ds = make_ds();
  EpochBatcher batcher(ds, 7, 16);
  const auto slices = split_batch(16, {12, 4});
  MicroBatch mb;
  std::vector<std::int64_t> idx;
  batcher.micro_batch_into(0, 0, slices, 1, mb, idx);
  EXPECT_EQ(mb.features.rows(), 4);
  EXPECT_EQ(mb.features.cols(), 4);
  EXPECT_EQ(mb.labels.size(), 4u);
  EXPECT_EQ(idx, indices(batcher, 0, 0, slices, 1));
  // A reused pair is reshaped in place for the next slice.
  batcher.micro_batch_into(0, 0, slices, 0, mb, idx);
  EXPECT_EQ(mb.features.rows(), 12);
  EXPECT_EQ(mb.labels.size(), 12u);
  EXPECT_EQ(idx, indices(batcher, 0, 0, slices, 0));
}

TEST(EpochBatcher, SliceLayoutMayChangeBetweenBatches) {
  // An elastic resize changes the slicing mid-epoch; the union of indices
  // per global batch must be unaffected.
  const auto ds = make_ds();
  EpochBatcher batcher(ds, 7, 16);
  const auto even = split_batch(16, {4, 4, 4, 4});
  const auto skew = split_batch(16, {8, 8});

  std::set<std::int64_t> union_even, union_skew;
  for (std::int64_t vn = 0; vn < 4; ++vn)
    for (auto i : indices(batcher, 0, 1, even, vn)) union_even.insert(i);
  for (std::int64_t vn = 0; vn < 2; ++vn)
    for (auto i : indices(batcher, 0, 1, skew, vn)) union_skew.insert(i);
  EXPECT_EQ(union_even, union_skew);
}

TEST(EpochBatcher, OutOfRangeBatchThrows) {
  const auto ds = make_ds();
  EpochBatcher batcher(ds, 7, 16);
  const auto slices = split_batch(16, {16});
  std::vector<std::int64_t> out;
  EXPECT_THROW(batcher.indices_into(0, 4, slices, 0, out), VfError);  // 64/16 = 4 batches
  EXPECT_THROW(batcher.indices_into(0, 0, slices, 1, out), VfError);  // only VN 0 exists
  MicroBatch mb;
  EXPECT_THROW(batcher.micro_batch_into(0, 4, slices, 0, mb, out), VfError);
  EXPECT_THROW(batcher.micro_batch_into(0, 0, slices, 1, mb, out), VfError);
}

}  // namespace
}  // namespace vf
