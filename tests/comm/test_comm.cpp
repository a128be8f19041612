// Collective cost model and the weighted-sum numerics of §5.2.
#include <gtest/gtest.h>

#include <algorithm>

#include "comm/comm.h"
#include "util/common.h"
#include "util/rng.h"

namespace vf {
namespace {

TEST(RingAllreduce, ZeroForSingleParticipant) {
  EXPECT_DOUBLE_EQ(ring_allreduce_time_s(1e9, 1, {}), 0.0);
}

TEST(RingAllreduce, GrowsWithBytes) {
  LinkSpec link;
  EXPECT_LT(ring_allreduce_time_s(1e6, 4, link), ring_allreduce_time_s(1e8, 4, link));
}

TEST(RingAllreduce, BandwidthTermApproaches2BytesOverBw) {
  // For large messages the ring moves ~2x bytes per node.
  LinkSpec link;
  link.latency_s = 0.0;
  const double bytes = 1e9;
  const double t = ring_allreduce_time_s(bytes, 16, link);
  EXPECT_NEAR(t, 2.0 * bytes / link.bandwidth_bytes * (15.0 / 16.0), 1e-6);
}

TEST(RingAllreduce, LatencyTermScalesWithWorld) {
  LinkSpec link;
  link.bandwidth_bytes = 1e15;  // latency dominated
  const double t4 = ring_allreduce_time_s(1.0, 4, link);
  const double t8 = ring_allreduce_time_s(1.0, 8, link);
  EXPECT_NEAR(t8 / t4, 14.0 / 6.0, 1e-6);  // 2(n-1) rounds
}

TEST(RingAllgather, ZeroForSingleAndGrowsWithWorld) {
  LinkSpec link;
  EXPECT_DOUBLE_EQ(ring_allgather_time_s(1e6, 1, link), 0.0);
  EXPECT_LT(ring_allgather_time_s(1e6, 2, link), ring_allgather_time_s(1e6, 8, link));
}

TEST(StateMigration, SubSecondLikePaper) {
  // §4.1: migrating model + stateful kernels "typically takes less than a
  // second". ResNet-50-scale state over the paper's 16 Gbps link:
  LinkSpec link;  // defaults = 16 Gbps
  const double state_bytes = 110e6;  // params + BN stats + slots
  EXPECT_LT(ring_allgather_time_s(state_bytes, 16, link), 1.0);
}

TEST(WeightedSum, MatchesManualComputation) {
  Tensor a = Tensor::from_values({3}, {1, 2, 3});
  Tensor b = Tensor::from_values({3}, {10, 20, 30});
  Tensor out = weighted_sum({&a, &b}, {0.25, 0.75});
  EXPECT_FLOAT_EQ(out.at(0), 0.25F * 1 + 0.75F * 10);
  EXPECT_FLOAT_EQ(out.at(2), 0.25F * 3 + 0.75F * 30);
}

TEST(WeightedSum, PaperSection52Example) {
  // The paper's 6:2 example: weighting per-device means by 3/4 and 1/4
  // recovers the flat mean of all 8 gradients.
  CounterRng rng(1, 0);
  Tensor g = Tensor::randn({8}, rng);  // g1..g8 as one vector per "example"
  // Device means: mean(g1..g6), mean(g7..g8) — emulate with scalars.
  float g16 = 0.0F, g78 = 0.0F, all = 0.0F;
  for (int i = 0; i < 6; ++i) g16 += g.at(i);
  g16 /= 6.0F;
  for (int i = 6; i < 8; ++i) g78 += g.at(i);
  g78 /= 2.0F;
  for (int i = 0; i < 8; ++i) all += g.at(i);
  all /= 8.0F;
  Tensor d0 = Tensor::full({1}, g16);
  Tensor d1 = Tensor::full({1}, g78);
  Tensor weighted = weighted_sum({&d0, &d1}, {6.0 / 8.0, 2.0 / 8.0});
  EXPECT_NEAR(weighted.at(0), all, 1e-6F);
  // The naive flat average of device means is wrong (paper's point).
  Tensor naive = weighted_sum({&d0, &d1}, {0.5, 0.5});
  EXPECT_GT(std::abs(naive.at(0) - all), 1e-3F);
}

TEST(WeightedSum, DeterministicOrder) {
  // Reduction combines buffers in ascending index order, so the result is
  // bitwise stable across calls.
  CounterRng rng(2, 0);
  Tensor a = Tensor::randn({64}, rng);
  Tensor b = Tensor::randn({64}, rng);
  Tensor c = Tensor::randn({64}, rng);
  Tensor r1 = weighted_sum({&a, &b, &c}, {0.3, 0.3, 0.4});
  Tensor r2 = weighted_sum({&a, &b, &c}, {0.3, 0.3, 0.4});
  EXPECT_TRUE(r1.equals(r2));
}

TEST(WeightedSum, Validation) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(weighted_sum({}, {}), VfError);
  EXPECT_THROW(weighted_sum({&a}, {0.5, 0.5}), VfError);
  EXPECT_THROW(weighted_sum({&a, &b}, {0.5, 0.5}), VfError);
}

TEST(CommCost, InvalidInputsThrow) {
  EXPECT_THROW(ring_allreduce_time_s(1.0, 0, {}), VfError);
  EXPECT_THROW(ring_allreduce_time_s(-1.0, 2, {}), VfError);
}

}  // namespace
}  // namespace vf
