#include <gtest/gtest.h>

#include "nn/state.h"
#include "util/common.h"

namespace vf {
namespace {

TEST(VnState, SlotCreatesZeroInitialized) {
  VnState s;
  Tensor& t = s.slot("bn0/mean", {3});
  EXPECT_EQ(t.size(), 3);
  EXPECT_EQ(t.at(0), 0.0F);
  EXPECT_TRUE(s.has("bn0/mean"));
}

TEST(VnState, SlotReturnsSameTensor) {
  VnState s;
  s.slot("k", {2}).at(0) = 5.0F;
  EXPECT_EQ(s.slot("k", {2}).at(0), 5.0F);
}

TEST(VnState, SlotShapeMismatchThrows) {
  VnState s;
  s.slot("k", {2});
  EXPECT_THROW(s.slot("k", {3}), VfError);
}

TEST(VnState, GetMissingThrows) {
  VnState s;
  EXPECT_THROW(s.get("nope"), VfError);
}

TEST(VnState, PutOverwrites) {
  VnState s;
  s.put("k", Tensor::full({2}, 1.0F));
  s.put("k", Tensor::full({2}, 2.0F));
  EXPECT_EQ(s.get("k").at(1), 2.0F);
}

TEST(VnState, KeysSortedDeterministically) {
  VnState s;
  s.slot("b", {1});
  s.slot("a", {1});
  s.slot("c", {1});
  EXPECT_EQ(s.keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(VnState, TotalBytes) {
  VnState s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_bytes(), 0);
  s.slot("a", {10});
  s.slot("b", {6});
  EXPECT_EQ(s.total_bytes(), 64);  // 16 floats
}

}  // namespace
}  // namespace vf
