// Sequential container: composition, cloning, parameter flattening.
#include <gtest/gtest.h>

#include <memory>

#include "nn/model.h"
#include "util/common.h"

namespace vf {
namespace {

Sequential small_model(std::uint64_t seed = 1) {
  CounterRng rng(seed, 0);
  Sequential m;
  m.add(std::make_unique<Dense>(3, 4, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(4, 2, rng));
  return m;
}

ExecContext ctx_train() {
  ExecContext c;
  c.seed = 42;
  c.training = true;
  return c;
}

TEST(Sequential, ForwardComposesLayers) {
  Sequential m = small_model();
  CounterRng rng(2, 0);
  Tensor x = Tensor::randn({5, 3}, rng);
  Tensor y = m.forward(x, ctx_train());
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{5, 2}));
}

TEST(Sequential, ParamAndGradListsPaired) {
  Sequential m = small_model();
  EXPECT_EQ(m.params().size(), 4u);  // two Dense layers x (W, b)
  EXPECT_EQ(m.grads().size(), 4u);
  EXPECT_EQ(m.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
}

TEST(Sequential, CopyIsDeep) {
  Sequential m = small_model();
  Sequential copy = m;
  m.params()[0]->fill(7.0F);
  EXPECT_NE(copy.params()[0]->at(0), 7.0F);
}

TEST(Sequential, CloneEqualsOriginalFunctionally) {
  Sequential m = small_model();
  auto c = m.clone();
  auto* cm = dynamic_cast<Sequential*>(c.get());
  ASSERT_NE(cm, nullptr);
  CounterRng rng(3, 0);
  Tensor x = Tensor::randn({2, 3}, rng);
  EXPECT_TRUE(m.forward(x, ctx_train()).equals(cm->forward(x, ctx_train())));
}

TEST(Sequential, FlattenParamsConcatenatesEveryParameter) {
  Sequential m = small_model();
  Tensor flat = m.flatten_params();
  EXPECT_EQ(flat.size(), m.param_count());
  std::int64_t off = 0;
  for (const Tensor* p : m.params())
    for (std::int64_t i = 0; i < p->size(); ++i) EXPECT_EQ(flat.at(off++), p->at(i));
  Sequential other = small_model(99);  // different init
  EXPECT_FALSE(other.flatten_params().equals(flat));
}

TEST(Sequential, LoadGradsRoundTrips) {
  Sequential m = small_model();
  Tensor g({m.param_count()});
  for (std::int64_t i = 0; i < g.size(); ++i) g.at(i) = static_cast<float>(i);
  m.load_grads(g);
  Tensor flat;
  m.flatten_grads_into(flat);
  EXPECT_TRUE(flat.equals(g));
}

TEST(Sequential, LayerIndicesAssignedInOrder) {
  Sequential m = small_model();
  EXPECT_EQ(m.layer(0).layer_index(), 0);
  EXPECT_EQ(m.layer(1).layer_index(), 1);
  EXPECT_EQ(m.layer(2).layer_index(), 2);
}

TEST(Sequential, NestedIndicesDisjointFromTopLevel) {
  CounterRng rng(4, 0);
  Sequential inner;
  inner.add(std::make_unique<Dense>(4, 4, rng));
  inner.add(std::make_unique<BatchNorm1d>(4));
  Sequential outer;
  outer.add(std::make_unique<Dense>(4, 4, rng));
  outer.add(std::make_unique<Sequential>(std::move(inner)));
  outer.add(std::make_unique<BatchNorm1d>(4));

  // The top-level BN and the nested BN must use different state keys: the
  // nested stack at index 1 re-bases its children to (1 + 1) * 1000 + i.
  auto* top_bn = dynamic_cast<BatchNorm1d*>(&outer.layer(2));
  auto* nested = dynamic_cast<Sequential*>(&outer.layer(1));
  ASSERT_NE(top_bn, nullptr);
  ASSERT_NE(nested, nullptr);
  auto* nested_bn = dynamic_cast<BatchNorm1d*>(&nested->layer(1));
  ASSERT_NE(nested_bn, nullptr);
  EXPECT_EQ(top_bn->mean_key(), "bn2/moving_mean");
  EXPECT_EQ(nested_bn->mean_key(), "bn2001/moving_mean");
}

TEST(Sequential, AddNullThrows) {
  Sequential m;
  EXPECT_THROW(m.add(nullptr), VfError);
}

TEST(Sequential, DescribeListsLayers) {
  Sequential m = small_model();
  EXPECT_EQ(m.describe(), "dense-relu-dense");
}

TEST(Sequential, EmptyModelIsIdentity) {
  Sequential m;
  Tensor x = Tensor::from_values({1, 2}, {3, 4});
  EXPECT_TRUE(m.forward(x, ctx_train()).equals(x));
  EXPECT_EQ(m.param_count(), 0);
  EXPECT_EQ(m.flatten_params().size(), 0);
}

}  // namespace
}  // namespace vf
