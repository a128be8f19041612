// Optimizer update rules against hand-computed steps.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/optimizer.h"
#include "util/common.h"

namespace vf {
namespace {

/// One-parameter model: a single Dense(1,1) with no bias use; we poke the
/// weight and gradient directly.
struct Rig {
  Sequential model;
  Rig() {
    CounterRng rng(1, 0);
    model.add(std::make_unique<Dense>(1, 1, rng));
    w() = 1.0F;
    b() = 0.0F;
  }
  float& w() { return model.params()[0]->at(0); }
  float& b() { return model.params()[1]->at(0); }
  void set_grads(float gw, float gb) {
    model.grads()[0]->at(0) = gw;
    model.grads()[1]->at(0) = gb;
  }
};

TEST(Sgd, PlainStep) {
  Rig r;
  Sgd opt;  // no momentum, no decay
  r.set_grads(0.5F, 0.25F);
  opt.apply(r.model, 0.1F);
  EXPECT_NEAR(r.w(), 1.0F - 0.1F * 0.5F, 1e-6F);
  EXPECT_NEAR(r.b(), -0.1F * 0.25F, 1e-6F);
}

TEST(Sgd, WeightDecayAddsToGradient) {
  Rig r;
  Sgd opt(0.0F, 0.1F);
  r.set_grads(0.0F, 0.0F);
  opt.apply(r.model, 1.0F);
  EXPECT_NEAR(r.w(), 1.0F - 0.1F * 1.0F, 1e-6F);  // pure decay on w=1
}

TEST(Sgd, MomentumAccumulates) {
  Rig r;
  Sgd opt(0.9F, 0.0F);
  r.set_grads(1.0F, 0.0F);
  opt.apply(r.model, 0.1F);  // v=1, w=1-0.1
  EXPECT_NEAR(r.w(), 0.9F, 1e-6F);
  r.set_grads(1.0F, 0.0F);
  opt.apply(r.model, 0.1F);  // v=0.9+1=1.9, w=0.9-0.19
  EXPECT_NEAR(r.w(), 0.71F, 1e-6F);
}

TEST(Sgd, SlotsExposedForMigration) {
  Rig r;
  Sgd opt(0.9F);
  r.set_grads(1.0F, 1.0F);
  opt.apply(r.model, 0.1F);
  EXPECT_EQ(opt.slots().size(), 2u);  // one velocity per param tensor
  EXPECT_GT(opt.slot_bytes(), 0);
  EXPECT_NEAR(opt.slots()[0].at(0), 1.0F, 1e-6F);
}

TEST(Sgd, NoMomentumHasNoSlots) {
  Rig r;
  Sgd opt;
  r.set_grads(1.0F, 1.0F);
  opt.apply(r.model, 0.1F);
  EXPECT_TRUE(opt.slots().empty());
  EXPECT_EQ(opt.slot_bytes(), 0);
}

TEST(Sgd, CloneCopiesState) {
  Rig r;
  Sgd opt(0.9F);
  r.set_grads(1.0F, 0.0F);
  opt.apply(r.model, 0.1F);
  auto c = opt.clone();
  // Applying the clone and the original to identical rigs gives the same
  // result (velocity carried over).
  Rig r1, r2;
  r1.w() = r2.w() = 0.5F;
  r1.set_grads(0.0F, 0.0F);
  r2.set_grads(0.0F, 0.0F);
  opt.apply(r1.model, 0.1F);
  c->apply(r2.model, 0.1F);
  EXPECT_FLOAT_EQ(r1.w(), r2.w());
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Rig r;
  Adam opt;
  r.set_grads(0.5F, 0.0F);
  opt.apply(r.model, 0.01F);
  EXPECT_NEAR(r.w(), 1.0F - 0.01F, 1e-4F);
}

TEST(Adam, SlotsAndCounterCarryIntoClone) {
  Rig r;
  Adam opt;
  r.set_grads(1.0F, 1.0F);
  opt.apply(r.model, 0.01F);
  opt.apply(r.model, 0.01F);
  EXPECT_EQ(opt.slots().size(), 4u);  // m and v per param tensor
  const auto c = opt.clone();
  EXPECT_EQ(c->slots().size(), opt.slots().size());
  // The moments and the bias-correction step counter carry into the
  // clone: one more step on equal models lands on equal parameters, and
  // both differ from a fresh Adam's first step (which moves by ~lr).
  Rig r2;
  r2.w() = r.w();
  r2.b() = r.b();
  Rig fresh;
  fresh.w() = r.w();
  fresh.b() = r.b();
  for (Rig* rig : {&r, &r2, &fresh}) rig->set_grads(0.5F, -0.25F);
  opt.apply(r.model, 0.01F);
  c->apply(r2.model, 0.01F);
  Adam().apply(fresh.model, 0.01F);
  EXPECT_EQ(r.w(), r2.w());
  EXPECT_EQ(r.b(), r2.b());
  EXPECT_NE(r.w(), fresh.w());
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w-3)^2 by feeding grad = 2(w-3).
  Rig r;
  Adam opt;
  for (int i = 0; i < 2000; ++i) {
    r.set_grads(2.0F * (r.w() - 3.0F), 0.0F);
    opt.apply(r.model, 0.05F);
  }
  EXPECT_NEAR(r.w(), 3.0F, 0.05F);
}

TEST(Sgd, ConvergesOnQuadratic) {
  Rig r;
  Sgd opt(0.9F);
  for (int i = 0; i < 500; ++i) {
    r.set_grads(2.0F * (r.w() - 3.0F), 0.0F);
    opt.apply(r.model, 0.01F);
  }
  EXPECT_NEAR(r.w(), 3.0F, 0.02F);
}

TEST(Optimizer, InvalidHyperparametersThrow) {
  EXPECT_THROW(Sgd(1.0F), VfError);
  EXPECT_THROW(Sgd(-0.1F), VfError);
  EXPECT_THROW(Sgd(0.5F, -1.0F), VfError);
  EXPECT_THROW(Adam(1.0F), VfError);
  EXPECT_THROW(Adam(0.9F, 0.0F), VfError);
}

}  // namespace
}  // namespace vf
