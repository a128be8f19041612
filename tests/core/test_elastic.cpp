// Resource elasticity (§4.1): seamless resizes preserve semantics
// bit-exactly, cost one sub-second all-gather, and carry batch-norm
// statistics to the new workers.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/trainer.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

EngineConfig test_cfg() {
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  return cfg;
}

VirtualFlowEngine make_engine(const ProxyTask& task, const Sequential& model,
                              const TrainRecipe& recipe, std::int64_t devices) {
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(8, devices, recipe.global_batch),
                           test_cfg());
}

TEST(Elastic, DownsizeAndUpsizeMatchUninterruptedRunBitExactly) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");

  auto steady = make_engine(task, model, r1, 4);
  auto elastic = make_engine(task, model, r2, 4);

  for (int i = 0; i < 5; ++i) {
    steady.train_step();
    elastic.train_step();
  }
  // Downsize 4 -> 1 (Fig 1), run, then upsize 1 -> 8.
  elastic.resize(make_devices(DeviceType::kV100, 1));
  for (int i = 0; i < 5; ++i) {
    steady.train_step();
    elastic.train_step();
  }
  elastic.resize(make_devices(DeviceType::kV100, 8));
  for (int i = 0; i < 5; ++i) {
    steady.train_step();
    elastic.train_step();
  }
  EXPECT_TRUE(steady.parameters().equals(elastic.parameters()))
      << "max diff " << steady.parameters().max_abs_diff(elastic.parameters());
  EXPECT_DOUBLE_EQ(steady.evaluate(*task.val), elastic.evaluate(*task.val));
}

TEST(Elastic, ResizePreservesVnCountAndBatch) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 4);
  eng.resize(make_devices(DeviceType::kV100, 2));
  EXPECT_EQ(eng.mapping().total_vns(), 8);
  EXPECT_EQ(eng.mapping().global_batch(), 64);
  EXPECT_EQ(eng.mapping().num_devices(), 2);
}

TEST(Elastic, SeamlessResizeCostsUnderASecond) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 4);
  eng.train_step();
  const double before = eng.sim_time_s();
  eng.resize(make_devices(DeviceType::kV100, 8));
  const double cost = eng.sim_time_s() - before;
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1.0);  // §4.1: "typically takes less than a second"
}

TEST(Elastic, ResizeToDifferentDeviceTypeKeepsTrajectory) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");
  auto steady = make_engine(task, model, r1, 2);
  auto moved = make_engine(task, model, r2, 2);
  for (int i = 0; i < 4; ++i) {
    steady.train_step();
    moved.train_step();
  }
  moved.resize(make_devices(DeviceType::kK80, 4));  // V100 -> K80 migration
  for (int i = 0; i < 4; ++i) {
    steady.train_step();
    moved.train_step();
  }
  EXPECT_TRUE(steady.parameters().equals(moved.parameters()));
}

TEST(Elastic, StateMigrationCarriesBatchNormStatistics) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 2);
  for (int i = 0; i < 30; ++i) eng.train_step();
  const double acc_before = eng.evaluate(*task.val);
  eng.resize(make_devices(DeviceType::kV100, 8));
  // With migration, eval right after the resize is unchanged: same params,
  // same BN moving statistics.
  EXPECT_DOUBLE_EQ(eng.evaluate(*task.val), acc_before);
  for (std::int32_t vn = 0; vn < 8; ++vn)
    EXPECT_FALSE(eng.vn_state(vn).empty()) << "VN " << vn << " lost its state";
}

TEST(Elastic, ReconfigureRejectsBatchChange) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 2);
  EXPECT_THROW(eng.reconfigure(make_devices(DeviceType::kV100, 2),
                               VnMapping::even(8, 2, 128)),
               VfError);
}

TEST(Elastic, TrainerRunsScheduledResizes) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");

  auto steady = make_engine(task, model, r1, 4);
  auto elastic = make_engine(task, model, r2, 4);

  std::vector<ReconfigEvent> events;
  ReconfigEvent down;
  down.at_step = 3;
  down.devices = make_devices(DeviceType::kV100, 1);
  events.push_back(down);
  ReconfigEvent up;
  up.at_step = 7;
  up.devices = make_devices(DeviceType::kV100, 8);
  events.push_back(up);

  const TrainResult a = train(steady, *task.val, 1);
  const TrainResult b = train(elastic, *task.val, 1, events);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(elastic.mapping().num_devices(), 8);
}

}  // namespace
}  // namespace vf
