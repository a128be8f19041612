// VirtualFlowEngine behaviour: step mechanics, the simulated clock,
// evaluation, and memory enforcement.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "core/trainer.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

struct Rig {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");

  VirtualFlowEngine engine(std::int64_t vns, std::int64_t num_devices,
                           DeviceType type = DeviceType::kV100,
                           EngineConfig cfg = {}) {
    cfg.seed = 42;
    cfg.enforce_memory = false;
    return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                             model_profile("bert-base"), make_devices(type, num_devices),
                             VnMapping::even(vns, num_devices, recipe.global_batch), cfg);
  }
};

TEST(Engine, StepAdvancesCountersAndClock) {
  Rig rig;
  auto eng = rig.engine(8, 2);
  EXPECT_EQ(eng.step(), 0);
  const StepStats s = eng.train_step();
  EXPECT_EQ(eng.step(), 1);
  EXPECT_EQ(s.step, 1);
  EXPECT_GT(s.step_time_s, 0.0);
  EXPECT_DOUBLE_EQ(s.sim_time_s, eng.sim_time_s());
  EXPECT_GT(s.throughput, 0.0);
}

TEST(Engine, FirstStepPaysGraphOptimization) {
  // Fig 6: "The first step is slower due to initial graph optimizations."
  Rig rig;
  auto eng = rig.engine(8, 2);
  const double t1 = eng.train_step().step_time_s;
  const double t2 = eng.train_step().step_time_s;
  EXPECT_GT(t1, t2 + 0.9 * device_spec(DeviceType::kV100).first_step_extra_s);
}

TEST(Engine, LossDecreasesOverTraining) {
  Rig rig;
  auto eng = rig.engine(8, 1);
  const double first = eng.train_step().loss;
  for (int i = 0; i < 60; ++i) eng.train_step();
  const double later = eng.train_step().loss;
  EXPECT_LT(later, first);
}

TEST(Engine, MoreDevicesShortenSimulatedStep) {
  Rig a, b;
  auto eng1 = a.engine(8, 1);
  auto eng4 = b.engine(8, 4);
  eng1.train_step();
  eng4.train_step();
  const double t1 = eng1.train_step().step_time_s;
  const double t4 = eng4.train_step().step_time_s;
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 4.5);  // sublinear because of comm overhead
}

TEST(Engine, CommTimeZeroOnSingleDevice) {
  Rig rig;
  auto eng = rig.engine(8, 1);
  EXPECT_DOUBLE_EQ(eng.train_step().comm_time_s, 0.0);
  Rig rig2;
  auto eng2 = rig2.engine(8, 2);
  EXPECT_GT(eng2.train_step().comm_time_s, 0.0);
}

TEST(Engine, EvaluateReflectsTraining) {
  Rig rig;
  auto eng = rig.engine(8, 1);
  const double before = eng.evaluate(*rig.task.val);
  for (int i = 0; i < 150; ++i) eng.train_step();
  const double after = eng.evaluate(*rig.task.val);
  EXPECT_GT(after, before + 0.2);
  EXPECT_GT(after, 0.8);
}

TEST(Engine, EpochAccounting) {
  Rig rig;
  auto eng = rig.engine(8, 1);
  const std::int64_t spe = eng.steps_per_epoch();
  EXPECT_EQ(spe, rig.task.train->size() / rig.recipe.global_batch);
  for (std::int64_t i = 0; i < spe; ++i) eng.train_step();
  EXPECT_EQ(eng.epoch(), 1);
}

TEST(Engine, MappingDeviceCountMismatchThrows) {
  Rig rig;
  EngineConfig cfg;
  cfg.enforce_memory = false;
  EXPECT_THROW(
      VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                        *rig.task.train, model_profile("bert-base"),
                        make_devices(DeviceType::kV100, 3),
                        VnMapping::even(8, 2, rig.recipe.global_batch), cfg),
      VfError);
}

TEST(Engine, MemoryEnforcementRejectsOversizedVn) {
  // bert-base at per-VN batch 64 exceeds one V100 (Table 2 anchor); the
  // engine must refuse to build, mirroring the real framework's OOM.
  Rig rig;
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = true;
  EXPECT_THROW(
      VirtualFlowEngine(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                        *rig.task.train, model_profile("bert-base"),
                        make_devices(DeviceType::kV100, 1),
                        VnMapping::even(1, 1, 64), cfg),
      OomError);
  // Eight VNs of 8 fit fine.
  VirtualFlowEngine ok(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                       *rig.task.train, model_profile("bert-base"),
                       make_devices(DeviceType::kV100, 1),
                       VnMapping::even(8, 1, 64), cfg);
  EXPECT_EQ(ok.mapping().total_vns(), 8);
}

TEST(Engine, GradBufferOnlyWithMultipleVns) {
  Rig rig;
  auto eng = rig.engine(8, 4);  // 2 VNs per device
  EXPECT_TRUE(eng.uses_grad_buffer(0));
  Rig rig2;
  auto eng2 = rig2.engine(8, 8);  // 1 VN per device: stock fallback (§3.2)
  EXPECT_FALSE(eng2.uses_grad_buffer(0));
  EXPECT_LT(eng2.device_memory(0).grad_buffer, 1.0);
}

TEST(Engine, ThroughputScalesWithDevicesInSimTime) {
  // Over a fast (NVLink-class) interconnect, compute scaling dominates.
  // (Over the default 16 Gbps link, bert-base at global batch 64 is
  // comm-bound and 4 GPUs barely beat 2 — which is realistic, and why the
  // paper's small-batch jobs keep modest GPU demands.)
  EngineConfig cfg;
  cfg.link.bandwidth_bytes = 150e9;
  Rig a, b;
  auto eng2 = a.engine(8, 2, DeviceType::kV100, cfg);
  auto eng4 = b.engine(8, 4, DeviceType::kV100, cfg);
  eng2.train_step();
  eng4.train_step();
  EXPECT_GT(eng4.train_step().throughput, eng2.train_step().throughput * 1.5);
}

TEST(Engine, HeterogeneousMappingRuns) {
  Rig rig;
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  // 48 on a V100 VN + two 8-example VNs on a P100.
  auto devices = make_heterogeneous({{DeviceType::kV100, 1}, {DeviceType::kP100, 1}});
  VnMapping mapping = VnMapping::uneven({{48}, {8, 8}});
  VirtualFlowEngine eng(rig.model, *rig.recipe.optimizer, *rig.recipe.schedule,
                        *rig.task.train, model_profile("bert-base"), devices, mapping,
                        cfg);
  const StepStats s = eng.train_step();
  EXPECT_GT(s.throughput, 0.0);
  EXPECT_EQ(eng.mapping().global_batch(), 64);
}

}  // namespace
}  // namespace vf
