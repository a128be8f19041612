// Training faults: VN remap on kill keeps the trajectory bit-exact
// (across worker counts, against a from-scratch run on the surviving
// device set, and through a fail_device + regrow), stragglers and comm
// retries are timing-only.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "fault/fault.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

EngineConfig test_cfg(std::int64_t num_threads = 0) {
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  cfg.num_threads = num_threads;
  return cfg;
}

VirtualFlowEngine make_engine(const ProxyTask& task, const Sequential& model,
                              const TrainRecipe& recipe, std::int64_t devices,
                              std::int64_t num_threads = 0) {
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, devices),
                           VnMapping::even(8, devices, recipe.global_batch),
                           test_cfg(num_threads));
}

TEST(FaultTraining, InjectedKillIsBitExactAcrossWorkerCounts) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);

  // The same chaos seed replays the same plan for every engine; the kill
  // lands mid-run, remaps VNs onto survivors, and the trajectory must not
  // depend on host threading one bit.
  std::vector<Tensor> params;
  std::vector<double> sim_times;
  for (const std::int64_t workers : {0, 2, 8}) {
    TrainRecipe recipe = make_recipe("qnli-sim");
    auto eng = make_engine(task, model, recipe, 4, workers);
    fault::ChaosConfig cfg;
    cfg.kills = 1;
    cfg.stragglers = 1;
    cfg.comm_faults = 1;
    cfg.max_device = 3;
    fault::FaultInjector inj(fault::FaultPlan::chaos(7, cfg));
    inj.train_steps(eng, 12);
    params.push_back(eng.parameters());
    sim_times.push_back(eng.sim_time_s());
  }
  EXPECT_TRUE(params[0].equals(params[1]));
  EXPECT_TRUE(params[0].equals(params[2]));
  EXPECT_DOUBLE_EQ(sim_times[0], sim_times[1]);
  EXPECT_DOUBLE_EQ(sim_times[0], sim_times[2]);
}

TEST(FaultTraining, PostKillTrajectoryMatchesSurvivingSetFromScratch) {
  // The §7 invariant, driven through the injector: after a kill, the
  // faulted engine's parameter trajectory is identical to an engine that
  // ran on the surviving device count from the start — the VN remap is
  // invisible to the math.
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");

  auto faulted = make_engine(task, model, r1, 4);
  auto survivors = make_engine(task, model, r2, 3);

  fault::FaultPlan plan;
  plan.kill(faulted.sim_time_s(), 2);  // dies before the first step
  fault::FaultInjector inj(std::move(plan));
  inj.train_steps(faulted, 10);
  for (int i = 0; i < 10; ++i) survivors.train_step();

  EXPECT_EQ(faulted.mapping().num_devices(), 3);
  EXPECT_TRUE(faulted.parameters().equals(survivors.parameters()));
}

TEST(FaultTraining, StragglerSlowsTheClockButNotTheTrajectory) {
  ProxyTask task = make_task("cola-sim", 42);
  Sequential model = make_proxy_model("cola-sim", 42);
  TrainRecipe r1 = make_recipe("cola-sim");
  TrainRecipe r2 = make_recipe("cola-sim");

  auto baseline = make_engine(task, model, r1, 2);
  auto slowed = make_engine(task, model, r2, 2);
  const StepStats base_step = baseline.train_step();
  slowed.set_device_slowdown(0, 2.0);
  const StepStats slow_step = slowed.train_step();

  // Timing-only: the barrier waits for the straggler, the math is
  // untouched.
  EXPECT_GT(slow_step.step_time_s, base_step.step_time_s);
  EXPECT_DOUBLE_EQ(slow_step.loss, base_step.loss);
  EXPECT_TRUE(baseline.parameters().equals(slowed.parameters()));

  // Reconfiguration resets the multipliers (the slots are remapped).
  slowed.resize(make_devices(DeviceType::kV100, 4));
  EXPECT_DOUBLE_EQ(slowed.device_slowdown(0), 1.0);
}

TEST(FaultTraining, CommRetryChargesOneExtraAllReduce) {
  ProxyTask task = make_task("cola-sim", 42);
  Sequential model = make_proxy_model("cola-sim", 42);
  TrainRecipe r1 = make_recipe("cola-sim");
  TrainRecipe r2 = make_recipe("cola-sim");

  auto baseline = make_engine(task, model, r1, 2);
  auto faulted = make_engine(task, model, r2, 2);
  faulted.inject_comm_retry();
  const StepStats base_step = baseline.train_step();
  const StepStats retry_step = faulted.train_step();
  EXPECT_DOUBLE_EQ(retry_step.comm_time_s, 2.0 * base_step.comm_time_s);
  EXPECT_DOUBLE_EQ(retry_step.loss, base_step.loss);

  // One-shot: the next step is back to the normal charge.
  const StepStats after = faulted.train_step();
  EXPECT_DOUBLE_EQ(after.comm_time_s, baseline.train_step().comm_time_s);
  EXPECT_TRUE(baseline.parameters().equals(faulted.parameters()));
}

TEST(FaultTolerance, DeviceFailureContinuesBitExactly) {
  // §7: when a worker dies, its virtual nodes migrate to survivors and
  // training continues as if nothing happened (vs. checkpoint-restart).
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe r1 = make_recipe("qnli-sim");
  TrainRecipe r2 = make_recipe("qnli-sim");

  auto healthy = make_engine(task, model, r1, 4);
  auto faulty = make_engine(task, model, r2, 4);
  for (int i = 0; i < 6; ++i) {
    healthy.train_step();
    faulty.train_step();
  }
  faulty.fail_device(2);  // device 2 dies
  EXPECT_EQ(faulty.mapping().num_devices(), 3);
  EXPECT_EQ(faulty.mapping().total_vns(), 8);
  for (int i = 0; i < 6; ++i) {
    healthy.train_step();
    faulty.train_step();
  }
  // Replacement arrives: scale back up.
  faulty.resize(make_devices(DeviceType::kV100, 4));
  for (int i = 0; i < 6; ++i) {
    healthy.train_step();
    faulty.train_step();
  }
  EXPECT_TRUE(healthy.parameters().equals(faulty.parameters()));
}

TEST(FaultTolerance, CannotLoseLastDevice) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 1);
  EXPECT_THROW(eng.fail_device(0), VfError);
  auto eng2 = make_engine(task, model, recipe, 2);
  EXPECT_THROW(eng2.fail_device(5), VfError);  // bad index
}

TEST(FaultTolerance, RepeatedFailuresDownToOneDevice) {
  ProxyTask task = make_task("qnli-sim", 42);
  Sequential model = make_proxy_model("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  auto eng = make_engine(task, model, recipe, 4);
  eng.train_step();
  eng.fail_device(0);
  eng.train_step();
  eng.fail_device(0);
  eng.train_step();
  eng.fail_device(1);
  EXPECT_EQ(eng.mapping().num_devices(), 1);
  const StepStats s = eng.train_step();
  EXPECT_GT(s.throughput, 0.0);
}

}  // namespace
}  // namespace vf
