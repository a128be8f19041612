// Related-work positioning test (§8): on a single device, virtual-node
// processing generalizes gradient accumulation. A hand-rolled gradient-
// accumulation loop (micro-batch forward/backward, accumulate, one update)
// must produce exactly the engine's result.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "util/common.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf {
namespace {

TEST(GradAccumulation, EngineMatchesHandRolledLoop) {
  const std::uint64_t seed = 42;
  const std::int64_t B = 64, vns = 4, steps = 12;
  ProxyTask task = make_task("qnli-sim", seed);

  // --- Engine under test.
  Sequential model = make_proxy_model("qnli-sim", seed);
  TrainRecipe recipe = make_recipe("qnli-sim");
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.enforce_memory = false;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, 1),
                           VnMapping::even(vns, 1, B), cfg);
  for (std::int64_t s = 0; s < steps; ++s) engine.train_step();

  // --- Hand-rolled gradient accumulation with identical inputs: same
  // epoch permutation, same micro-batch slices, same per-VN contexts.
  Sequential manual = make_proxy_model("qnli-sim", seed);
  TrainRecipe mrecipe = make_recipe("qnli-sim");
  EpochBatcher batcher(*task.train, seed, B);
  const auto slices = split_batch(B, std::vector<std::int64_t>(vns, B / vns));
  std::vector<VnState> states(static_cast<std::size_t>(vns));

  MicroBatch mb;
  std::vector<std::int64_t> idx;
  Tensor flat;
  for (std::int64_t s = 0; s < steps; ++s) {
    const std::int64_t epoch = s / batcher.batches_per_epoch();
    const std::int64_t bie = s % batcher.batches_per_epoch();
    Tensor accum({manual.param_count()});
    for (std::int64_t v = 0; v < vns; ++v) {
      batcher.micro_batch_into(epoch, bie, slices, v, mb, idx);
      ExecContext ctx;
      ctx.seed = seed;
      ctx.step = s;
      ctx.vn_id = static_cast<std::int32_t>(v);
      ctx.training = true;
      ctx.state = &states[static_cast<std::size_t>(v)];
      manual.zero_grad();
      const Tensor logits = manual.forward(mb.features, ctx);
      LossResult loss;
      softmax_cross_entropy_into(logits, mb.labels, loss);
      manual.backward(loss.grad_logits);
      manual.flatten_grads_into(flat);
      accum.add_(flat);
    }
    accum.scale_(1.0F / static_cast<float>(B));
    manual.load_grads(accum);
    mrecipe.optimizer->apply(manual, mrecipe.schedule->lr(s));
  }

  EXPECT_TRUE(engine.parameters().equals(manual.flatten_params()))
      << "max diff " << engine.parameters().max_abs_diff(manual.flatten_params());
}

}  // namespace
}  // namespace vf
