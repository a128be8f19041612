// Heterogeneous training (§5 of the paper): combine different GPU types in
// one job. The offline profiler measures each type; the solver picks an
// uneven batch split that equalizes step times; weighted gradient
// synchronization keeps the math identical to homogeneous training.
//
//   $ ./build/examples/heterogeneous_training
#include <cstdio>

#include "virtualflow.h"

int main() {
  using namespace vf;
  const std::uint64_t seed = 42;
  const std::int64_t global_batch = 2048;
  const ModelProfile& profile = model_profile("resnet50");

  // 1. Offline profiles: throughput-vs-batch curves per device type
  //    (§5.1.1 — in this library the "hardware" is the simulated device
  //    model, see docs/architecture.md).
  std::printf("profiling resnet50 on each device type...\n");
  std::map<DeviceType, OfflineProfile> profiles;
  for (const DeviceType t : {DeviceType::kV100, DeviceType::kP100}) {
    double cost_s = 0.0;
    profiles.emplace(t, profile_workload(t, profile, &cost_s));
    std::printf("  %-6s frontier batch %lld, profiling cost %.0f simulated s\n",
                device_type_name(t),
                static_cast<long long>(profiles.at(t).max_batch()), cost_s);
  }

  // 2. The solver: given 1 V100 + 2 P100, how should batch 2048 split?
  HeterogeneousSolver solver(profile, std::move(profiles));
  const auto best = solver.solve({{DeviceType::kV100, 1}, {DeviceType::kP100, 2}},
                                 global_batch);
  if (!best.has_value()) {
    std::printf("no feasible configuration\n");
    return 1;
  }
  std::printf("\nsolver configuration for batch %lld on 1 V100 + 2 P100:\n",
              static_cast<long long>(global_batch));
  for (const auto& a : best->assignment) {
    std::printf("  %-6s x%lld: per-GPU batch %lld as %lld VN(s) of %lld\n",
                device_type_name(a.type), static_cast<long long>(a.gpus),
                static_cast<long long>(a.per_gpu_batch),
                static_cast<long long>(a.vns_per_gpu),
                static_cast<long long>(a.per_vn_batch));
  }
  std::printf("  predicted: %.0f img/s (%s)\n", best->predicted_throughput,
              best->heterogeneous ? "heterogeneous" : "homogeneous fallback");

  // 3. Train under that configuration and compare against the same job on
  //    the V100 alone.
  ProxyTask task = make_task("imagenet-sim", seed);
  Sequential model = make_proxy_model("imagenet-sim", seed);
  auto run = [&](std::vector<Device> devices, VnMapping mapping, const char* label) {
    TrainRecipe recipe = make_recipe_with_batch("imagenet-sim", global_batch);
    recipe.epochs = 10;
    EngineConfig config;
    config.seed = seed;
    config.enforce_memory = false;  // proxy model; paper profile drives timing
    VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                             profile, std::move(devices), std::move(mapping), config);
    TrainResult res = train(engine, *task.val, recipe.epochs);
    std::printf("  %-24s accuracy %.2f%%  sim time %.0f s\n", label,
                100 * res.final_accuracy, res.total_sim_time_s);
    return res;
  };

  std::printf("\ntraining 10 epochs:\n");
  // Build the solver's mapping: VNs per device, in device order.
  std::vector<std::vector<std::int64_t>> per_device;
  std::vector<std::pair<DeviceType, std::int64_t>> groups;
  for (const auto& a : best->assignment) {
    groups.push_back({a.type, a.gpus});
    for (std::int64_t g = 0; g < a.gpus; ++g)
      per_device.push_back(std::vector<std::int64_t>(
          static_cast<std::size_t>(a.vns_per_gpu), a.per_vn_batch));
  }
  const TrainResult hetero =
      run(make_heterogeneous(groups), VnMapping::uneven(per_device), "1 V100 + 2 P100:");
  const TrainResult homog = run(make_devices(DeviceType::kV100, 1),
                                VnMapping::even(8, 1, global_batch), "1 V100 alone:");

  std::printf("\nspeedup from the idle P100s: %.2fx at matching accuracy (%+.2f pts)\n",
              homog.total_sim_time_s / hetero.total_sim_time_s,
              100 * (hetero.final_accuracy - homog.final_accuracy));
  return 0;
}
