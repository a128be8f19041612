// Google-benchmark microbenchmarks for the hot paths of the library: the
// tensor kernels behind training, the ordered gradient reduction, the data
// pipeline, and a full engine step at several virtual-node counts (the
// host-side cost of virtual-node processing itself — the paper's claim is
// that aggregation adds a small constant, not O(V), overhead).
#include <benchmark/benchmark.h>

#include "virtualflow.h"

namespace {

using namespace vf;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = state.range(0);
  CounterRng rng(1, 0);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128);

void BM_WeightedSum(benchmark::State& state) {
  const auto parts = state.range(0);
  CounterRng rng(2, 0);
  std::vector<Tensor> bufs;
  std::vector<const Tensor*> ptrs;
  std::vector<double> weights;
  for (std::int64_t i = 0; i < parts; ++i) {
    bufs.push_back(Tensor::randn({32768}, rng));
  }
  for (const auto& b : bufs) {
    ptrs.push_back(&b);
    weights.push_back(1.0 / static_cast<double>(parts));
  }
  for (auto _ : state) {
    Tensor out = weighted_sum(ptrs, weights);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * parts * 32768);
}
BENCHMARK(BM_WeightedSum)->Arg(2)->Arg(8)->Arg(32);

void BM_EpochPermutation(benchmark::State& state) {
  const auto n = state.range(0);
  std::int64_t epoch = 0;
  for (auto _ : state) {
    auto p = epoch_permutation(n, 42, epoch++);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EpochPermutation)->Arg(4096)->Arg(65536);

/// A 256-row micro-batch gathered from a 65536 x 32 imagenet-sim-like
/// mixture. Rows are drawn on first touch and copied after, so the gather
/// is timed twice: warm (every row a copy from the row store) and cold
/// (every row drawn, on a freshly built dataset).
constexpr std::int64_t kGatherRows = 65536;

std::unique_ptr<GaussianMixtureDataset> gather_dataset() {
  return std::make_unique<GaussianMixtureDataset>("bench", 7, kGatherRows, 32, 16, 0.38F);
}

std::vector<std::int64_t> gather_indices() {
  std::vector<std::int64_t> idx(256);
  for (std::size_t i = 0; i < idx.size(); ++i)
    idx[i] = static_cast<std::int64_t>(i * 131) % kGatherRows;
  return idx;
}

void BM_DatasetGatherWarm(benchmark::State& state) {
  const auto ds = gather_dataset();
  const std::vector<std::int64_t> idx = gather_indices();
  Tensor f;
  std::vector<std::int64_t> labels;
  ds->gather(idx, f, labels);  // stores every row
  for (auto _ : state) {
    ds->gather(idx, f, labels);
    benchmark::DoNotOptimize(f.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(idx.size()));
}
BENCHMARK(BM_DatasetGatherWarm);

void BM_DatasetGatherCold(benchmark::State& state) {
  const std::vector<std::int64_t> idx = gather_indices();
  Tensor f;
  std::vector<std::int64_t> labels;
  std::unique_ptr<GaussianMixtureDataset> ds;
  for (auto _ : state) {
    state.PauseTiming();
    ds = gather_dataset();  // construction (and the last one's teardown) untimed
    state.ResumeTiming();
    ds->gather(idx, f, labels);
    benchmark::DoNotOptimize(f.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(idx.size()));
}
BENCHMARK(BM_DatasetGatherCold);

/// Full engine training step at V virtual nodes on one simulated device.
/// Host time should scale ~linearly with data volume (V x per-VN batch),
/// not super-linearly with V — the gradient buffer is O(model).
void BM_EngineStepPerVnCount(benchmark::State& state) {
  const auto vns = state.range(0);
  ProxyTask task = make_task("qnli-sim", 42);
  TrainRecipe recipe = make_recipe("qnli-sim");
  Sequential model = make_proxy_model("qnli-sim", 42);
  EngineConfig cfg;
  cfg.seed = 42;
  cfg.enforce_memory = false;
  VirtualFlowEngine eng(model, *recipe.optimizer, *recipe.schedule, *task.train,
                        model_profile("bert-base"), make_devices(DeviceType::kV100, 1),
                        VnMapping::even(vns, 1, recipe.global_batch), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.train_step().loss);
  }
  state.SetItemsProcessed(state.iterations() * recipe.global_batch);
}
BENCHMARK(BM_EngineStepPerVnCount)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_RingAllreduceCostModel(benchmark::State& state) {
  const LinkSpec link;
  double bytes = 102.45e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring_allreduce_time_s(bytes, 16, link));
  }
}
BENCHMARK(BM_RingAllreduceCostModel);

void BM_SolverSolve(benchmark::State& state) {
  const ModelProfile& m = model_profile("resnet50");
  std::map<DeviceType, OfflineProfile> profiles;
  profiles.emplace(DeviceType::kV100, profile_workload(DeviceType::kV100, m));
  profiles.emplace(DeviceType::kP100, profile_workload(DeviceType::kP100, m));
  profiles.emplace(DeviceType::kK80, profile_workload(DeviceType::kK80, m));
  HeterogeneousSolver solver(m, std::move(profiles));
  for (auto _ : state) {
    auto r = solver.solve(
        {{DeviceType::kV100, 2}, {DeviceType::kP100, 8}, {DeviceType::kK80, 16}}, 8192);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SolverSolve);

}  // namespace

BENCHMARK_MAIN();
