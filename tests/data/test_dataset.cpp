// Synthetic dataset generators: determinism, geometry, split semantics,
// and the row store beneath example_into.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "data/dataset.h"
#include "util/common.h"

namespace vf {
namespace {

TEST(GaussianMixture, DeterministicExamples) {
  GaussianMixtureDataset a("t", 42, 100, 8, 4, 0.3F);
  GaussianMixtureDataset b("t", 42, 100, 8, 4, 0.3F);
  for (std::int64_t i = 0; i < 100; i += 7) {
    const Example ea = a.example(i);
    const Example eb = b.example(i);
    EXPECT_EQ(ea.label, eb.label);
    EXPECT_EQ(ea.features, eb.features);
  }
}

TEST(GaussianMixture, ExampleAccessIsOrderIndependent) {
  GaussianMixtureDataset a("t", 42, 100, 8, 4, 0.3F);
  const Example e50_first = a.example(50);
  GaussianMixtureDataset b("t", 42, 100, 8, 4, 0.3F);
  for (std::int64_t i = 0; i < 50; ++i) b.example(i);
  EXPECT_EQ(b.example(50).features, e50_first.features);
}

TEST(GaussianMixture, SeedsChangeData) {
  GaussianMixtureDataset a("t", 1, 10, 8, 4, 0.3F);
  GaussianMixtureDataset b("t", 2, 10, 8, 4, 0.3F);
  EXPECT_NE(a.example(0).features, b.example(0).features);
}

TEST(GaussianMixture, LabelsCoverClasses) {
  GaussianMixtureDataset d("t", 3, 2000, 4, 5, 0.3F);
  std::set<std::int64_t> labels;
  for (std::int64_t i = 0; i < 2000; ++i) labels.insert(d.example(i).label);
  EXPECT_EQ(labels.size(), 5u);
}

TEST(GaussianMixture, OffsetShiftsExamplesButKeepsCenters) {
  // With offset n, val example i equals what train example i+n would be —
  // same mixture, disjoint draws.
  GaussianMixtureDataset train("t", 4, 100, 8, 4, 0.3F, 0);
  GaussianMixtureDataset val("t", 4, 50, 8, 4, 0.3F, 100);
  GaussianMixtureDataset wide("t", 4, 150, 8, 4, 0.3F, 0);
  EXPECT_EQ(val.example(0).features, wide.example(100).features);
  EXPECT_NE(val.example(0).features, train.example(0).features);
}

TEST(GaussianMixture, NoiseControlsSpread) {
  GaussianMixtureDataset tight("t", 5, 500, 8, 2, 0.05F);
  GaussianMixtureDataset loose("t", 5, 500, 8, 2, 1.0F);
  // Average distance of example from its class's average position grows
  // with noise; proxy: feature variance.
  auto var = [](const Dataset& d) {
    double sum = 0.0, sum2 = 0.0;
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < 500; ++i) {
      for (float v : d.example(i).features) {
        sum += v;
        sum2 += v * v;
        ++n;
      }
    }
    const double m = sum / n;
    return sum2 / n - m * m;
  };
  EXPECT_GT(var(loose), var(tight) * 2.0);
}

TEST(GaussianMixture, InvalidParamsThrow) {
  EXPECT_THROW(GaussianMixtureDataset("t", 1, 0, 8, 4, 0.3F), VfError);
  EXPECT_THROW(GaussianMixtureDataset("t", 1, 10, 8, 1, 0.3F), VfError);
  EXPECT_THROW(GaussianMixtureDataset("t", 1, 10, 8, 4, 0.0F), VfError);
}

TEST(Teacher, DeterministicAndConsistent) {
  TeacherDataset a("t", 42, 50, 8, 2, 4, 0.1F);
  TeacherDataset b("t", 42, 50, 8, 2, 4, 0.1F);
  for (std::int64_t i = 0; i < 50; i += 5) {
    EXPECT_EQ(a.example(i).label, b.example(i).label);
    EXPECT_EQ(a.example(i).features, b.example(i).features);
  }
}

TEST(Teacher, LabelNoiseRateApproximatelyRespected) {
  // With noise p, labels differ from the clean teacher on ~p/2 of examples
  // (resampling can restore the original label for binary classes).
  TeacherDataset clean("t", 7, 4000, 8, 2, 4, 0.0F);
  TeacherDataset noisy("t", 7, 4000, 8, 2, 4, 0.4F);
  std::int64_t diff = 0;
  for (std::int64_t i = 0; i < 4000; ++i)
    if (clean.example(i).label != noisy.example(i).label) ++diff;
  EXPECT_NEAR(static_cast<double>(diff) / 4000.0, 0.2, 0.03);
}

TEST(Teacher, BothClassesPresent) {
  TeacherDataset d("t", 8, 1000, 8, 2, 4, 0.0F);
  std::set<std::int64_t> labels;
  for (std::int64_t i = 0; i < 1000; ++i) labels.insert(d.example(i).label);
  EXPECT_EQ(labels.size(), 2u);
}

TEST(Dataset, GatherMaterializesSelectedRows) {
  GaussianMixtureDataset d("t", 9, 100, 4, 3, 0.3F);
  Tensor feats;
  std::vector<std::int64_t> labels;
  d.gather({5, 10, 5}, feats, labels);
  EXPECT_EQ(feats.rows(), 3);
  EXPECT_EQ(feats.cols(), 4);
  EXPECT_EQ(labels.size(), 3u);
  // Row 0 and row 2 both reference example 5.
  for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(feats.at(0, j), feats.at(2, j));
  EXPECT_EQ(labels[0], labels[2]);
}

TEST(Dataset, ExampleIndexOutOfRangeThrows) {
  GaussianMixtureDataset d("t", 10, 10, 4, 3, 0.3F);
  EXPECT_THROW(d.example(10), VfError);
  EXPECT_THROW(d.example(-1), VfError);
}

// ------------------------------------------------------------ row store

using MakeDataset = std::unique_ptr<Dataset> (*)();

/// The two generators, each built fresh by its factory.
const std::array<std::pair<const char*, MakeDataset>, 2> kGenerators = {{
    {"gaussian-mixture",
     []() -> std::unique_ptr<Dataset> {
       return std::make_unique<GaussianMixtureDataset>("g", 21, 512, 8, 4, 0.3F, 64);
     }},
    {"teacher",
     []() -> std::unique_ptr<Dataset> {
       return std::make_unique<TeacherDataset>("t", 22, 512, 8, 3, 6, 0.2F, 64);
     }},
}};

/// Every row's first draw, one row at a time, on a fresh instance.
struct FirstDraws {
  std::vector<float> features;  // row i at i * dim
  std::vector<std::int64_t> labels;
};

FirstDraws first_draws(MakeDataset make) {
  const std::unique_ptr<Dataset> ds = make();
  const auto d = static_cast<std::size_t>(ds->feature_dim());
  FirstDraws out;
  out.features.resize(static_cast<std::size_t>(ds->size()) * d);
  out.labels.resize(static_cast<std::size_t>(ds->size()));
  for (std::int64_t i = 0; i < ds->size(); ++i)
    out.labels[static_cast<std::size_t>(i)] = ds->example_into(
        i, std::span<float>(out.features.data() + static_cast<std::size_t>(i) * d, d));
  return out;
}

/// Every row of a dataset of size n in a seeded shuffled order.
std::vector<std::int64_t> shuffled_rows(std::int64_t n, std::uint32_t seed) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  return idx;
}

/// Gathered row r equals the first draw of row idx[r], bit for bit.
void expect_first_draws(const FirstDraws& ref, const std::vector<std::int64_t>& idx,
                        const Tensor& features, const std::vector<std::int64_t>& labels) {
  const auto d = static_cast<std::size_t>(features.cols());
  ASSERT_EQ(features.rows(), static_cast<std::int64_t>(idx.size()));
  ASSERT_EQ(labels.size(), idx.size());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const auto i = static_cast<std::size_t>(idx[r]);
    EXPECT_EQ(std::memcmp(features.data().data() + r * d, ref.features.data() + i * d,
                          d * sizeof(float)),
              0)
        << "row " << i << " at position " << r;
    EXPECT_EQ(labels[r], ref.labels[i]) << "row " << i;
  }
}

TEST(RowStore, ColdAndWarmGathersMatchFirstDraws) {
  for (const auto& [name, make] : kGenerators) {
    SCOPED_TRACE(name);
    const FirstDraws ref = first_draws(make);
    const std::unique_ptr<Dataset> ds = make();
    std::vector<std::int64_t> idx = shuffled_rows(ds->size(), 5);
    // Repeats inside one call: the second touch of a row the same gather
    // drew a moment earlier must be a copy of that draw.
    idx.insert(idx.begin() + 7, idx[3]);
    idx.push_back(idx[0]);
    Tensor features;
    std::vector<std::int64_t> labels;
    ds->gather(idx, features, labels);  // cold: every row drawn and stored
    expect_first_draws(ref, idx, features, labels);
    ds->gather(idx, features, labels);  // warm: every row copied
    expect_first_draws(ref, idx, features, labels);
  }
}

TEST(RowStore, ConcurrentGathersMatchSerialFirstDraws) {
  constexpr int kThreads = 8;
  for (const auto& [name, make] : kGenerators) {
    SCOPED_TRACE(name);
    const FirstDraws ref = first_draws(make);
    const std::unique_ptr<Dataset> ds = make();
    const std::int64_t n = ds->size();
    // Thread t gathers a shuffled window of 3n/4 rows starting at t*n/8, so
    // every row is first touched by several threads at once.
    std::vector<std::vector<std::int64_t>> idx(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (const std::int64_t k : shuffled_rows(n * 3 / 4, 100 + static_cast<std::uint32_t>(t)))
        idx[static_cast<std::size_t>(t)].push_back((k + t * n / kThreads) % n);
    }
    std::array<std::array<Tensor, 2>, kThreads> features;
    std::array<std::array<std::vector<std::int64_t>, 2>, kThreads> labels;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto u = static_cast<std::size_t>(t);
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (std::size_t pass = 0; pass < 2; ++pass)
          ds->gather(idx[u], features[u][pass], labels[u][pass]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t pass = 0; pass < 2; ++pass)
        expect_first_draws(ref, idx[t], features[t][pass], labels[t][pass]);
    }
  }
}

/// Pass-through shaped like vfbench's CountingDataset: it counts the rows
/// the library generates through it.
class CountingDataset : public Dataset {
 public:
  explicit CountingDataset(const Dataset& inner) : inner_(inner) {}

  std::int64_t size() const override { return inner_.size(); }
  std::int64_t feature_dim() const override { return inner_.feature_dim(); }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::string name() const override { return inner_.name(); }
  Example example(std::int64_t i) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    return inner_.example(i);
  }
  std::int64_t example_into(std::int64_t i, std::span<float> out) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    return inner_.example_into(i, out);
  }

  std::int64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  const Dataset& inner_;
  mutable std::atomic<std::int64_t> rows_{0};
};

TEST(RowStore, PassThroughSeesOneExampleIntoPerGatheredRow) {
  // The store sits beneath example_into, so a decorator above it counts
  // every gathered row whether the row is drawn or copied.
  GaussianMixtureDataset inner("t", 24, 64, 4, 3, 0.3F);
  const CountingDataset counted(inner);
  const std::vector<std::int64_t> idx = {5, 9, 5, 63, 0, 9};
  Tensor features;
  std::vector<std::int64_t> labels;
  counted.gather(idx, features, labels);
  EXPECT_EQ(counted.rows(), 6);
  counted.gather(idx, features, labels);
  EXPECT_EQ(counted.rows(), 12);
}

TEST(RowStore, SizeBeyondSlotIndexThrows) {
  // A row's slot is stored as slot + 2 in a 32-bit state word, so 2^32
  // rows do not fit; the check comes before the store is allocated.
  constexpr std::int64_t kRows = std::int64_t{1} << 32;
  EXPECT_THROW(GaussianMixtureDataset("t", 1, kRows, 8, 4, 0.3F), VfError);
  EXPECT_THROW(TeacherDataset("t", 1, kRows, 8, 2, 4, 0.1F), VfError);
}

}  // namespace
}  // namespace vf
