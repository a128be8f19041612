// Dataset abstraction and synthetic dataset generators.
//
// The paper trains on ImageNet and GLUE; neither is available offline, so
// we substitute deterministic synthetic classification tasks (see
// docs/architecture.md, "Layer map"). Each dataset is a pure function of
// its seed: example i is identical across processes, devices, and
// virtual-node mappings — the property the reproducibility experiments
// need from the data pipeline. A row is drawn on its first touch and then
// copied from the dataset's row store (SyntheticDataset), so a row
// gathered again costs a copy, not a redraw. The generator stands in for
// an input pipeline: the store removes the generator's cost and says
// nothing about the cost of decoding real data.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace vf {

/// One labelled example.
struct Example {
  std::vector<float> features;
  std::int64_t label = 0;
};

/// Abstract dataset: fixed size, feature dimension, and class count.
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual std::int64_t size() const = 0;
  virtual std::int64_t feature_dim() const = 0;
  virtual std::int64_t num_classes() const = 0;
  virtual std::string name() const = 0;

  /// Deterministically generates example `i` (0 <= i < size()).
  virtual Example example(std::int64_t i) const = 0;

  /// Writes example `i`'s features into `out_features` (exactly
  /// feature_dim() floats) and returns its label. The hot-path form of
  /// example(): the per-VN gather loop calls it once per row without
  /// materializing an Example.
  virtual std::int64_t example_into(std::int64_t i, std::span<float> out_features) const = 0;

  /// Materializes examples into a feature matrix and label vector.
  /// `indices` maps batch position -> dataset index. Both outputs are
  /// reshaped in place and reuse their buffers — a warm caller-owned pair
  /// makes repeated gathers allocation-free.
  void gather(const std::vector<std::int64_t>& indices, Tensor& features,
              std::vector<std::int64_t>& labels) const;
};

/// Base of the synthetic generators: owns their geometry and a row store.
/// Row i is drawn once, on its first example_into(), through the
/// subclass's generate_into() and published into the store; every later
/// call copies it out. Rows are pure functions of (seed, i), so a copy has
/// the bits of a fresh draw.
///
/// The store keeps one atomic state word per row, zeroed at construction,
/// and one anonymous mapping of features and labels, left untouched so
/// only drawn rows become resident. Slots fill in first-draw order, so a
/// step's new rows share pages. Publication is lock-free and no caller waits: the first
/// drawer claims the row (state 0 -> 1), copies its draw into the next
/// slot and publishes it with a release store (state = slot + 2); a caller
/// racing on the same first touch returns its own, identical draw.
class SyntheticDataset : public Dataset {
 public:
  ~SyntheticDataset() override;
  // Owns the mapping.
  SyntheticDataset(const SyntheticDataset&) = delete;
  SyntheticDataset& operator=(const SyntheticDataset&) = delete;

  std::int64_t size() const final { return n_; }
  std::int64_t feature_dim() const final { return dim_; }
  std::int64_t num_classes() const final { return classes_; }
  std::string name() const final { return name_; }
  Example example(std::int64_t i) const final;
  std::int64_t example_into(std::int64_t i, std::span<float> out_features) const final;

 protected:
  /// Rejects a size beyond the slot index (2^32 - 2 rows) before it
  /// allocates the store.
  SyntheticDataset(std::string name, std::uint64_t seed, std::int64_t n, std::int64_t dim,
                   std::int64_t classes);

  std::uint64_t seed() const { return seed_; }

 private:
  /// Draws row `i` into `out` (exactly feature_dim() floats; i is in
  /// range) and returns its label. Must be a pure function of (seed, i).
  virtual std::int64_t generate_into(std::int64_t i, std::span<float> out) const = 0;

  std::string name_;
  std::uint64_t seed_;
  std::int64_t n_, dim_, classes_;
  mutable std::atomic<std::uint32_t> next_slot_{0};
  // Row i's state: 0 = absent, 1 = being stored, k >= 2 = stored in slot k - 2.
  std::unique_ptr<std::atomic<std::uint32_t>[]> state_;
  // The mapping holds slot k's feature row at features_ + k * dim_, then
  // every slot's label.
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  float* features_ = nullptr;
  std::int32_t* labels_ = nullptr;
};

/// Mixture of Gaussians: class c is an isotropic Gaussian around a random
/// class center; `noise` controls overlap and hence the achievable (Bayes)
/// accuracy. Used as the "imagenet-sim" stand-in where the headline is a
/// target accuracy reached only with well-tuned optimization.
class GaussianMixtureDataset : public SyntheticDataset {
 public:
  /// `index_offset` shifts the per-example random streams, letting a
  /// validation split share the class centers (same seed) while drawing
  /// disjoint examples (offset past the training range).
  GaussianMixtureDataset(std::string name, std::uint64_t seed, std::int64_t n,
                         std::int64_t dim, std::int64_t classes, float noise,
                         std::int64_t index_offset = 0);

 private:
  std::int64_t generate_into(std::int64_t i, std::span<float> out) const override;

  float noise_;
  std::int64_t index_offset_ = 0;
  std::vector<std::vector<float>> centers_;
};

/// Teacher-network dataset: inputs are Gaussian, labels come from a fixed
/// random two-layer teacher, and a fraction `label_noise` of labels are
/// resampled uniformly. The Bayes accuracy is therefore approximately
/// 1 - label_noise * (1 - 1/classes), which lets each synthetic GLUE task
/// be calibrated to its paper target accuracy.
class TeacherDataset : public SyntheticDataset {
 public:
  /// `index_offset` as in GaussianMixtureDataset: validation splits share
  /// the teacher weights but draw disjoint examples.
  TeacherDataset(std::string name, std::uint64_t seed, std::int64_t n,
                 std::int64_t dim, std::int64_t classes, std::int64_t hidden,
                 float label_noise, std::int64_t index_offset = 0);

 private:
  std::int64_t generate_into(std::int64_t i, std::span<float> out) const override;

  std::int64_t hidden_;
  float label_noise_;
  std::int64_t index_offset_ = 0;
  // Teacher weights: dim x hidden and hidden x classes, row-major.
  std::vector<float> w1_, w2_;
};

}  // namespace vf
