// Dataset abstraction and synthetic dataset generators.
//
// The paper trains on ImageNet and GLUE; neither is available offline, so
// we substitute deterministic synthetic classification tasks (see
// docs/architecture.md, "Layer map"). Each dataset is a pure function of its seed: example i is
// generated on demand and is identical across processes, devices, and
// virtual-node mappings — the property the reproducibility experiments
// need from the data pipeline.
#pragma once

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
  /// materializing an Example. The default wraps example(); concrete
  /// datasets override it to generate in place.
  virtual std::int64_t example_into(std::int64_t i, std::span<float> out_features) const;

  /// Materializes examples into a feature matrix and label vector.
  /// `indices` maps batch position -> dataset index. Both outputs are
  /// reshaped in place and reuse their buffers — a warm caller-owned pair
  /// makes repeated gathers allocation-free.
  void gather(const std::vector<std::int64_t>& indices, Tensor& features,
              std::vector<std::int64_t>& labels) const;
};

/// Mixture of Gaussians: class c is an isotropic Gaussian around a random
/// class center; `noise` controls overlap and hence the achievable (Bayes)
/// accuracy. Used as the "imagenet-sim" stand-in where the headline is a
/// target accuracy reached only with well-tuned optimization.
class GaussianMixtureDataset : public Dataset {
 public:
  /// `index_offset` shifts the per-example random streams, letting a
  /// validation split share the class centers (same seed) while drawing
  /// disjoint examples (offset past the training range).
  GaussianMixtureDataset(std::string name, std::uint64_t seed, std::int64_t n,
                         std::int64_t dim, std::int64_t classes, float noise,
                         std::int64_t index_offset = 0);

  std::int64_t size() const override { return n_; }
  std::int64_t feature_dim() const override { return dim_; }
  std::int64_t num_classes() const override { return classes_; }
  std::string name() const override { return name_; }
  Example example(std::int64_t i) const override;
  std::int64_t example_into(std::int64_t i, std::span<float> out_features) const override;

 private:
  std::string name_;
  std::uint64_t seed_;
  std::int64_t n_, dim_, classes_;
  float noise_;
  std::int64_t index_offset_ = 0;
  std::vector<std::vector<float>> centers_;
};

/// Teacher-network dataset: inputs are Gaussian, labels come from a fixed
/// random two-layer teacher, and a fraction `label_noise` of labels are
/// resampled uniformly. The Bayes accuracy is therefore approximately
/// 1 - label_noise * (1 - 1/classes), which lets each synthetic GLUE task
/// be calibrated to its paper target accuracy.
class TeacherDataset : public Dataset {
 public:
  /// `index_offset` as in GaussianMixtureDataset: validation splits share
  /// the teacher weights but draw disjoint examples.
  TeacherDataset(std::string name, std::uint64_t seed, std::int64_t n,
                 std::int64_t dim, std::int64_t classes, std::int64_t hidden,
                 float label_noise, std::int64_t index_offset = 0);

  std::int64_t size() const override { return n_; }
  std::int64_t feature_dim() const override { return dim_; }
  std::int64_t num_classes() const override { return classes_; }
  std::string name() const override { return name_; }
  Example example(std::int64_t i) const override;
  std::int64_t example_into(std::int64_t i, std::span<float> out_features) const override;

 private:
  std::string name_;
  std::uint64_t seed_;
  std::int64_t n_, dim_, classes_, hidden_;
  float label_noise_;
  std::int64_t index_offset_ = 0;
  // Teacher weights: dim x hidden and hidden x classes, row-major.
  std::vector<float> w1_, w2_;
};

/// Two-interleaved-spirals binary task; small and hard enough that batch
/// size visibly changes the convergence trajectory (used by the batch-size
/// exploration experiments, Fig 9).
class SpiralsDataset : public Dataset {
 public:
  SpiralsDataset(std::string name, std::uint64_t seed, std::int64_t n, float noise);

  std::int64_t size() const override { return n_; }
  std::int64_t feature_dim() const override { return 2; }
  std::int64_t num_classes() const override { return 2; }
  std::string name() const override { return name_; }
  Example example(std::int64_t i) const override;
  std::int64_t example_into(std::int64_t i, std::span<float> out_features) const override;

 private:
  std::string name_;
  std::uint64_t seed_;
  std::int64_t n_;
  float noise_;
};

}  // namespace vf
