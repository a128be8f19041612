#include "data/dataset.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/common.h"

namespace vf {

void Dataset::gather(const std::vector<std::int64_t>& indices, Tensor& features,
                     std::vector<std::int64_t>& labels) const {
  const auto n = static_cast<std::int64_t>(indices.size());
  const std::int64_t d = feature_dim();
  // Reshape in place: a warm caller-owned pair makes the gather
  // allocation-free, and example_into writes each row into the matrix.
  features.ensure_shape({n, d});
  labels.resize(static_cast<std::size_t>(n));
  float* row = features.data().data();
  for (std::int64_t r = 0; r < n; ++r, row += d) {
    labels[static_cast<std::size_t>(r)] = example_into(
        indices[static_cast<std::size_t>(r)], std::span<float>(row, static_cast<std::size_t>(d)));
  }
}

// -------------------------------------------------------- SyntheticDataset

SyntheticDataset::SyntheticDataset(std::string name, std::uint64_t seed, std::int64_t n,
                                   std::int64_t dim, std::int64_t classes)
    : name_(std::move(name)), seed_(seed), n_(n), dim_(dim), classes_(classes) {
  check(n > 0 && dim > 0 && classes > 1, "invalid synthetic dataset parameters");
  // Slot k is stored as k + 2 in a 32-bit state word.
  check(n <= std::int64_t{std::numeric_limits<std::uint32_t>::max()} - 1,
        "dataset size exceeds the row store's slot index");
  check(classes <= std::numeric_limits<std::int32_t>::max(),
        "dataset class count exceeds the row store's int32 labels");
  const auto rows = static_cast<std::size_t>(n);
  // Per row, 4 bytes each: dim features and a label.
  static_assert(sizeof(float) == 4 && sizeof(std::int32_t) == 4);
  const auto words = static_cast<std::size_t>(dim) + 1;
  check(words <= std::numeric_limits<std::size_t>::max() / 4 / rows,
        "dataset row store exceeds the address space");
  state_ = std::make_unique<std::atomic<std::uint32_t>[]>(rows);  // every row absent
  map_bytes_ = rows * words * 4;
  map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  check(map_ != MAP_FAILED, "cannot map the dataset row store");
  features_ = static_cast<float*>(map_);
  labels_ = reinterpret_cast<std::int32_t*>(features_ + rows * static_cast<std::size_t>(dim));
}

SyntheticDataset::~SyntheticDataset() { ::munmap(map_, map_bytes_); }

std::int64_t SyntheticDataset::example_into(std::int64_t i, std::span<float> out) const {
  check_index(i, n_, "dataset example");
  check(static_cast<std::int64_t>(out.size()) == dim_, "feature buffer size mismatch");
  const auto d = static_cast<std::size_t>(dim_);
  std::atomic<std::uint32_t>& state = state_[static_cast<std::size_t>(i)];
  std::uint32_t s = state.load(std::memory_order_acquire);
  if (s >= 2) {
    const std::size_t slot = s - 2;
    std::memcpy(out.data(), features_ + slot * d, d * sizeof(float));
    return labels_[slot];
  }
  const std::int64_t label = generate_into(i, out);
  // Claim an absent row; a row another caller holds or has stored is
  // left to it, and this caller returns its own (identical) draw.
  if (s == 0 && state.compare_exchange_strong(s, 1, std::memory_order_relaxed)) {
    const std::size_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
    std::memcpy(features_ + slot * d, out.data(), d * sizeof(float));
    labels_[slot] = static_cast<std::int32_t>(label);
    state.store(static_cast<std::uint32_t>(slot) + 2, std::memory_order_release);
  }
  return label;
}

Example SyntheticDataset::example(std::int64_t i) const {
  Example ex;
  ex.features.resize(static_cast<std::size_t>(dim_));
  ex.label = example_into(i, ex.features);
  return ex;
}

// -------------------------------------------------- GaussianMixtureDataset

GaussianMixtureDataset::GaussianMixtureDataset(std::string name, std::uint64_t seed,
                                               std::int64_t n, std::int64_t dim,
                                               std::int64_t classes, float noise,
                                               std::int64_t index_offset)
    : SyntheticDataset(std::move(name), seed, n, dim, classes),
      noise_(noise),
      index_offset_(index_offset) {
  check(noise > 0.0F, "noise must be positive");
  // Class centers on a deterministic stream; unit-norm directions scaled
  // apart so class separation is controlled purely by `noise`.
  CounterRng rng(seed, /*stream=*/0xC3A7E5);
  centers_.resize(static_cast<std::size_t>(classes));
  for (auto& c : centers_) {
    c.resize(static_cast<std::size_t>(dim));
    float norm2 = 0.0F;
    for (auto& v : c) {
      v = rng.normal();
      norm2 += v * v;
    }
    const float inv = 1.0F / std::sqrt(std::max(norm2, 1e-12F));
    for (auto& v : c) v *= inv;
  }
}

std::int64_t GaussianMixtureDataset::generate_into(std::int64_t i,
                                                   std::span<float> out) const {
  CounterRng rng(seed(), 0xE1A000ULL + static_cast<std::uint64_t>(i + index_offset_));
  const auto label =
      static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_classes())));
  const auto& center = centers_[static_cast<std::size_t>(label)];
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = center[j] + noise_ * rng.normal();
  return label;
}

// --------------------------------------------------------- TeacherDataset

TeacherDataset::TeacherDataset(std::string name, std::uint64_t seed, std::int64_t n,
                               std::int64_t dim, std::int64_t classes,
                               std::int64_t hidden, float label_noise,
                               std::int64_t index_offset)
    : SyntheticDataset(std::move(name), seed, n, dim, classes),
      hidden_(hidden),
      label_noise_(label_noise),
      index_offset_(index_offset) {
  check(hidden > 0, "teacher hidden width must be positive");
  check(label_noise >= 0.0F && label_noise < 1.0F, "label noise must be in [0, 1)");
  CounterRng rng(seed, /*stream=*/0x7EAC4E);
  w1_.resize(static_cast<std::size_t>(dim * hidden));
  w2_.resize(static_cast<std::size_t>(hidden * classes));
  const float s1 = std::sqrt(2.0F / static_cast<float>(dim));
  const float s2 = std::sqrt(2.0F / static_cast<float>(hidden));
  for (auto& v : w1_) v = rng.normal(0.0F, s1);
  for (auto& v : w2_) v = rng.normal(0.0F, s2);
}

std::int64_t TeacherDataset::generate_into(std::int64_t i, std::span<float> out) const {
  const std::int64_t dim = feature_dim();
  const std::int64_t classes = num_classes();
  CounterRng rng(seed(), 0x7E0000ULL + static_cast<std::uint64_t>(i + index_offset_));
  for (float& v : out) v = rng.normal();

  // Teacher forward pass: relu(x @ w1) @ w2, label = argmax. The hidden
  // activations live on the stack for the (catalog-wide) small teachers so
  // the per-row gather stays allocation-free.
  constexpr std::int64_t kStackHidden = 64;
  float h_stack[kStackHidden];
  std::vector<float> h_heap;
  float* h = h_stack;
  if (hidden_ > kStackHidden) {
    h_heap.resize(static_cast<std::size_t>(hidden_));
    h = h_heap.data();
  }
  for (std::int64_t k = 0; k < hidden_; ++k) {
    float acc = 0.0F;
    for (std::int64_t j = 0; j < dim; ++j)
      acc += out[static_cast<std::size_t>(j)] *
             w1_[static_cast<std::size_t>(j * hidden_ + k)];
    h[k] = acc > 0.0F ? acc : 0.0F;
  }
  std::int64_t best = 0;
  float best_v = -1e30F;
  for (std::int64_t c = 0; c < classes; ++c) {
    float acc = 0.0F;
    for (std::int64_t k = 0; k < hidden_; ++k)
      acc += h[k] * w2_[static_cast<std::size_t>(k * classes + c)];
    if (acc > best_v) {
      best_v = acc;
      best = c;
    }
  }
  std::int64_t label = best;

  if (label_noise_ > 0.0F && rng.next_double() < label_noise_) {
    label = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(classes)));
  }
  return label;
}

}  // namespace vf
