// The four vfbench workloads and the pass-through decorators they time
// the library through. Every decorator forwards each call unchanged, so a
// decorated run must reproduce the undecorated records bit for bit — the
// workloads check that instead of assuming it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "harness.h"
#include "serve/request.h"

namespace vfbench {

/// train-large-batch: imagenet-sim, global batch 8192 as 32 VNs x 256 on
/// one V100 (resnet50 profile, simulated memory enforced).
void run_train_large_batch(const RunOptions& opt, Result& res, SpanLog& spans);
/// train-many-vn: cifar10-sim, batch 128 as 16 VNs x 8 on 4 V100s
/// (resnet56 profile), two host workers.
void run_train_many_vn(const RunOptions& opt, Result& res, SpanLog& spans);
/// serve-stream: one self-driven elastic token-streaming Server.
void run_serve_stream(const RunOptions& opt, Result& res, SpanLog& spans);
/// cluster-960: ClusterController under Gavel over 960 V100s.
void run_cluster_960(const RunOptions& opt, Result& res, SpanLog& spans);

/// SLO goodput of one replay: deadline-met requests over requests sent (a
/// rejected request counts as a miss).
double slo_goodput(const std::vector<vf::serve::RequestRecord>& records, std::size_t sent);

/// Virtual-clock sums over served (not rejected) records: queue wait and
/// latency, and the logits return against the whole priced busy time.
struct ServedTotals {
  double wait_s = 0.0;
  double latency_s = 0.0;
  double comm_s = 0.0;
  double busy_s = 0.0;
  void add(const std::vector<vf::serve::RequestRecord>& records);
};

/// Pass-through Dataset that counts the rows the library generates
/// through it (Dataset::gather calls example_into once per row).
class CountingDataset : public vf::Dataset {
 public:
  explicit CountingDataset(const vf::Dataset& inner) : inner_(inner) {}

  std::int64_t size() const override { return inner_.size(); }
  std::int64_t feature_dim() const override { return inner_.feature_dim(); }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::string name() const override { return inner_.name(); }
  vf::Example example(std::int64_t i) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    return inner_.example(i);
  }
  std::int64_t example_into(std::int64_t i, std::span<float> out) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    return inner_.example_into(i, out);
  }

  std::int64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  const vf::Dataset& inner_;
  mutable std::atomic<std::int64_t> rows_{0};
};

}  // namespace vfbench
