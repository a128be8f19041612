// BatchFormer: packs queued requests into per-VN inference micro-batches.
//
// Determinism contract: both decisions of batch-boundary serving — *when*
// a batch forms and *which* requests it contains — are pure functions of
// the queue contents and the virtual clock. A batch forms when `max_batch`
// requests are waiting, or when the oldest request has waited `max_wait_s`
// (the classic size-or-timeout policy, applied by the serving loop's one
// readiness rule, ColocatedServer::dispatch_stamp); it always takes the
// FIFO prefix; and the former packs that prefix onto virtual nodes in
// ascending VN-id order, each VN taking at most its mapping batch share.
// Nothing depends on host threads or execution order, so a replayed trace
// forms identical batches under any `num_threads` — the property
// tests/serve/test_batch_former.cpp pins.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.h"
#include "serve/request_queue.h"

namespace vf::serve {

/// Size-or-timeout batching policy.
struct BatchPolicy {
  std::int64_t max_batch = 32;  ///< form as soon as this many are queued
  double max_wait_s = 0.05;     ///< ... or the oldest has waited this long
};

/// One virtual node's share of a formed batch: positions into the formed
/// request vector (FIFO prefix), in order.
struct VnPack {
  std::int32_t vn = 0;
  std::vector<std::int64_t> positions;
};

class BatchFormer {
 public:
  explicit BatchFormer(BatchPolicy policy);

  const BatchPolicy& policy() const { return policy_; }

  /// The oldest queued request's timeout stamp: the latest a head short of
  /// a full batch or slice waits (later arrivals can only fill it sooner).
  /// Both batching modes read it through the serving loop's readiness rule.
  /// The queue must be non-empty.
  double timeout_deadline_s(const RequestQueue& q) const;

  /// Packs `count` formed requests onto virtual nodes: ascending VN id,
  /// VN v taking at most mapping.vn_batch(v) requests. `count` must not
  /// exceed the mapping's global batch (the serving capacity of one
  /// formed batch).
  std::vector<VnPack> pack(std::int64_t count, const VnMapping& mapping) const;

 private:
  BatchPolicy policy_;
};

}  // namespace vf::serve
