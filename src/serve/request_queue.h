// Bounded admission queue for inference requests.
//
// Backpressure is the admission story: when the queue is at capacity, a
// new request is rejected immediately (the caller records the rejection)
// rather than queued into unbounded latency. A shedding caller also drops
// the expired prefix at the head (shed_expired): requests already past
// their deadline would consume a slot only to miss, so dropping them
// before dispatch is the graceful-degradation half of the fault story.
// FIFO order is part of the determinism contract — the BatchFormer only
// ever takes a prefix, so the batch sequence is a pure function of the
// arrival trace and the policy.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "serve/request.h"

namespace vf::serve {

class RequestQueue {
 public:
  explicit RequestQueue(std::int64_t capacity);

  /// Called with each request the queue drops (a capacity bounce at
  /// admission, before push() returns false, or a deadline shed), along
  /// with the virtual stamp of the drop. The Server wires this to
  /// SloTracker::record_rejection so drop accounting lives at the
  /// backpressure point itself — every replay path (batch-boundary or
  /// continuous) gets the dropped request's id recorded without
  /// re-implementing it.
  void set_reject_observer(std::function<void(const InferRequest&, double)> observer);

  /// Admits `r` unless the queue is full. Returns false (and counts the
  /// rejection, notifying the reject observer at the arrival stamp) when
  /// capacity is reached — the backpressure signal.
  bool push(const InferRequest& r);

  /// Returns a fault-evicted request to the *head* of the queue. Requeues
  /// bypass capacity (zero-loss invariant: an admitted request is never
  /// dropped by recovery) and never re-count as admissions. In-flight
  /// requests are always older than anything still queued (dispatch takes
  /// a FIFO prefix), so head insertion keeps the queue arrival-ordered.
  void push_front(const InferRequest& r);

  /// Sheds the expired prefix at virtual time `now_s`: every request at
  /// the head with now_s - arrival_s > deadline_s, requeued ones included,
  /// leaves as a rejection stamped at `now_s`. The queue is
  /// arrival-ordered, so the expired requests are exactly a prefix.
  void shed_expired(double now_s, double deadline_s);

  /// Removes and returns the oldest `n` requests (n <= size()).
  std::vector<InferRequest> pop(std::int64_t n);

  /// Oldest queued request; queue must be non-empty.
  const InferRequest& front() const;
  /// Request at queue position `i` (0 = oldest).
  const InferRequest& at(std::int64_t i) const;

  bool empty() const { return q_.empty(); }
  std::int64_t size() const { return static_cast<std::int64_t>(q_.size()); }
  std::int64_t capacity() const { return capacity_; }
  std::int64_t admitted() const { return admitted_; }
  std::int64_t rejected() const { return rejected_; }
  /// Rejections that were deadline sheds (subset of rejected()).
  std::int64_t shed() const { return shed_; }
  /// Fault requeues accepted through push_front.
  std::int64_t requeued() const { return requeued_; }

 private:
  bool reject(const InferRequest& r, double now_s);

  std::int64_t capacity_;
  std::deque<InferRequest> q_;
  std::function<void(const InferRequest&, double)> reject_observer_;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t requeued_ = 0;
};

}  // namespace vf::serve
