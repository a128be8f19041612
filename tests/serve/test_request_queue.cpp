// RequestQueue: bounded FIFO admission with backpressure.
#include <gtest/gtest.h>

#include "serve/request_queue.h"
#include "serve/slo_tracker.h"
#include "util/common.h"

namespace vf::serve {
namespace {

InferRequest req(std::int64_t id, double t) {
  InferRequest r;
  r.id = id;
  r.arrival_s = t;
  r.example_index = id;
  return r;
}

TEST(RequestQueue, FifoOrderAndCounts) {
  RequestQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 0.5)));
  EXPECT_TRUE(q.push(req(2, 0.5)));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.front().id, 0);
  EXPECT_EQ(q.at(2).id, 2);

  const auto popped = q.pop(2);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].id, 0);
  EXPECT_EQ(popped[1].id, 1);
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.admitted(), 3);
  EXPECT_EQ(q.rejected(), 0);
}

TEST(RequestQueue, BackpressureRejectsAtCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 1.0)));
  // Full: the next admissions bounce without disturbing queued requests.
  EXPECT_FALSE(q.push(req(2, 2.0)));
  EXPECT_FALSE(q.push(req(3, 3.0)));
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.admitted(), 2);
  EXPECT_EQ(q.rejected(), 2);
  // Draining reopens admission.
  q.pop(1);
  EXPECT_TRUE(q.push(req(4, 4.0)));
  EXPECT_EQ(q.rejected(), 2);
  EXPECT_EQ(q.front().id, 1);
}

// Regression: a dropped request must reach the SloTracker *with its id* —
// drop accounting is wired at the queue itself (the backpressure point),
// so it survives batching-policy rewrites instead of depending on each
// replay loop remembering to record rejections.
TEST(RequestQueue, RejectObserverReceivesEveryDroppedRequest) {
  RequestQueue q(2);
  SloTracker tracker(0.5);
  q.set_reject_observer([&](const InferRequest& r, double now_s) {
    tracker.record_rejection(r, now_s);
  });

  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 1.0)));
  EXPECT_FALSE(q.push(req(42, 2.0)));
  EXPECT_FALSE(q.push(req(43, 3.0)));

  EXPECT_EQ(tracker.rejected(), 2);
  ASSERT_EQ(tracker.records().size(), 2u);
  EXPECT_EQ(tracker.records()[0].id, 42) << "the dropped request's own id";
  EXPECT_TRUE(tracker.records()[0].rejected);
  EXPECT_EQ(tracker.records()[0].arrival_s, 2.0);
  EXPECT_EQ(tracker.records()[1].id, 43);
  EXPECT_EQ(q.rejected(), tracker.rejected())
      << "queue counter and tracker accounting must agree";

  // Admitted pushes never notify the observer.
  q.pop(1);
  EXPECT_TRUE(q.push(req(44, 4.0)));
  EXPECT_EQ(tracker.rejected(), 2);
}

TEST(RequestQueue, ShedExpiredDropsOnlyTheExpiredHead) {
  RequestQueue q(8);
  SloTracker tracker(0.5);
  q.set_reject_observer([&](const InferRequest& r, double now_s) {
    tracker.record_rejection(r, now_s);
  });
  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 0.25)));
  EXPECT_TRUE(q.push(req(2, 0.5)));

  // At 0.875 the two oldest are past a 0.5 s deadline; id 2 is not.
  q.shed_expired(/*now_s=*/0.875, /*deadline_s=*/0.5);
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.front().id, 2);
  EXPECT_EQ(q.shed(), 2);
  EXPECT_EQ(q.rejected(), 2) << "sheds count as rejections";
  EXPECT_EQ(q.admitted(), 3);
  ASSERT_EQ(tracker.records().size(), 2u);
  EXPECT_EQ(tracker.records()[0].id, 0);
  EXPECT_EQ(tracker.records()[1].id, 1);
  for (const RequestRecord& r : tracker.records()) {
    EXPECT_TRUE(r.rejected);
    EXPECT_EQ(r.finish_s, 0.875) << "shed stamped at now_s";
    EXPECT_EQ(r.dispatch_s, r.finish_s) << r.id;
  }

  // A fault-requeued head is shed too; its record keeps the retry. A
  // request exactly at its deadline is not expired.
  InferRequest evicted = req(5, 0.375);
  evicted.retries = 1;
  evicted.requeue_s = 0.75;
  q.push_front(evicted);
  q.shed_expired(/*now_s=*/1.0, /*deadline_s=*/0.5);
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.front().id, 2);
  EXPECT_EQ(q.shed(), 3);
  EXPECT_EQ(q.rejected(), 3);
  ASSERT_EQ(tracker.records().size(), 3u);
  EXPECT_EQ(tracker.records()[2].id, 5);
  EXPECT_EQ(tracker.records()[2].finish_s, 1.0);
  EXPECT_EQ(tracker.records()[2].retries, 1);
  EXPECT_EQ(tracker.summary().retried, 1);
  EXPECT_EQ(tracker.summary().retries, 1);

  // Without shed_expired a queue never sheds, however old its head.
  RequestQueue plain(4);
  EXPECT_TRUE(plain.push(req(0, 0.0)));
  EXPECT_TRUE(plain.push(req(1, 100.0)));
  EXPECT_EQ(plain.size(), 2);
  EXPECT_EQ(plain.shed(), 0);
  EXPECT_EQ(plain.rejected(), 0);
}

TEST(RequestQueue, PushFrontRequeuesAtHeadBypassingCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(req(5, 1.0)));
  EXPECT_TRUE(q.push(req(6, 2.0)));
  // Fault requeue of an older (already-admitted) request: accepted at the
  // head even though the queue is at capacity — zero-loss invariant.
  q.push_front(req(3, 0.5));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.front().id, 3);
  EXPECT_EQ(q.requeued(), 1);
  EXPECT_EQ(q.admitted(), 2) << "a requeue is not a second admission";
  // Head insertion must keep the queue arrival-ordered.
  EXPECT_THROW(q.push_front(req(9, 9.0)), VfError);
}

TEST(RequestQueue, RejectsOutOfOrderAdmission) {
  RequestQueue q(4);
  EXPECT_TRUE(q.push(req(0, 1.0)));
  EXPECT_THROW(q.push(req(1, 0.5)), VfError);
}

TEST(RequestQueue, GuardsInvalidUse) {
  EXPECT_THROW(RequestQueue(0), VfError);
  RequestQueue q(2);
  EXPECT_THROW(q.front(), VfError);
  EXPECT_THROW(q.pop(1), VfError);
  EXPECT_THROW(q.at(0), VfError);
}

}  // namespace
}  // namespace vf::serve
