// SlotLedger: admit/complete transitions and the deterministic orderings
// continuous batching leans on — free slots claimed in ascending VN-id
// order, due completions processed in (done time, VN id) order.
#include <gtest/gtest.h>

#include <vector>

#include "serve/slot_ledger.h"
#include "util/common.h"

namespace vf::serve {
namespace {

Slot slice(double dispatch_s, double done_s, std::initializer_list<std::int64_t> ids) {
  Slot s;
  s.dispatch_s = dispatch_s;
  s.done_s = done_s;
  for (const std::int64_t id : ids) {
    InferRequest r;
    r.id = id;
    r.arrival_s = dispatch_s;
    s.requests.push_back(r);
    s.predictions.push_back(0);
  }
  return s;
}

TEST(SlotLedger, AdmitCompleteLifecycle) {
  SlotLedger ledger(3);
  EXPECT_EQ(ledger.total_slots(), 3);
  EXPECT_TRUE(ledger.all_free());
  EXPECT_EQ(ledger.lowest_free(), 0);

  ledger.admit(0, slice(1.0, 2.0, {10, 11}));
  EXPECT_FALSE(ledger.all_free());
  EXPECT_EQ(ledger.busy_count(), 1);
  EXPECT_EQ(ledger.inflight_requests(), 2)
      << "in-flight load counts requests, not slots";
  EXPECT_EQ(ledger.lowest_free(), 1) << "slot 0 busy: next free is VN 1";
  EXPECT_TRUE(ledger.slot(0).busy);
  EXPECT_FALSE(ledger.slot(1).busy);

  const Slot done = ledger.complete(0);
  EXPECT_TRUE(ledger.all_free());
  EXPECT_EQ(ledger.inflight_requests(), 0);
  ASSERT_EQ(done.requests.size(), 2u);
  EXPECT_EQ(done.requests[0].id, 10);
  EXPECT_EQ(done.requests[1].id, 11);
  EXPECT_EQ(ledger.lowest_free(), 0) << "completed slot is reusable";
}

TEST(SlotLedger, LowestFreeClaimsAscendingVnOrder) {
  SlotLedger ledger(4);
  ledger.admit(0, slice(0.0, 1.0, {0}));
  ledger.admit(1, slice(0.0, 1.0, {1}));
  ledger.admit(2, slice(0.0, 1.0, {2}));
  EXPECT_EQ(ledger.lowest_free(), 3);
  ledger.complete(1);
  EXPECT_EQ(ledger.lowest_free(), 1) << "freed VN 1 outranks free VN 3";
  ledger.admit(3, slice(0.0, 2.0, {3}));
  ledger.admit(1, slice(0.0, 2.0, {4}));
  EXPECT_EQ(ledger.lowest_free(), -1) << "every slot in flight";
}

TEST(SlotLedger, DueOrdersByDoneTimeThenVnId) {
  SlotLedger ledger(4);
  ledger.admit(0, slice(0.0, 3.0, {0}));
  ledger.admit(1, slice(0.0, 1.0, {1}));
  ledger.admit(2, slice(0.0, 2.0, {2}));
  ledger.admit(3, slice(0.0, 1.0, {3}));  // ties VN 1 on done time

  EXPECT_TRUE(ledger.due(0.5).empty());
  EXPECT_EQ(ledger.due(1.0), (std::vector<std::int32_t>{1, 3}))
      << "equal done times break ties by VN id";
  EXPECT_EQ(ledger.due(2.5), (std::vector<std::int32_t>{1, 3, 2}));
  EXPECT_EQ(ledger.due(10.0), (std::vector<std::int32_t>{1, 3, 2, 0}));

  ledger.complete(1);
  ledger.complete(3);
  EXPECT_EQ(ledger.due(2.5), (std::vector<std::int32_t>{2}));
}

TEST(SlotLedger, ReadmitChainsSlicesWithoutFreeingTheSlot) {
  // A token stream's decode chain: prefill, then per-token slices swapped
  // in via readmit. The slot never passes through the free state, so a
  // queued admission can never steal it mid-stream.
  SlotLedger ledger(2);
  Slot prefill = slice(0.0, 1.0, {7});
  prefill.kind = SliceKind::kPrefill;
  ledger.admit(0, std::move(prefill));
  ledger.admit(1, slice(0.0, 5.0, {8}));
  EXPECT_EQ(ledger.lowest_free(), -1);

  Slot decode = slice(1.0, 2.0, {7});
  decode.kind = SliceKind::kDecode;
  const Slot finished = ledger.complete(0);  // would free the slot...
  ledger.admit(0, std::move(decode));        // ...if readmit did not exist
  EXPECT_EQ(finished.kind, SliceKind::kPrefill);

  // The real transition: swap without the intermediate free state.
  Slot decode2 = slice(2.0, 3.0, {7});
  decode2.kind = SliceKind::kDecode;
  const Slot first_decode = ledger.readmit(0, std::move(decode2));
  EXPECT_EQ(first_decode.kind, SliceKind::kDecode);
  ASSERT_EQ(first_decode.requests.size(), 1u);
  EXPECT_EQ(first_decode.requests[0].id, 7);
  EXPECT_TRUE(ledger.slot(0).busy) << "the slot never went free";
  EXPECT_EQ(ledger.busy_count(), 2);
  EXPECT_EQ(ledger.lowest_free(), -1)
      << "chained readmits leave no admission window";
  EXPECT_DOUBLE_EQ(ledger.slot(0).done_s, 3.0);
  // Due ordering sees the continuation's completion time, with the usual
  // (done_s, VN id) order against other slots.
  EXPECT_EQ(ledger.due(3.0), (std::vector<std::int32_t>{0}));
  EXPECT_EQ(ledger.due(5.0), (std::vector<std::int32_t>{0, 1}));
}

TEST(SlotLedger, ReadmitTracksInflightRequestDelta) {
  SlotLedger ledger(1);
  ledger.admit(0, slice(0.0, 1.0, {1, 2, 3}));
  EXPECT_EQ(ledger.inflight_requests(), 3);
  // A continuation can carry a different request count (a decode slice is
  // a single stream); the in-flight load the elastic rule reads must track
  // the delta, not leak the old count.
  const Slot done = ledger.readmit(0, slice(1.0, 2.0, {1}));
  ASSERT_EQ(done.requests.size(), 3u);
  EXPECT_EQ(ledger.inflight_requests(), 1);
  ledger.complete(0);
  EXPECT_EQ(ledger.inflight_requests(), 0);
}

TEST(SlotLedger, ReadmitGuardsInvalidTransitions) {
  SlotLedger ledger(2);
  EXPECT_THROW(ledger.readmit(0, slice(0.0, 1.0, {0})), VfError)
      << "readmit on a free slot";
  ledger.admit(0, slice(0.0, 2.0, {0}));
  EXPECT_THROW(ledger.readmit(0, slice(1.0, 3.0, {0})), VfError)
      << "continuation dispatched before the slice finished";
  EXPECT_THROW(ledger.readmit(0, Slot{}), VfError) << "empty continuation";
  EXPECT_THROW(ledger.readmit(0, slice(3.0, 2.5, {0})), VfError)
      << "continuation completes before its dispatch";
  // A same-instant handoff (done_s == next.dispatch_s) is legal — that is
  // the normal cadence of a decode chain.
  const Slot done = ledger.readmit(0, slice(2.0, 2.5, {0}));
  EXPECT_DOUBLE_EQ(done.done_s, 2.0);
}

TEST(SlotLedger, EvictFreesSlotBeforeCompletion) {
  // Fault recovery: a kill tears an in-flight slice off its dead device
  // before its scheduled done_s — complete() would reject that, evict()
  // must not.
  SlotLedger ledger(2);
  ledger.admit(0, slice(0.0, 5.0, {3, 4}));
  ledger.admit(1, slice(0.0, 1.0, {5}));
  EXPECT_EQ(ledger.inflight_requests(), 3);

  const Slot evicted = ledger.evict(0);
  ASSERT_EQ(evicted.requests.size(), 2u);
  EXPECT_EQ(evicted.requests[0].id, 3);
  EXPECT_FALSE(ledger.slot(0).busy);
  EXPECT_EQ(ledger.busy_count(), 1);
  EXPECT_EQ(ledger.inflight_requests(), 1);
  EXPECT_EQ(ledger.lowest_free(), 0) << "the evicted slot is free again";
  EXPECT_THROW(ledger.evict(0), VfError) << "evict on a free slot";
}

TEST(SlotLedger, GuardsInvalidTransitions) {
  EXPECT_THROW(SlotLedger(0), VfError);
  SlotLedger ledger(2);
  EXPECT_THROW(ledger.complete(0), VfError) << "complete on free slot";
  EXPECT_THROW(ledger.admit(5, slice(0.0, 1.0, {0})), VfError) << "bad VN";
  EXPECT_THROW(ledger.admit(0, Slot{}), VfError) << "empty slice";
  EXPECT_THROW(ledger.admit(0, slice(2.0, 1.0, {0})), VfError)
      << "completes before dispatch";
  ledger.admit(0, slice(0.0, 1.0, {0}));
  EXPECT_THROW(ledger.admit(0, slice(0.0, 1.0, {1})), VfError) << "slot busy";
}

}  // namespace
}  // namespace vf::serve
