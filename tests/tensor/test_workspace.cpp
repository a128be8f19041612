// vf::Workspace: per-row slot reuse, the allocation audit, and the debug
// one-worker-per-row confinement tripwire.
#include <gtest/gtest.h>

#include <exception>
#include <thread>

#include "tensor/workspace.h"
#include "util/common.h"

namespace vf {
namespace {

TEST(Workspace, SlotsAreStableAndKeyedByVnAndTag) {
  Workspace ws(3);
  Tensor& a = ws.acquire(0, 7).ensure_shape({4, 4});
  a.fill(1.0F);
  Tensor& b = ws.acquire(1, 7).ensure_shape({4, 4});
  b.fill(2.0F);
  Tensor& c = ws.acquire(0, 8).ensure_shape({2});
  c.fill(3.0F);

  // Same key returns the same tensor object with contents intact (stale
  // but stable between acquisitions).
  EXPECT_EQ(&ws.acquire(0, 7), &a);
  EXPECT_EQ(ws.acquire(0, 7).at(0), 1.0F);
  EXPECT_EQ(ws.acquire(1, 7).at(0), 2.0F);
  EXPECT_EQ(ws.acquire(0, 8).at(0), 3.0F);
}

TEST(Workspace, OutOfRangeVnThrows) {
  Workspace ws(2);
  EXPECT_THROW(ws.acquire(2, 0), VfError);
  EXPECT_THROW(ws.acquire(-1, 0), VfError);
  ws.ensure_vns(5);
  EXPECT_NO_THROW(ws.acquire(4, 0));
}

TEST(Workspace, AuditCountsGrowthOnceThenGoesQuiet) {
  Workspace ws(1);
  EXPECT_EQ(ws.heap_allocs(), 0);

  ws.acquire(0, 1).ensure_shape({64, 64});
  EXPECT_EQ(ws.heap_allocs(), 1);

  // Steady state: same shape, or any shape within capacity — no charge.
  for (int i = 0; i < 10; ++i) ws.acquire(0, 1).ensure_shape({64, 64});
  ws.acquire(0, 1).ensure_shape({8, 8});
  EXPECT_EQ(ws.heap_allocs(), 1);

  // Genuine growth is charged again.
  ws.acquire(0, 1).ensure_shape({128, 128});
  EXPECT_EQ(ws.heap_allocs(), 2);
}

#ifndef NDEBUG
// The one-worker-per-VN confinement contract, enforced (debug builds): a
// second thread touching a VN's slots within one ownership region is the
// bug the Workspace docs warn about — the tripwire must catch it even
// when the accesses are serialized (no data race needed), which also
// keeps this test TSan-clean. This is the test that would have caught a
// confinement violation before it corrupted buffers silently.
TEST(Workspace, SecondThreadOnOneVnWithinRegionThrows) {
  Workspace ws(2);
  ws.begin_region();
  ws.acquire(0, 1).ensure_shape({4});  // this thread now owns VN 0 for the region

  std::exception_ptr thrown;
  std::thread intruder([&] {
    try {
      ws.acquire(0, 2);  // same VN, different tag: still a violation
    } catch (...) {
      thrown = std::current_exception();
    }
  });
  intruder.join();
  ASSERT_TRUE(thrown) << "cross-thread acquisition of an owned VN must throw";
  EXPECT_THROW(std::rethrow_exception(thrown), VfError);

  // A different VN is fair game for another thread within the region.
  std::thread neighbour([&] { ws.acquire(1, 1).ensure_shape({4}); });
  neighbour.join();

  // A new region releases ownership: the same VN may move to another
  // worker (exactly what the engine's pool does between steps).
  ws.begin_region();
  std::thread successor([&] { ws.acquire(0, 1); });
  successor.join();
  EXPECT_THROW(ws.acquire(0, 1), VfError)
      << "ownership moved to the successor thread for this region";
}
#endif

}  // namespace
}  // namespace vf
