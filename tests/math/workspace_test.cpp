#include "gansec/math/workspace.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "gansec/obs/metrics.hpp"

namespace gansec::math {
namespace {

TEST(Workspace, AcquireShapesAndZeroInit) {
  Workspace ws;
  Matrix& m = ws.acquire(3, 4);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  m.fill(7.0F);
  ws.reset();
  Matrix& z = ws.acquire(3, 4, /*zeroed=*/true);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_EQ(z.data()[i], 0.0F) << "element " << i;
  }
}

TEST(Workspace, ResetReusesSlotStorage) {
  Workspace ws;
  Matrix& first = ws.acquire(8, 8);
  const float* storage = first.data();
  ws.reset();
  // Same shape in the same order gets the same slot and the same backing
  // buffer — the steady-state zero-allocation guarantee.
  Matrix& again = ws.acquire(8, 8);
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(ws.slot_count(), 1U);
}

TEST(Workspace, SlotsAreReferenceStableAcrossGrowth) {
  Workspace ws;
  Matrix& a = ws.acquire(2, 2);
  a.fill(1.0F);
  // Force many new slots; deque storage must not move earlier references.
  for (int i = 0; i < 100; ++i) ws.acquire(4, 4);
  EXPECT_EQ(a.rows(), 2U);
  EXPECT_EQ(a(1, 1), 1.0F);
}

TEST(Workspace, ScopeRestoresCursor) {
  Workspace ws;
  Matrix& outer = ws.acquire(2, 3);
  outer.fill(5.0F);
  {
    Workspace::Scope scope(ws);
    Matrix& inner = ws.acquire(6, 6);
    EXPECT_NE(&inner, &outer);
    EXPECT_EQ(ws.live_matrices(), 2U);
  }
  EXPECT_EQ(ws.live_matrices(), 1U);
  // The outer buffer survived the nested scope untouched.
  EXPECT_EQ(outer(0, 0), 5.0F);
  // Next acquire after the scope reuses the slot the scope released.
  Matrix& reused = ws.acquire(6, 6);
  EXPECT_EQ(ws.slot_count(), 2U);
  EXPECT_EQ(ws.live_matrices(), 2U);
  (void)reused;
}

TEST(Workspace, NestedScopesCompose) {
  Workspace ws;
  ws.acquire(1, 1);
  {
    Workspace::Scope a(ws);
    ws.acquire(1, 2);
    {
      Workspace::Scope b(ws);
      ws.acquire(1, 3);
      EXPECT_EQ(ws.live_matrices(), 3U);
    }
    EXPECT_EQ(ws.live_matrices(), 2U);
  }
  EXPECT_EQ(ws.live_matrices(), 1U);
}

TEST(Workspace, AllocBytesCounterGoesFlatOnReuse) {
  obs::Counter& alloc_bytes = obs::counter("math.workspace.alloc_bytes");
  Workspace ws;
  ws.acquire(16, 16);
  ws.acquire(8, 4);
  const std::uint64_t after_first_pass = alloc_bytes.value();
  EXPECT_GT(after_first_pass, 0U);
  for (int iter = 0; iter < 10; ++iter) {
    ws.reset();
    ws.acquire(16, 16);
    ws.acquire(8, 4);
  }
  // Steady state: same shapes, same order — no growth, counter flat.
  EXPECT_EQ(alloc_bytes.value(), after_first_pass);
}

TEST(Workspace, HighWaterTracksFootprint) {
  Workspace ws;
  ws.acquire(10, 10);
  const std::size_t one = ws.high_water_bytes();
  EXPECT_GE(one, 100 * sizeof(float));
  ws.acquire(10, 10);
  EXPECT_GE(ws.high_water_bytes(), 2 * 100 * sizeof(float));
  ws.reset();
  // High-water is a maximum; reset must not lower it.
  EXPECT_GE(ws.high_water_bytes(), 2 * 100 * sizeof(float));
}

TEST(Workspace, LocalIsPerThreadSingleton) {
  Workspace& a = Workspace::local();
  Workspace& b = Workspace::local();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace gansec::math
