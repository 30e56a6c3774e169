// A warm parallel_for touches no heap: the loop state lives on the
// caller's stack, the body is passed by reference, and helpers are
// reached through their mailboxes. This binary replaces the global
// operator new to count allocations, so it is a test program of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gansec/core/execution.hpp"
#include "gansec/core/thread_pool.hpp"
#include "gansec/math/kernels.hpp"
#include "gansec/math/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gansec::core {
namespace {

TEST(DispatchAllocations, WarmPoolParallelForAllocatesNothing) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(96);
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  };
  for (int i = 0; i < 10; ++i) pool.parallel_for(0, 96, 8, body);  // warm
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 500; ++i) pool.parallel_for(0, 96, 8, body);
  EXPECT_EQ(g_allocs.load() - before, 0U);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 510);
}

TEST(DispatchAllocations, WarmGemmThroughTheGlobalPoolAllocatesNothing) {
  ExecutionConfig config;
  config.threads = 4;
  const ScopedExecution scoped(config);
  math::Rng rng(7);
  const math::Matrix a = rng.normal_matrix(48, 128, 0.0F, 1.0F);
  const math::Matrix b = rng.normal_matrix(128, 128, 0.0F, 1.0F);
  math::Matrix out;
  for (int i = 0; i < 10; ++i) math::matmul_into(out, a, b);  // warm
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 200; ++i) math::matmul_into(out, a, b);
  EXPECT_EQ(g_allocs.load() - before, 0U);
}

}  // namespace
}  // namespace gansec::core
