#include "gansec/core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gansec/core/execution.hpp"
#include "gansec/error.hpp"

namespace gansec::core {
namespace {

TEST(ThreadPool, StartupAndShutdown) {
  for (const std::size_t workers : {0U, 1U, 4U}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.worker_count(), workers);
  }  // destructor joins cleanly with no submitted work
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool must execute everything already queued
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SubmitValidation) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), InvalidArgumentError);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  // Grain 7 does not divide 1000: the last chunk is a ragged remainder.
  pool.parallel_for(0, kN, 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForOffsetRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(40, 100, 9, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (std::size_t i = 40; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingleChunkRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n <= grain runs inline on the caller as a single chunk.
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(0, 8, 8, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0U);
    EXPECT_EQ(hi, 8U);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ZeroGrainIsTreatedAsOne) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for(0, 32, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t covered = 0;
  pool.parallel_for(0, 100, 10, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 100U);
}

TEST(ThreadPool, WorkerExceptionRethrowsOnCaller) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  const auto throwing_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == 123) throw std::runtime_error("chunk failure at 123");
    }
    completed.fetch_add(1);
  };
  EXPECT_THROW(pool.parallel_for(0, 500, 10, throwing_body),
               std::runtime_error);
  // The loop drained before rethrowing: the pool is still fully usable.
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 64, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EveryChunkThrowingStillRethrowsExactlyOne) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 100, 5, [](std::size_t, std::size_t) {
      throw NumericError("all chunks fail");
    });
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_STREQ(e.what(), "all chunks fail");
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(30 * 30);
  pool.parallel_for(0, 30, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Nested loop: runs inline when on a worker, may re-enter the pool
      // from the caller lane. Either way it must terminate and cover.
      pool.parallel_for(0, 30, 4, [&, i](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) {
          hits[i * 30 + j].fetch_add(1);
        }
      });
    }
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

TEST(ThreadPool, NestedCallFromCallerLaneRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> caller_chunks{0};
  std::atomic<int> inner_calls{0};
  EXPECT_FALSE(ThreadPool::runs_inline());
  // Eight slow chunks on two lanes: the caller is sure to run some.
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (std::this_thread::get_id() != caller) return;
    caller_chunks.fetch_add(1);
    EXPECT_TRUE(ThreadPool::runs_inline());
    pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
      // One serial chunk on the caller, not a fan-out.
      inner_calls.fetch_add(1);
      EXPECT_EQ(lo, 0U);
      EXPECT_EQ(hi, 100U);
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  });
  EXPECT_GT(caller_chunks.load(), 0);
  EXPECT_EQ(inner_calls.load(), caller_chunks.load());
  EXPECT_FALSE(ThreadPool::runs_inline());
}

TEST(ThreadPool, ConcurrentOutsideCallersEachCoverEveryIndexOnce) {
  // Two threads that are not pool workers dispatch on one pool at once:
  // they compete for the same mailboxes, and each loop must still run
  // every one of its chunks exactly once.
  ThreadPool pool(3);
  constexpr std::size_t kN = 257;
  constexpr int kRounds = 200;
  const auto dispatch = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(0, kN, 3, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
    }
  };
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  std::thread a([&] { dispatch(hits_a); });
  std::thread b([&] { dispatch(hits_b); });
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << "index " << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << "index " << i;
  }
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(1);  // a single worker is the tightest deadlock trap
  std::promise<void> inner_ran;
  std::future<void> done = inner_ran.get_future();
  pool.submit([&pool, &inner_ran] {
    // Submitting from a worker queues the task instead of running it
    // inline; with one worker it executes right after this task returns.
    pool.submit([&inner_ran] { inner_ran.set_value(); });
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
}

TEST(ThreadPool, ParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::promise<void> checked;
  std::future<void> done = checked.get_future();
  pool.submit([&pool, &checked] {
    EXPECT_TRUE(ThreadPool::runs_inline());
    int calls = 0;
    const std::thread::id worker = std::this_thread::get_id();
    pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
      ++calls;
      EXPECT_EQ(lo, 0U);
      EXPECT_EQ(hi, 100U);
      EXPECT_EQ(std::this_thread::get_id(), worker);
    });
    EXPECT_EQ(calls, 1);  // one serial chunk, not a fan-out
    checked.set_value();
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(ThreadPool::runs_inline());
}

TEST(Execution, ResolvedThreads) {
  ExecutionConfig config;
  config.threads = 6;
  EXPECT_EQ(resolved_threads(config), 6U);
  config.force_serial = true;
  EXPECT_EQ(resolved_threads(config), 1U);
  config.force_serial = false;
  config.threads = 0;  // auto: hardware concurrency, at least one
  EXPECT_GE(resolved_threads(config), 1U);
  // Absurd requests (e.g. a negative CLI value cast to size_t) clamp to
  // kMaxThreads instead of asking the pool for 2^64 workers.
  config.threads = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(resolved_threads(config), kMaxThreads);
}

TEST(Execution, ScopedExecutionInstallsAndRestores) {
  const ExecutionConfig before = execution();
  {
    ExecutionConfig inner;
    inner.threads = 3;
    inner.deterministic = false;
    const ScopedExecution scoped(inner);
    EXPECT_EQ(execution().threads, 3U);
    EXPECT_FALSE(execution().deterministic);
    EXPECT_EQ(global_pool().worker_count(), 2U);  // threads - caller lane
  }
  EXPECT_EQ(execution().threads, before.threads);
  EXPECT_EQ(execution().deterministic, before.deterministic);
}

TEST(Execution, GlobalParallelForHonorsForceSerial) {
  ExecutionConfig config;
  config.threads = 4;
  config.force_serial = true;
  const ScopedExecution scoped(config);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t covered = 0;
  parallel_for(0, 256, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 256U);
}

TEST(Execution, GlobalParallelForCoversRangeWithPool) {
  ExecutionConfig config;
  config.threads = 4;
  const ScopedExecution scoped(config);
  std::vector<std::atomic<int>> hits(512);
  parallel_for(0, 512, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 512; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace gansec::core
