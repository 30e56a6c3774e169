// Fixed-size worker pool with a blocking parallel_for.
//
// This is the execution substrate behind every parallel path in gansec:
// row-blocked GEMM (math::Matrix), per-feature Algorithm 3 scoring
// (security::LikelihoodAnalyzer) and the per-flow-pair model sweep
// (core::GanSecPipeline::run_flow_pairs). Design constraints, in order:
//
//  1. Determinism: parallel_for partitions [begin, end) into fixed-size
//     chunks whose boundaries depend only on the range and the grain —
//     never on the worker count or on scheduling. Kernels that write
//     disjoint ranges therefore produce bit-identical results at any
//     thread count.
//  2. Exception safety: the first exception thrown by any chunk is
//     captured and rethrown on the calling thread after the loop drains.
//  3. Nesting: a parallel_for issued from inside a worker, or from the
//     calling thread while it runs chunks of its own loop, runs serially
//     inline, so nested parallelism can never deadlock the pool.
//  4. No allocation per dispatch: the loop state lives on the caller's
//     stack and reaches the workers through per-worker mailboxes (see
//     DESIGN.md §7), so a GEMM on the training hot path touches no heap.
//
// The calling thread participates in chunk execution, so a pool with W
// workers gives W+1-way parallelism and a pool with zero workers degrades
// to a plain serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gansec::core {

/// Non-owning reference to a chunk body `void(std::size_t, std::size_t)`:
/// a pointer to the callable plus a trampoline, so passing a lambda
/// neither copies nor allocates. It must not outlive the callable, which
/// holds for a parallel_for argument: the call blocks until every chunk
/// has run.
class ChunkRef {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, ChunkRef>>>
  ChunkRef(F&& fn) noexcept  // implicit: call sites pass lambdas directly
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        invoke_([](void* callable, std::size_t lo, std::size_t hi) {
          (*static_cast<std::remove_reference_t<F>*>(callable))(lo, hi);
        }) {}

  void operator()(std::size_t lo, std::size_t hi) const {
    invoke_(callable_, lo, hi);
  }

 private:
  void* callable_;
  void (*invoke_)(void*, std::size_t, std::size_t);
};

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: everything runs on the caller).
  explicit ThreadPool(std::size_t workers);

  /// Joins all workers; pending submitted tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Safe to call from worker threads
  /// (the task is queued, never executed inline, so no deadlock). This is
  /// the lane for long-running work such as the detector service's shard
  /// loops; parallel_for does not go through the queue.
  void submit(std::function<void()> task);

  /// Runs `body` over [begin, end) split into ceil(n / grain) chunks and
  /// blocks until every chunk finished. Chunk boundaries are a pure
  /// function of (begin, end, grain). The caller executes chunks alongside
  /// whichever workers claim the loop. Rethrows the first chunk exception
  /// after completion. Runs serially inline where runs_inline() holds.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    ChunkRef body);

  /// True when a parallel_for issued from the current thread runs inline:
  /// the thread is a pool worker, or it is running chunks of its own
  /// parallel_for as the caller lane.
  static bool runs_inline();

 private:
  /// A queued task plus its enqueue timestamp (trace clock, µs) — feeds
  /// the pool.queue_wait_us gauge when the task is dequeued.
  struct Pending {
    std::function<void()> fn;
    std::uint64_t enqueued_us = 0;
  };

  /// One parallel_for in flight; lives on the calling thread's stack.
  struct Loop;

  /// A worker's inbox: the loop it is asked to help with, or null. The
  /// caller posts with a CAS from null, the worker claims with an
  /// exchange, and the caller takes back an unclaimed post with a CAS
  /// before its stack frame (and the Loop) goes away.
  struct alignas(64) Mailbox {
    std::atomic<Loop*> loop{nullptr};
  };

  void worker_loop(std::size_t index);
  /// Pops and runs one queued task; false when the queue was empty.
  bool run_queued();
  /// Spins for a while, then parks until `box` has mail, the queue has a
  /// task, or the pool is stopping.
  void idle_wait(Mailbox& box);
  /// A worker's share of `loop`, ending with its release of the Loop.
  void help(Loop& loop);

  std::unique_ptr<Mailbox[]> mailboxes_;
  std::deque<Pending> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
  /// queue_.size(), readable by spinning workers without taking mu_.
  std::atomic<std::size_t> queued_{0};
  /// Workers blocked on cv_; a poster wakes them only when non-zero.
  std::atomic<std::size_t> parked_{0};
  /// Bumped after every helper release. A caller waiting for its helpers
  /// blocks on this pool-owned word, never on its own (stack) Loop, so a
  /// helper never touches a Loop after releasing it.
  std::atomic<std::uint32_t> releases_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace gansec::core
