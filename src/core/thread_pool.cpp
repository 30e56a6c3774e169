#include "gansec/core/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "gansec/error.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::core {

namespace {

// Set for the lifetime of each worker thread; parallel_for uses it to run
// nested loops inline instead of fanning out again (deadlock guard).
thread_local bool t_on_worker = false;

// Set while a calling thread runs chunks of its own parallel_for; a loop
// nested there runs inline too (the workers are busy with the outer one).
thread_local bool t_caller_lane = false;

// How long an idle worker polls its mailbox before parking on the
// condition variable, and how long a caller polls for its helpers before
// blocking. A training iteration issues a GEMM every ~50-100 µs, so a
// worker that has just helped is almost always still spinning when the
// next loop is posted, and nobody pays for a futex wake.
constexpr std::chrono::microseconds kSpin{1000};

// Pool metrics, registered once. References stay valid for the process
// lifetime (the registry is leaked), so the worker threads can update
// them even while static destructors join the global pool.
obs::Counter& tasks_executed_counter() {
  static obs::Counter& c = obs::counter("pool.tasks_executed");
  return c;
}

obs::Counter& tasks_submitted_counter() {
  static obs::Counter& c = obs::counter("pool.tasks_submitted");
  return c;
}

// Queue wait of the most recently started task, in microseconds: the time
// from submit() to dequeue, or from a parallel_for post to the helper's
// claim. A gauge (not a histogram) because the interesting signal is "is
// the pool keeping up right now"; the per-task values are too
// scheduler-noisy to aggregate meaningfully.
obs::Gauge& queue_wait_gauge() {
  static obs::Gauge& g = obs::gauge("pool.queue_wait_us");
  return g;
}

void note_queue_wait(std::uint64_t since_us) {
  const std::uint64_t now = obs::trace_now_us();
  queue_wait_gauge().set(static_cast<double>(now >= since_us ? now - since_us
                                                             : 0));
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` for up to kSpin; returns its last value.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

}  // namespace

// Chunk c covers [begin + c*grain, min(begin + (c+1)*grain, end)). The
// caller and its helpers race on `next` for *which* chunk to run, but the
// chunks themselves never change — this is what makes results of
// disjoint-write kernels independent of scheduling.
struct ThreadPool::Loop {
  Loop(std::size_t first, std::size_t last, std::size_t chunk, ChunkRef fn)
      : begin(first),
        end(last),
        grain(chunk),
        chunks((last - first + chunk - 1) / chunk),
        body(fn),
        posted_us(obs::trace_now_us()) {}

  const std::size_t begin;
  const std::size_t end;
  const std::size_t grain;
  const std::size_t chunks;
  const ChunkRef body;
  const std::uint64_t posted_us;
  alignas(64) std::atomic<std::size_t> next{0};
  /// Helpers done with this loop; each release is a helper's last touch.
  std::atomic<std::uint32_t> released{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by whoever sets `failed`

  void run_chunks() {
    while (true) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(lo + grain, end);
      try {
        body(lo, hi);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers)
    : mailboxes_(std::make_unique<Mailbox[]>(workers)) {
  // Registered up front, so a metrics snapshot lists the pool counters
  // even before the first task runs.
  tasks_executed_counter();
  tasks_submitted_counter();
  queue_wait_gauge();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::runs_inline() { return t_on_worker || t_caller_lane; }

void ThreadPool::worker_loop(std::size_t index) {
  t_on_worker = true;
  Mailbox& box = mailboxes_[index];
  while (true) {
    if (box.loop.load(std::memory_order_relaxed) != nullptr) {
      if (Loop* loop = box.loop.exchange(nullptr, std::memory_order_acq_rel)) {
        help(*loop);
      }
      continue;
    }
    if (run_queued()) continue;
    if (stop_.load()) return;  // stop_ set and queue drained
    idle_wait(box);
  }
}

bool ThreadPool::run_queued() {
  if (queued_.load(std::memory_order_relaxed) == 0) return false;
  Pending task;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
  }
  note_queue_wait(task.enqueued_us);
  task.fn();
  tasks_executed_counter().add();
  return true;
}

void ThreadPool::idle_wait(Mailbox& box) {
  const auto has_work = [&] {
    return box.loop.load(std::memory_order_relaxed) != nullptr ||
           queued_.load(std::memory_order_relaxed) != 0 || stop_.load();
  };
  if (spin_until(has_work)) return;
  // Parking pairs with the poster's check of parked_ in parallel_for: the
  // increment and the mailbox post are both seq_cst, so either the poster
  // sees this worker parked (and notifies under mu_) or the predicate
  // below sees the post.
  std::unique_lock<std::mutex> lock(mu_);
  parked_.fetch_add(1);
  cv_.wait(lock, [&] {
    return box.loop.load() != nullptr || !queue_.empty() || stop_.load();
  });
  parked_.fetch_sub(1);
}

void ThreadPool::help(Loop& loop) {
  note_queue_wait(loop.posted_us);
  loop.run_chunks();
  tasks_executed_counter().add();
  // The release is this helper's last touch of `loop`: the caller may
  // return (and the Loop leave scope) as soon as it observes it, so the
  // wake-up goes through the pool-owned releases_ word.
  loop.released.fetch_add(1);
  releases_.fetch_add(1);
  releases_.notify_all();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) {
    throw InvalidArgumentError("ThreadPool::submit: empty task");
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load()) {
      throw InvalidArgumentError("ThreadPool::submit: pool is shut down");
    }
    queue_.push_back(Pending{std::move(task), obs::trace_now_us()});
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  tasks_submitted_counter().add();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, ChunkRef body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  // Serial fast paths: single chunk, no workers, or nested (running
  // inline keeps nesting deadlock-free by construction).
  if (n <= grain || workers_.empty() || runs_inline()) {
    body(begin, end);
    return;
  }

  Loop loop(begin, end, grain, body);
  // Post to at most chunks - 1 workers (the caller is a lane too). A
  // mailbox still holding another caller's unclaimed loop is skipped.
  const std::size_t wanted = std::min(workers_.size(), loop.chunks - 1);
  std::uint32_t posted = 0;
  for (std::size_t w = 0; w < workers_.size() && posted < wanted; ++w) {
    Loop* empty = nullptr;
    if (mailboxes_[w].loop.compare_exchange_strong(empty, &loop)) ++posted;
  }
  if (posted != 0) {
    tasks_submitted_counter().add(posted);
    if (parked_.load() != 0) {
      // Passing through mu_ orders the notify after any parked worker's
      // predicate check, so none of them can sleep through it.
      { const std::lock_guard<std::mutex> lock(mu_); }
      cv_.notify_all();
    }
  }

  t_caller_lane = true;
  loop.run_chunks();  // catches every chunk exception, so this returns
  t_caller_lane = false;

  // Take back every post no worker claimed; each failed CAS is a worker
  // that holds the loop and will release it.
  std::uint32_t cancelled = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Loop* mine = &loop;
    if (mailboxes_[w].loop.load(std::memory_order_relaxed) == &loop &&
        mailboxes_[w].loop.compare_exchange_strong(mine, nullptr)) {
      ++cancelled;
    }
  }
  const std::uint32_t claimed = posted - cancelled;
  const auto all_released = [&] { return loop.released.load() == claimed; };
  if (!spin_until(all_released)) {
    while (true) {
      const std::uint32_t seen = releases_.load();
      if (all_released()) break;
      releases_.wait(seen);
    }
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace gansec::core
