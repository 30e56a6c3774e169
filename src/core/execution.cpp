#include "gansec/core/execution.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

#include "gansec/obs/metrics.hpp"

namespace gansec::core {

namespace {

// Global state: one config + one pool, both guarded by g_mu. The pool is
// rebuilt only when the resolved worker count changes, so repeated
// ScopedExecution installs with the same thread count are cheap.
std::mutex g_mu;
ExecutionConfig g_config;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool& pool_locked() {
  const std::size_t want = resolved_threads(g_config) - 1;  // caller lane
  if (!g_pool || g_pool->worker_count() != want) {
    g_pool.reset();  // join old workers before spawning replacements
    // Rebuilds only when the resolved worker count changes; steady-state
    // dispatches reuse the live pool, so this never recurs on a hot pass.
    // gansec-lint: allow(hotpath-alloc)
    g_pool = std::make_unique<ThreadPool>(want);
  }
  return *g_pool;
}

}  // namespace

ExecutionConfig execution() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_config;
}

void set_execution(const ExecutionConfig& config) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_config = config;
  if (g_pool) pool_locked();  // resize an existing pool eagerly
}

std::size_t resolved_threads(const ExecutionConfig& config) {
  if (config.force_serial) return 1;
  // Cap at kMaxThreads: more lanes than that is never useful on hardware
  // this code targets, and an absurd request (e.g. a negative CLI value
  // cast to size_t) must not make the pool try to spawn 2^64 workers.
  if (config.threads != 0) return std::min(config.threads, kMaxThreads);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& global_pool() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return pool_locked();
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  ChunkRef body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  // Nested calls skip the config lock: they run inline whatever it says.
  if (ThreadPool::runs_inline()) {
    body(begin, end);
    return;
  }
  ExecutionConfig config;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    config = g_config;
  }
  const std::size_t threads = resolved_threads(config);
  const std::size_t n = end - begin;
  if (config.force_serial || threads <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  if (!config.deterministic) {
    // Coarsen the grain so roughly 4 chunks land on each lane; the chunk
    // layout then depends on the thread count, which is exactly what the
    // deterministic mode forbids.
    grain = std::max(grain, n / (threads * 4) + 1);
  }
  // Counted only when the loop actually fans out — the serial fast path
  // above is the GEMM hot path and stays instrumentation-free.
  static obs::Counter& dispatched = obs::counter("exec.parallel_for_dispatched");
  dispatched.add();
  global_pool().parallel_for(begin, end, grain, body);
}

ScopedExecution::ScopedExecution(const ExecutionConfig& config)
    : previous_(execution()) {
  set_execution(config);
}

ScopedExecution::~ScopedExecution() { set_execution(previous_); }

}  // namespace gansec::core
