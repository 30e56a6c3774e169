// Process-wide execution configuration for gansec's parallel kernels.
//
// Every parallel code path (GEMM row blocking, Algorithm 3 feature scoring,
// the flow-pair training sweep) dispatches through core::parallel_for,
// which consults one global ExecutionConfig and one lazily created global
// ThreadPool. The determinism contract (see DESIGN.md "Parallel
// execution"): all shipped kernels write disjoint output ranges and keep
// per-element accumulation order fixed, so results are bit-identical across
// thread counts; `deterministic` additionally pins the chunk layout to the
// caller-supplied grain so chunk-indexed reductions in user code stay
// reproducible too.
#pragma once

#include <cstddef>

#include "gansec/core/thread_pool.hpp"

namespace gansec::core {

/// Hard ceiling on resolved parallelism; requests above it clamp silently.
/// Results are thread-count-invariant, so clamping never changes output.
inline constexpr std::size_t kMaxThreads = 256;

struct ExecutionConfig {
  /// Desired total parallelism (workers + calling thread), clamped to
  /// kMaxThreads. 0 = use std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Run every parallel_for inline on the caller (debugging / baselines).
  bool force_serial = false;
  /// Pin chunk boundaries to the caller's grain regardless of thread
  /// count. When false, grains may be coarsened for lower scheduling
  /// overhead (chunk layout then depends on the thread count).
  bool deterministic = true;
};

/// Snapshot of the current global configuration.
ExecutionConfig execution();

/// Installs `config` globally and resizes the pool if the thread count
/// changed. Not safe to call while parallel work is in flight.
void set_execution(const ExecutionConfig& config);

/// `config.threads` with 0 resolved to hardware concurrency (minimum 1);
/// force_serial resolves to 1; anything above kMaxThreads clamps to it.
std::size_t resolved_threads(const ExecutionConfig& config);

/// The process-wide pool, created on first use with resolved_threads() - 1
/// workers (the caller is the final lane).
ThreadPool& global_pool();

/// Runs `body` over [begin, end) honoring the global ExecutionConfig:
/// serial when forced, when the range is at most one grain, when only one
/// thread is configured, or when ThreadPool::runs_inline() (inside a pool
/// worker or another loop's caller lane).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  ChunkRef body);

/// RAII: installs a configuration and restores the previous one on exit.
/// Used by PipelineConfig::execution, benchmarks and tests.
class ScopedExecution {
 public:
  explicit ScopedExecution(const ExecutionConfig& config);
  ~ScopedExecution();

  ScopedExecution(const ScopedExecution&) = delete;
  ScopedExecution& operator=(const ScopedExecution&) = delete;

 private:
  ExecutionConfig previous_;
};

}  // namespace gansec::core
