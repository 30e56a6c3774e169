#include "gansec/math/workspace.hpp"

#include "gansec/obs/metrics.hpp"

namespace gansec::math {

namespace {

// Arena behaviour metrics. alloc_bytes is monotonic and only grows when an
// arena has to grow a slot — in a steady-state training loop it goes flat
// after the first iteration, which is exactly how arena reuse is verified
// from a --metrics-out snapshot. The gauge tracks the largest single-arena
// footprint seen across all threads.
obs::Counter& acquires_counter() {
  static obs::Counter& c = obs::counter("math.workspace.acquires");
  return c;
}

obs::Counter& alloc_bytes_counter() {
  static obs::Counter& c = obs::counter("math.workspace.alloc_bytes");
  return c;
}

obs::Gauge& high_water_gauge() {
  static obs::Gauge& g = obs::gauge("math.workspace.high_water_bytes");
  return g;
}

obs::Counter& arenas_counter() {
  static obs::Counter& c = obs::counter("math.workspace.arenas");
  return c;
}

}  // namespace

Workspace& Workspace::local() {
  // Count live per-thread arenas once at creation: together with
  // high_water_bytes this bounds total arena memory
  // (arenas × high_water), which the resource sampler exposes alongside
  // proc.rss_bytes for live sizing.
  thread_local Workspace ws;
  thread_local const bool counted = [] {
    arenas_counter().add();
    return true;
  }();
  (void)counted;
  return ws;
}

void Workspace::note_growth(std::size_t grown_bytes) {
  alloc_bytes_counter().add(grown_bytes);
  footprint_bytes_ += grown_bytes;
  if (footprint_bytes_ > high_water_bytes_) {
    high_water_bytes_ = footprint_bytes_;
    high_water_gauge().set_max(static_cast<double>(high_water_bytes_));
  }
}

Matrix& Workspace::acquire(std::size_t rows, std::size_t cols, bool zeroed) {
  acquires_counter().add();
  if (matrix_cursor_ == matrices_.size()) {
    // Arena warm-up: the slot vector grows only until the deepest pass
    // has run once, then every acquire reuses an existing slot.
    // gansec-lint: allow(hotpath-alloc)
    matrices_.emplace_back();
  }
  Matrix& slot = matrices_[matrix_cursor_++];
  const std::size_t before = slot.capacity();
  slot.resize(rows, cols);
  if (slot.capacity() > before) {
    note_growth((slot.capacity() - before) * sizeof(float));
  }
  if (zeroed) slot.fill(0.0F);
  return slot;
}

void Workspace::reset() { matrix_cursor_ = 0; }

}  // namespace gansec::math
