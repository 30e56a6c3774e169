// Per-thread workspace arena for iteration-scoped numeric scratch.
//
// A Workspace hands out shape-checked scratch float matrices from a
// bump-cursor arena. The slots are never destroyed: `reset()` — or the
// RAII `Workspace::Scope` — only rewinds the cursor, so a loop that
// acquires the same shapes in the same order every iteration reuses the
// same backing storage and performs zero heap allocations after its first
// pass. `Workspace::local()` returns one arena per thread, so
// concurrent trainers (the flow-pair sweep) never contend.
//
// Ownership rules (see DESIGN.md "Zero-allocation numeric substrate"):
//  - A reference returned by acquire() stays valid for the life of the
//    thread (slots live in a deque and are never freed), but its CONTENTS
//    are only yours until the enclosing Scope ends / reset() runs — after
//    that the next acquirer may overwrite them.
//  - Never hold a workspace buffer across an iteration boundary; state
//    that must survive iterations belongs in a member buffer.
//  - acquire() reshapes the slot to the requested shape; pass
//    `zeroed=true` when the algorithm needs zero-initialized contents
//    (contents are otherwise unspecified stale values).
#pragma once

#include <cstddef>
#include <deque>

#include "gansec/math/matrix.hpp"

namespace gansec::math {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena.
  static Workspace& local();

  /// Next scratch matrix, reshaped to rows x cols. Contents are stale
  /// unless `zeroed` is set.
  Matrix& acquire(std::size_t rows, std::size_t cols, bool zeroed = false);

  /// Rewinds the cursor to zero; storage is retained for reuse.
  void reset();

  /// RAII cursor save/restore, so nested users (a layer inside a trainer
  /// iteration, a scoring pass inside a sweep) compose without resetting
  /// each other's live buffers.
  class Scope {
   public:
    explicit Scope(Workspace& ws)
        : ws_(ws), saved_matrix_(ws.matrix_cursor_) {}
    ~Scope() { ws_.matrix_cursor_ = saved_matrix_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t saved_matrix_;
  };

  /// Number of live (acquired since last reset) matrix slots.
  std::size_t live_matrices() const { return matrix_cursor_; }
  /// Total matrix slots ever created on this arena.
  std::size_t slot_count() const { return matrices_.size(); }
  /// Largest total footprint (bytes) this arena has ever held.
  std::size_t high_water_bytes() const { return high_water_bytes_; }

 private:
  void note_growth(std::size_t grown_bytes);

  std::deque<Matrix> matrices_;
  std::size_t matrix_cursor_ = 0;
  std::size_t footprint_bytes_ = 0;
  std::size_t high_water_bytes_ = 0;
};

}  // namespace gansec::math
