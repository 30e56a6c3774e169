// Destination-passing numeric kernels.
//
// Every kernel writes its result into a caller-supplied `out` matrix,
// resizing it when necessary (a resize into an already-large-enough buffer
// is free: std::vector keeps its capacity). This is the zero-allocation
// substrate under the Matrix value API — the training hot loop calls these
// directly with buffers owned by layers, trainers, or a per-thread
// Workspace, so the steady state performs no heap allocation at all.
//
// Contracts shared by all kernels:
//  - Shape errors throw gansec::DimensionError.
//  - GEMM kernels (`matmul_into` family) forbid `out` aliasing an operand
//    and throw InvalidArgumentError if it does; elementwise kernels allow
//    `out` to alias either operand (they stream index-ascending).
//  - Accumulation order is identical to the serial loop at any thread
//    count (row-blocked chunking, k-ascending accumulation), so results
//    are bit-identical whether or not the process-wide pool is engaged —
//    the same exactness contract the Matrix wrappers have always had.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "gansec/math/matrix.hpp"

namespace gansec::math {

/// out = a * b, (m x k) * (k x n) -> (m x n). Parallel above a fixed
/// flop threshold; bit-identical at any thread count.
void matmul_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = a^T * b without materializing the transpose: (k x m)^T * (k x n).
void matmul_transposed_a_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = a * b^T without materializing the transpose: (m x k) * (n x k)^T.
void matmul_transposed_b_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = a^T, (m x n) -> (n x m). `out` must not alias `a`.
void transpose_into(Matrix& out, const Matrix& a);

/// out = a + b (elementwise). `out` may alias `a` or `b`.
void add_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = a - b (elementwise). `out` may alias `a` or `b`.
void sub_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = a * scalar. `out` may alias `a`.
void scale_into(Matrix& out, const Matrix& a, float scalar);

/// out = a .* b (Hadamard product). `out` may alias `a` or `b`.
void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = 1 x cols row of per-column sums of `a` (row-ascending
/// accumulation, matching Matrix::col_sums). `out` must not alias `a`.
void col_sums_into(Matrix& out, const Matrix& a);

/// out = [a | b] (horizontal concatenation). `out` must not alias a or b.
void hstack_into(Matrix& out, const Matrix& a, const Matrix& b);

/// out = src rows gathered in `indices` order. `out` must not alias `src`.
void gather_rows_into(Matrix& out, const Matrix& src,
                      const std::vector<std::size_t>& indices);

/// out = columns [c_begin, c_end) of src. `out` must not alias `src`.
void slice_cols_into(Matrix& out, const Matrix& src, std::size_t c_begin,
                     std::size_t c_end);

/// Copies src into out (capacity-reusing; equivalent to out = src).
void copy_into(Matrix& out, const Matrix& src);

// gansec-lint: hot-path

/// out[i] = fn(in[i]) for every element, index-ascending. `out` may alias
/// `in`. The functor is a template parameter, not std::function, so the
/// per-element call inlines — this replaces Matrix::map/apply on hot paths.
template <typename Fn>
void transform_into(Matrix& out, const Matrix& in, Fn&& fn) {
  out.resize(in.rows(), in.cols());
  const float* src = in.data();
  float* dst = out.data();
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] = fn(src[i]);
}

/// m[i] = fn(m[i]) in place, index-ascending.
template <typename Fn>
void transform_in_place(Matrix& m, Fn&& fn) {
  float* dst = m.data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] = fn(dst[i]);
}

// gansec-lint: end-hot-path

}  // namespace gansec::math
