#include "gansec/math/kernels.hpp"

#include <sstream>

#include "gansec/core/execution.hpp"
#include "gansec/error.hpp"

namespace gansec::math {

namespace {

[[noreturn]] void throw_shape(const char* op, const Matrix& a,
                              const Matrix& b) {
  std::ostringstream oss;
  oss << "Matrix::" << op << ": shape mismatch (" << a.rows() << "x"
      << a.cols() << " vs " << b.rows() << "x" << b.cols() << ")";
  throw DimensionError(oss.str());
}

void require_no_alias(const char* op, const Matrix& out, const Matrix& a,
                      const Matrix& b) {
  if (&out == &a || &out == &b) {
    throw InvalidArgumentError(std::string("math::") + op +
                               ": out must not alias an operand");
  }
}

// GEMMs below this many multiply-adds (m*k*n) are not worth dispatching to
// the pool: a 64^3 product runs in tens of microseconds, comparable to the
// cost of waking workers.
constexpr std::size_t kGemmParallelMinFlops = std::size_t{1} << 18;

// Rows of output per chunk. Row-blocked chunking keeps each output element
// computed wholly by one thread with k-ascending accumulation, so parallel
// results are bit-identical to the serial path at any thread count.
constexpr std::size_t kGemmRowGrain = 8;

// Dispatches a row-range kernel serially or through the global pool.
template <typename Kernel>
void gemm_dispatch(std::size_t out_rows, std::size_t flops,
                   const Kernel& kernel) {
  if (flops >= kGemmParallelMinFlops) {
    core::parallel_for(0, out_rows, kGemmRowGrain, kernel);
  } else {
    kernel(0, out_rows);
  }
}

}  // namespace

// The kernels below ARE the zero-allocation substrate: every buffer is
// caller-owned, resize() into existing capacity is free, and nothing here
// may touch the heap on the steady state.
// gansec-lint: hot-path

void matmul_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw_shape("matmul", a, b);
  require_no_alias("matmul_into", out, a, b);
  out.resize(a.rows(), b.cols());
  out.fill(0.0F);
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  // ikj loop order keeps the inner loop streaming over contiguous rows.
  // Chunks own disjoint output-row blocks, so the parallel path is exact.
  gemm_dispatch(a.rows(), a.rows() * k_dim * n,
                [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a.data() + i * k_dim;
      float* orow = out.data() + i * n;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float aik = arow[k];
        if (aik == 0.0F) continue;
        const float* brow = b.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) {
          orow[j] += aik * brow[j];
        }
      }
    }
  });
}

void matmul_transposed_a_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw_shape("matmul_transposed_a", a, b);
  require_no_alias("matmul_transposed_a_into", out, a, b);
  out.resize(a.cols(), b.cols());
  out.fill(0.0F);
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  // Output-row blocking (i indexes a's columns). Relative to the serial
  // (k,i,j) ordering this hoists i outermost, but each out(i,j) still
  // accumulates over k in ascending order, so results stay bit-identical.
  gemm_dispatch(m, a.rows() * m * n, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      float* orow = out.data() + i * n;
      for (std::size_t k = 0; k < a.rows(); ++k) {
        const float aki = a.data()[k * m + i];
        if (aki == 0.0F) continue;
        const float* brow = b.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) {
          orow[j] += aki * brow[j];
        }
      }
    }
  });
}

void matmul_transposed_b_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw_shape("matmul_transposed_b", a, b);
  require_no_alias("matmul_transposed_b_into", out, a, b);
  out.resize(a.rows(), b.rows());
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.rows();
  gemm_dispatch(a.rows(), a.rows() * k_dim * n,
                [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a.data() + i * k_dim;
      float* orow = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = b.data() + j * k_dim;
        float acc = 0.0F;
        for (std::size_t k = 0; k < k_dim; ++k) acc += arow[k] * brow[k];
        orow[j] = acc;
      }
    }
  });
}

void transpose_into(Matrix& out, const Matrix& a) {
  if (&out == &a) {
    throw InvalidArgumentError("math::transpose_into: out must not alias a");
  }
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  out.resize(cols, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = a.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) out.data()[c * rows + r] = src[c];
  }
}

void add_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw_shape("add_into", a, b);
  out.resize(a.rows(), a.cols());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
}

void sub_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw_shape("sub_into", a, b);
  out.resize(a.rows(), a.cols());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.data()[i] = a.data()[i] - b.data()[i];
  }
}

void scale_into(Matrix& out, const Matrix& a, float scalar) {
  out.resize(a.rows(), a.cols());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] * scalar;
}

void hadamard_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw_shape("hadamard", a, b);
  out.resize(a.rows(), a.cols());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.data()[i] = a.data()[i] * b.data()[i];
  }
}

void col_sums_into(Matrix& out, const Matrix& a) {
  if (&out == &a) {
    throw InvalidArgumentError("math::col_sums_into: out must not alias a");
  }
  const std::size_t cols = a.cols();
  out.resize(1, cols);
  out.fill(0.0F);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* src = a.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) out.data()[c] += src[c];
  }
}

void hstack_into(Matrix& out, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw_shape("hstack", a, b);
  require_no_alias("hstack_into", out, a, b);
  const std::size_t cols = a.cols() + b.cols();
  out.resize(a.rows(), cols);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    float* dst = out.data() + r * cols;
    const float* arow = a.data() + r * a.cols();
    const float* brow = b.data() + r * b.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) dst[c] = arow[c];
    for (std::size_t c = 0; c < b.cols(); ++c) dst[a.cols() + c] = brow[c];
  }
}

void gather_rows_into(Matrix& out, const Matrix& src,
                      const std::vector<std::size_t>& indices) {
  if (&out == &src) {
    throw InvalidArgumentError(
        "math::gather_rows_into: out must not alias src");
  }
  const std::size_t cols = src.cols();
  out.resize(indices.size(), cols);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t r = indices[i];
    if (r >= src.rows()) {
      throw DimensionError("Matrix::gather_rows: row index out of range");
    }
    const float* from = src.data() + r * cols;
    float* to = out.data() + i * cols;
    for (std::size_t c = 0; c < cols; ++c) to[c] = from[c];
  }
}

void slice_cols_into(Matrix& out, const Matrix& src, std::size_t c_begin,
                     std::size_t c_end) {
  if (c_begin > c_end || c_end > src.cols()) {
    throw DimensionError("Matrix::slice_cols: invalid column range");
  }
  if (&out == &src) {
    throw InvalidArgumentError(
        "math::slice_cols_into: out must not alias src");
  }
  const std::size_t cols = c_end - c_begin;
  out.resize(src.rows(), cols);
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const float* from = src.data() + r * src.cols() + c_begin;
    float* to = out.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) to[c] = from[c];
  }
}

void copy_into(Matrix& out, const Matrix& src) {
  if (&out == &src) return;
  out.resize(src.rows(), src.cols());
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = src.data()[i];
}

// gansec-lint: end-hot-path

}  // namespace gansec::math
