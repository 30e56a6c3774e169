#include "gansec/math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"

namespace gansec::math {

namespace {

[[noreturn]] void throw_shape(const char* op, const Matrix& a,
                              const Matrix& b) {
  std::ostringstream oss;
  oss << "Matrix::" << op << ": shape mismatch (" << a.rows() << "x"
      << a.cols() << " vs " << b.rows() << "x" << b.cols() << ")";
  throw DimensionError(oss.str());
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  Matrix m;
  m.rows_ = rows.size();
  m.cols_ = rows.size() == 0 ? 0 : rows.begin()->size();
  m.data_.reserve(m.rows_ * m.cols_);
  for (const auto& r : rows) {
    if (r.size() != m.cols_) {
      throw DimensionError("Matrix::from_rows: ragged initializer list");
    }
    m.data_.insert(m.data_.end(), r.begin(), r.end());
  }
  return m;
}

Matrix Matrix::row_vector(const std::vector<float>& values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::column_vector(const std::vector<float>& values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0F;
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    std::ostringstream oss;
    oss << "Matrix::at: index (" << r << "," << c << ") out of range for "
        << rows_ << "x" << cols_;
    throw DimensionError(oss.str());
  }
  return (*this)(r, c);
}

float Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("operator+=", *this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("operator-=", *this, other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::operator+=(float scalar) {
  for (float& v : data_) v += scalar;
  return *this;
}

Matrix Matrix::hadamard(const Matrix& a, const Matrix& b) {
  Matrix out;
  hadamard_into(out, a, b);
  return out;
}

Matrix Matrix::matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(out, a, b);
  return out;
}

Matrix Matrix::matmul_transposed_b(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_transposed_b_into(out, a, b);
  return out;
}

Matrix Matrix::matmul_transposed_a(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_transposed_a_into(out, a, b);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out;
  transpose_into(out, *this);
  return out;
}

Matrix& Matrix::add_row_broadcast(const Matrix& row) {
  if (row.rows_ != 1 || row.cols_ != cols_) {
    throw_shape("add_row_broadcast", *this, row);
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    float* dst = data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += row.data_[c];
  }
  return *this;
}

Matrix Matrix::row(std::size_t r) const {
  if (r >= rows_) {
    throw DimensionError("Matrix::row: index out of range");
  }
  Matrix out(1, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_),
            out.data_.begin());
  return out;
}

void Matrix::set_row(std::size_t r, const Matrix& values) {
  if (r >= rows_ || values.rows_ != 1 || values.cols_ != cols_) {
    throw DimensionError("Matrix::set_row: shape/index mismatch");
  }
  std::copy(values.data_.begin(), values.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

Matrix Matrix::col_sums() const {
  Matrix out(1, cols_, 0.0F);
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* src = data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out.data_[c] += src[c];
  }
  return out;
}

Matrix Matrix::row_sums() const {
  Matrix out(rows_, 1, 0.0F);
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* src = data() + r * cols_;
    float acc = 0.0F;
    for (std::size_t c = 0; c < cols_; ++c) acc += src[c];
    out(r, 0) = acc;
  }
  return out;
}

float Matrix::sum() const {
  float acc = 0.0F;
  for (float v : data_) acc += v;
  return acc;
}

float Matrix::mean() const {
  if (data_.empty()) {
    throw InvalidArgumentError("Matrix::mean: empty matrix");
  }
  return sum() / static_cast<float>(data_.size());
}

float Matrix::min() const {
  if (data_.empty()) {
    throw InvalidArgumentError("Matrix::min: empty matrix");
  }
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::max() const {
  if (data_.empty()) {
    throw InvalidArgumentError("Matrix::max: empty matrix");
  }
  return *std::max_element(data_.begin(), data_.end());
}

bool Matrix::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](float v) { return std::isfinite(v); });
}

Matrix Matrix::map(const std::function<float(float)>& fn) const {
  Matrix out = *this;
  out.apply(fn);
  return out;
}

void Matrix::apply(const std::function<float(float)>& fn) {
  for (float& v : data_) v = fn(v);
}

Matrix Matrix::slice_cols(std::size_t c_begin, std::size_t c_end) const {
  Matrix out;
  slice_cols_into(out, *this, c_begin, c_end);
  return out;
}

Matrix Matrix::slice_rows(std::size_t r_begin, std::size_t r_end) const {
  if (r_begin > r_end || r_end > rows_) {
    throw DimensionError("Matrix::slice_rows: invalid row range");
  }
  Matrix out(r_end - r_begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r_begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r_end * cols_),
            out.data_.begin());
  return out;
}

Matrix Matrix::hstack(const Matrix& a, const Matrix& b) {
  Matrix out;
  hstack_into(out, a, b);
  return out;
}

Matrix Matrix::vstack(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.cols_) throw_shape("vstack", a, b);
  Matrix out(a.rows_ + b.rows_, a.cols_);
  std::copy(a.data_.begin(), a.data_.end(), out.data_.begin());
  std::copy(b.data_.begin(), b.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(a.data_.size()));
  return out;
}

Matrix Matrix::gather_rows(const std::vector<std::size_t>& indices) const {
  Matrix out;
  gather_rows_into(out, *this, indices);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) os << ' ';
      os << m(r, c);
    }
    os << '\n';
  }
  return os;
}

}  // namespace gansec::math
