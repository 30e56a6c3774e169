#include "gansec/math/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/math/matrix.hpp"
#include "gansec/math/rng.hpp"

namespace gansec::math {
namespace {

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m;
  rng.fill_normal(m, rows, cols, 0.0F, 1.0F);
  return m;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ, not EXPECT_FLOAT_EQ: the transposed kernels promise the
    // same accumulation order as transpose-then-matmul, so results must be
    // bit-identical, not merely close.
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

// The transposed-GEMM kernels avoid materializing the transpose; their
// oracle is the naive route. Sizes cover degenerate vectors (1x1, 1xn,
// nx1), the row-block grain boundary (8), and non-block-multiple shapes
// that exercise the tail chunk of the parallel row blocking.
struct GemmShape {
  std::size_t m, k, n;
};

class TransposedMatmul : public ::testing::TestWithParam<GemmShape> {};

TEST_P(TransposedMatmul, TransposedAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(0x5EED);
  const Matrix a = random_matrix(rng, k, m);  // a^T is (m x k)
  const Matrix b = random_matrix(rng, k, n);
  Matrix out;
  matmul_transposed_a_into(out, a, b);
  Matrix expected;
  matmul_into(expected, transpose(a), b);
  expect_bitwise_equal(out, expected);
}

TEST_P(TransposedMatmul, TransposedBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(0xFACE);
  const Matrix a = random_matrix(rng, m, k);
  const Matrix b = random_matrix(rng, n, k);  // b^T is (k x n)
  Matrix out;
  matmul_transposed_b_into(out, a, b);
  Matrix expected;
  matmul_into(expected, a, transpose(b));
  expect_bitwise_equal(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposedMatmul,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 3, 7},
                      GemmShape{7, 3, 1}, GemmShape{8, 8, 8},
                      GemmShape{5, 9, 13}, GemmShape{17, 6, 11}),
    [](const ::testing::TestParamInfo<GemmShape>& param_info) {
      const auto& s = param_info.param;
      return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
             std::to_string(s.n);
    });

TEST(Kernels, TransposeIntoMatchesNaiveAndRejectsAlias) {
  Rng rng(12);
  const Matrix a = random_matrix(rng, 7, 13);
  Matrix out(2, 2);  // reshaped, not appended to
  transpose_into(out, a);
  expect_bitwise_equal(out, transpose(a));
  Matrix self = a;
  EXPECT_THROW(transpose_into(self, self), InvalidArgumentError);
}

TEST(Kernels, MatmulIntoMatchesValueApi) {
  Rng rng(11);
  const Matrix a = random_matrix(rng, 6, 5);
  const Matrix b = random_matrix(rng, 5, 4);
  Matrix out;
  matmul_into(out, a, b);
  expect_bitwise_equal(out, Matrix::matmul(a, b));
}

TEST(Kernels, MatmulIntoReusesCapacity) {
  Rng rng(12);
  const Matrix a = random_matrix(rng, 4, 3);
  const Matrix b = random_matrix(rng, 3, 2);
  Matrix out(10, 10);  // larger than the result; shrink must not realloc
  const float* before = out.data();
  matmul_into(out, a, b);
  EXPECT_EQ(out.rows(), 4U);
  EXPECT_EQ(out.cols(), 2U);
  EXPECT_EQ(out.data(), before);
}

TEST(Kernels, MatmulIntoShapeMismatchThrows) {
  Matrix out;
  EXPECT_THROW(matmul_into(out, Matrix(2, 3), Matrix(4, 2)), DimensionError);
  EXPECT_THROW(matmul_transposed_a_into(out, Matrix(3, 2), Matrix(4, 2)),
               DimensionError);
  EXPECT_THROW(matmul_transposed_b_into(out, Matrix(2, 3), Matrix(4, 2)),
               DimensionError);
}

TEST(Kernels, GemmOutAliasingOperandThrows) {
  Rng rng(13);
  Matrix a = random_matrix(rng, 3, 3);
  Matrix b = random_matrix(rng, 3, 3);
  EXPECT_THROW(matmul_into(a, a, b), InvalidArgumentError);
  EXPECT_THROW(matmul_into(b, a, b), InvalidArgumentError);
  EXPECT_THROW(matmul_transposed_a_into(a, a, b), InvalidArgumentError);
  EXPECT_THROW(matmul_transposed_b_into(b, a, b), InvalidArgumentError);
}

TEST(Kernels, ElementwiseAllowsAliasing) {
  Matrix a = Matrix::from_rows({{1.0F, 2.0F}, {3.0F, 4.0F}});
  const Matrix b = Matrix::from_rows({{10.0F, 20.0F}, {30.0F, 40.0F}});
  add_into(a, a, b);
  EXPECT_FLOAT_EQ(a(0, 0), 11.0F);
  EXPECT_FLOAT_EQ(a(1, 1), 44.0F);
  hadamard_into(a, a, b);
  EXPECT_FLOAT_EQ(a(0, 0), 110.0F);
  scale_into(a, a, 0.5F);
  EXPECT_FLOAT_EQ(a(0, 0), 55.0F);
}

TEST(Kernels, ColSumsIntoMatchesValueApi) {
  Rng rng(14);
  const Matrix a = random_matrix(rng, 7, 5);
  Matrix out;
  col_sums_into(out, a);
  expect_bitwise_equal(out, a.col_sums());
}

TEST(Kernels, HstackSliceGatherRoundTrip) {
  const Matrix a = Matrix::from_rows({{1.0F, 2.0F}, {3.0F, 4.0F}});
  const Matrix b = Matrix::from_rows({{5.0F}, {6.0F}});
  Matrix joined;
  hstack_into(joined, a, b);
  EXPECT_EQ(joined.cols(), 3U);
  EXPECT_FLOAT_EQ(joined(1, 2), 6.0F);

  Matrix left;
  slice_cols_into(left, joined, 0, 2);
  expect_bitwise_equal(left, a);

  Matrix picked;
  gather_rows_into(picked, joined, {1, 0, 1});
  EXPECT_EQ(picked.rows(), 3U);
  EXPECT_FLOAT_EQ(picked(0, 0), 3.0F);
  EXPECT_FLOAT_EQ(picked(1, 0), 1.0F);
  EXPECT_FLOAT_EQ(picked(2, 2), 6.0F);
}

TEST(Kernels, TransformIntoAppliesElementwise) {
  const Matrix in = Matrix::from_rows({{-1.0F, 0.0F}, {2.0F, -3.0F}});
  Matrix out;
  transform_into(out, in, [](float v) { return v < 0.0F ? 0.0F : v; });
  EXPECT_FLOAT_EQ(out(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(out(1, 0), 2.0F);
  EXPECT_FLOAT_EQ(out(1, 1), 0.0F);

  Matrix m = in;
  transform_in_place(m, [](float v) { return v * 2.0F; });
  EXPECT_FLOAT_EQ(m(0, 0), -2.0F);
  EXPECT_FLOAT_EQ(m(1, 1), -6.0F);
}

}  // namespace
}  // namespace gansec::math
