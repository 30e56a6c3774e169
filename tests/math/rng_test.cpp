#include "gansec/math/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "gansec/error.hpp"

namespace gansec::math {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformInvalidRangeThrows) {
  Rng rng(0);
  EXPECT_THROW(rng.uniform(1.0, 0.0), InvalidArgumentError);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, NormalNegativeStddevThrows) {
  Rng rng(0);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgumentError);
}

TEST(Rng, NormalZeroStddevReturnsMeanAndAdvancesLikeOneDraw) {
  // std::normal_distribution requires stddev > 0; Rng::normal must still
  // accept 0 (a noiseless simulator) and stay in step with a unit draw.
  Rng zero(31);
  Rng unit(31);
  for (const double mean : {0.0, -1.5, 4.25, 1e6}) {
    EXPECT_EQ(zero.normal(mean, 0.0), mean);
    unit.normal(mean, 1.0);
    EXPECT_EQ(zero.engine(), unit.engine());
  }
}

TEST(Rng, NormalMatchesStdDistributionBitForBit) {
  Rng rng(77);
  Rng scale(5);
  for (int i = 0; i < 2000; ++i) {
    const double mean = scale.uniform(-10.0, 10.0);
    const double stddev = scale.uniform(1e-3, 5.0);
    std::mt19937_64 copy = rng.engine();
    std::normal_distribution<double> reference(mean, stddev);
    EXPECT_EQ(rng.normal(mean, stddev), reference(copy));
    EXPECT_EQ(rng.engine(), copy);
  }
}

TEST(Rng, RandintInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.randint(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3U);
  EXPECT_THROW(rng.randint(5, 3), InvalidArgumentError);
}

TEST(Rng, BernoulliBounds) {
  Rng rng(13);
  EXPECT_THROW(rng.bernoulli(-0.1), InvalidArgumentError);
  EXPECT_THROW(rng.bernoulli(1.1), InvalidArgumentError);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(17);
  const auto idx = rng.sample_indices(50, 20);
  EXPECT_EQ(idx.size(), 20U);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 20U);
  for (const std::size_t i : idx) EXPECT_LT(i, 50U);
}

TEST(Rng, SampleIndicesFullPopulationIsPermutation) {
  Rng rng(19);
  const auto idx = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10U);
}

TEST(Rng, SampleIndicesTooManyThrows) {
  Rng rng(0);
  EXPECT_THROW(rng.sample_indices(5, 6), InvalidArgumentError);
}

TEST(Rng, SampleWithReplacementBounds) {
  Rng rng(23);
  const auto idx = rng.sample_indices_with_replacement(3, 100);
  EXPECT_EQ(idx.size(), 100U);
  for (const std::size_t i : idx) EXPECT_LT(i, 3U);
  EXPECT_THROW(rng.sample_indices_with_replacement(0, 1),
               InvalidArgumentError);
}

TEST(Rng, UniformMatrixShapeAndRange) {
  Rng rng(29);
  const Matrix m = rng.uniform_matrix(4, 5, -1.0F, 1.0F);
  EXPECT_EQ(m.rows(), 4U);
  EXPECT_EQ(m.cols(), 5U);
  EXPECT_GE(m.min(), -1.0F);
  EXPECT_LE(m.max(), 1.0F);
}

TEST(Rng, NormalMatrixStatistics) {
  Rng rng(31);
  const Matrix m = rng.normal_matrix(100, 100, 0.0F, 1.0F);
  EXPECT_NEAR(m.mean(), 0.0F, 0.05F);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace gansec::math
