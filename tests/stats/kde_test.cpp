#include "gansec/stats/kde.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/obs/metrics.hpp"

namespace gansec::stats {
namespace {

// The complete-underflow clamp in log_density is counted; the happy path
// must never take it (a nonzero rate means the bandwidth is pathological
// for the feature scale).
obs::Counter& clamp_counter() {
  static obs::Counter& c = obs::counter("stats.kde.log_density_clamped");
  return c;
}

TEST(ParzenKde, Validation) {
  EXPECT_THROW(ParzenKde({}, 0.2), InvalidArgumentError);
  EXPECT_THROW(ParzenKde({1.0}, 0.0), InvalidArgumentError);
  EXPECT_THROW(ParzenKde({1.0}, -0.5), InvalidArgumentError);
  EXPECT_THROW(ParzenKde({1.0}, std::numeric_limits<double>::infinity()),
               InvalidArgumentError);
  EXPECT_THROW(ParzenKde({1.0}, std::nan("")), InvalidArgumentError);
  EXPECT_THROW(ParzenKde({std::nan("")}, 0.2), NumericError);
}

TEST(ParzenKde, NonFiniteQueryThrows) {
  const ParzenKde kde({0.0}, 0.2);
  EXPECT_THROW(kde.log_density(std::nan("")), NumericError);
}

TEST(ParzenKde, SingleSampleIsGaussianKernel) {
  const double h = 0.3;
  const ParzenKde kde({1.0}, h);
  // Density at the sample equals the Gaussian peak 1/(h*sqrt(2*pi)).
  const double peak = 1.0 / (h * std::sqrt(2.0 * std::numbers::pi));
  EXPECT_NEAR(kde.density(1.0), peak, 1e-12);
  // One standard deviation away: peak * exp(-1/2).
  EXPECT_NEAR(kde.density(1.0 + h), peak * std::exp(-0.5), 1e-12);
}

TEST(ParzenKde, ScoreIsLogDensity) {
  const ParzenKde kde({0.0, 1.0}, 0.5);
  EXPECT_DOUBLE_EQ(kde.score(0.4), kde.log_density(0.4));
  EXPECT_NEAR(std::exp(kde.log_density(0.4)), kde.density(0.4), 1e-12);
}

TEST(ParzenKde, ScaledLikelihoodBoundedByGaussianPeakTimesH) {
  // exp(score) * h <= 1/sqrt(2*pi) for any Gaussian Parzen estimate.
  math::Rng rng(3);
  std::vector<double> samples(50);
  for (double& s : samples) s = rng.uniform(0.0, 1.0);
  const ParzenKde kde(samples, 0.2);
  const double bound = 1.0 / std::sqrt(2.0 * std::numbers::pi);
  for (double x = -0.5; x <= 1.5; x += 0.05) {
    EXPECT_LE(kde.scaled_likelihood(x), bound + 1e-12);
    EXPECT_GE(kde.scaled_likelihood(x), 0.0);
  }
}

TEST(ParzenKde, DensityIntegratesToOne) {
  math::Rng rng(5);
  std::vector<double> samples(30);
  for (double& s : samples) s = rng.normal(0.0, 1.0);
  const ParzenKde kde(samples, 0.4);
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -8.0; x <= 8.0; x += dx) {
    integral += kde.density(x) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(ParzenKde, RecoversBimodalStructure) {
  math::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(rng.normal(i % 2 == 0 ? -2.0 : 2.0, 0.3));
  }
  const ParzenKde kde(samples, 0.3);
  // Peaks near the two modes, valley between them.
  EXPECT_GT(kde.density(-2.0), kde.density(0.0) * 3.0);
  EXPECT_GT(kde.density(2.0), kde.density(0.0) * 3.0);
}

TEST(ParzenKde, MatchesAnalyticGaussianMixture) {
  // KDE over the exact points {-1, 1} with bandwidth h equals the two-term
  // mixture density analytically.
  const double h = 0.7;
  const ParzenKde kde({-1.0, 1.0}, h);
  const auto normal_pdf = [h](double x, double mu) {
    return std::exp(-0.5 * (x - mu) * (x - mu) / (h * h)) /
           (h * std::sqrt(2.0 * std::numbers::pi));
  };
  for (double x = -3.0; x <= 3.0; x += 0.25) {
    const double expected = 0.5 * (normal_pdf(x, -1.0) + normal_pdf(x, 1.0));
    EXPECT_NEAR(kde.density(x), expected, 1e-12);
  }
}

TEST(ParzenKde, FarQueryHasTinyDensity) {
  const ParzenKde kde({0.0}, 0.1);
  EXPECT_LT(kde.log_density(100.0), -1000.0);
  EXPECT_DOUBLE_EQ(kde.density(100.0), 0.0);  // underflows to zero
}

// Edge-case regressions: every query on a valid estimator must produce a
// finite log-density. Before the clamping fix, complete kernel underflow
// made the log-sum-exp compute exp(-inf - -inf) = exp(nan) and the whole
// Algorithm 3 likelihood table turned to NaN.
TEST(ParzenKde, ExtremeFarQueryIsFiniteNotNan) {
  const ParzenKde kde({0.0}, 0.1);
  // d^2 still representable (1e60): a huge negative but finite exponent.
  const double ld_big = kde.log_density(1e30);
  EXPECT_TRUE(std::isfinite(ld_big));
  EXPECT_LT(ld_big, -1e60);
  // d^2 overflows to +inf (1e400): every kernel exponent is -inf and the
  // log-sum-exp clamps instead of computing exp(-inf - -inf) = NaN.
  const double ld_inf = kde.log_density(1e200);
  EXPECT_FALSE(std::isnan(ld_inf));
  EXPECT_TRUE(std::isfinite(ld_inf));
  EXPECT_DOUBLE_EQ(ld_inf, -std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(kde.density(1e200), 0.0);
  EXPECT_DOUBLE_EQ(kde.scaled_likelihood(1e200), 0.0);
}

TEST(ParzenKde, TinyBandwidthOffSampleIsFiniteNotNan) {
  // h -> 0: 1/(2h^2) overflows to +inf, so off-sample exponents become
  // -inf for every kernel. Must clamp, not NaN.
  const ParzenKde kde({0.5}, 1e-300);
  const double off = kde.log_density(0.6);
  EXPECT_FALSE(std::isnan(off));
  EXPECT_TRUE(std::isfinite(off));
  EXPECT_DOUBLE_EQ(off, -std::numeric_limits<double>::max());
  // Exactly on the sample d == 0 would multiply 0 * inf without the guard;
  // the log-density is the (large but finite) kernel peak log(1/(h*s2pi)).
  const double on = kde.log_density(0.5);
  EXPECT_FALSE(std::isnan(on));
  EXPECT_TRUE(std::isfinite(on));
  EXPECT_NEAR(on, -std::log(1e-300 * std::sqrt(2.0 * std::numbers::pi)),
              1e-6);
}

TEST(ParzenKde, HugeBandwidthHugeDistanceIsFiniteNotNan) {
  // The opposite pathology: d^2 overflows to +inf while 1/(2h^2)
  // underflows to 0 — inf * 0 = NaN on the fast path. The fallback
  // recomputes the exponent as -(d/h)^2/2, which is representable.
  const ParzenKde kde({0.0}, 1e160);
  const double near_ld = kde.log_density(1e160);  // d/h = 1: a real value
  EXPECT_FALSE(std::isnan(near_ld));
  EXPECT_TRUE(std::isfinite(near_ld));
  EXPECT_NEAR(near_ld, -0.5 - std::log(1e160 * std::sqrt(2.0 * std::numbers::pi)),
              1e-6);
  const double far_ld = kde.log_density(1e200);  // d/h = 1e40: underflows
  EXPECT_FALSE(std::isnan(far_ld));
  EXPECT_TRUE(std::isfinite(far_ld));
}

TEST(ParzenKde, SingleSampleGoldenValues) {
  // Hand-computed golden values for a single kernel at mu=2, h=0.5:
  // log p(x) = -0.5*((x-2)/0.5)^2 - log(0.5*sqrt(2*pi)).
  const std::uint64_t clamps_before = clamp_counter().value();
  const ParzenKde kde({2.0}, 0.5);
  const double log_norm = std::log(0.5 * std::sqrt(2.0 * std::numbers::pi));
  EXPECT_NEAR(kde.log_density(2.0), -log_norm, 1e-12);
  EXPECT_NEAR(kde.log_density(2.5), -0.5 - log_norm, 1e-12);
  EXPECT_NEAR(kde.log_density(3.0), -2.0 - log_norm, 1e-12);
  EXPECT_NEAR(kde.log_density(0.0), -8.0 - log_norm, 1e-12);
  EXPECT_NEAR(kde.scaled_likelihood(2.0),
              0.5 / (0.5 * std::sqrt(2.0 * std::numbers::pi)), 1e-12);
  // Happy path: none of these queries may hit the underflow clamp.
  EXPECT_EQ(clamp_counter().value(), clamps_before);
}

TEST(ParzenKde, MixtureGoldenValues) {
  // Three-kernel mixture at {-1, 0, 3} with h = 0.8, scored at x = 0.5:
  // p = (1/3) * sum_i N(0.5; mu_i, 0.8^2), reduced by hand to exponents
  // {-1.7578125, -0.1953125, -4.8828125} over norm 0.8*sqrt(2*pi).
  const std::uint64_t clamps_before = clamp_counter().value();
  const ParzenKde kde({-1.0, 0.0, 3.0}, 0.8);
  const double norm = 0.8 * std::sqrt(2.0 * std::numbers::pi);
  const double expected =
      (std::exp(-1.7578125) + std::exp(-0.1953125) + std::exp(-4.8828125)) /
      (3.0 * norm);
  EXPECT_NEAR(kde.density(0.5), expected, 1e-14);
  EXPECT_NEAR(kde.log_density(0.5), std::log(expected), 1e-12);
  EXPECT_NEAR(kde.scaled_likelihood(0.5), expected * 0.8, 1e-14);
  EXPECT_EQ(clamp_counter().value(), clamps_before);
}

TEST(ParzenKde, RecordedFiveSampleGoldenValues) {
  // Recorded log densities for samples {0.1, 0.25, 0.5, 0.75, 0.9} at
  // h = 0.05: a regression pin on log_density's arithmetic.
  const ParzenKde kde({0.1, 0.25, 0.5, 0.75, 0.9}, 0.05);
  EXPECT_NEAR(kde.log_density(0.0), -1.5326166360145532, 1e-12);
  EXPECT_NEAR(kde.log_density(0.3), -0.031538614698328415, 1e-12);
  EXPECT_NEAR(kde.log_density(0.5), 0.4673632811938116, 1e-12);
}

TEST(ParzenKde, CopyScoresBitIdenticallyAfterSourceIsGone) {
  auto source = std::make_unique<ParzenKde>(
      std::vector<double>{0.1, 0.4, 0.42, 0.7, 0.95, 0.33}, 0.05);
  const std::vector<double> queries = {-1.0, 0.0, 0.33, 0.5, 1.0, 2.5};
  std::vector<double> expected;
  for (const double x : queries) expected.push_back(source->log_density(x));
  const ParzenKde copy = *source;
  source.reset();
  // The copy owns its samples: same doubles in, same arithmetic, same
  // doubles out, with the source's buffer freed.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(copy.log_density(queries[i]), expected[i])
        << "x=" << queries[i];
  }
}

TEST(ParzenKde, UnderflowClampIsCounted) {
  const std::uint64_t before = clamp_counter().value();
  const ParzenKde kde({0.5}, 1e-300);
  // Off-sample query with a tiny bandwidth: every kernel underflows, the
  // clamp fires, and the counter records it.
  EXPECT_DOUBLE_EQ(kde.log_density(0.6),
                   -std::numeric_limits<double>::max());
  EXPECT_EQ(clamp_counter().value(), before + 1);
  // On-sample query takes the kernel-peak path: no clamp.
  (void)kde.log_density(0.5);
  EXPECT_EQ(clamp_counter().value(), before + 1);
}

TEST(ParzenKde, Accessors) {
  const ParzenKde kde({1.0, 2.0, 3.0}, 0.25);
  EXPECT_DOUBLE_EQ(kde.bandwidth(), 0.25);
  EXPECT_EQ(kde.sample_count(), 3U);
}

// Wider bandwidth must flatten the estimate (lower peak, fatter tails).
class BandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthSweep, WiderIsFlatterAtMode) {
  const double h = GetParam();
  math::Rng rng(11);
  std::vector<double> samples(100);
  for (double& s : samples) s = rng.normal(0.0, 0.2);
  const ParzenKde narrow(samples, h);
  const ParzenKde wide(samples, h * 4.0);
  EXPECT_GT(narrow.density(0.0), wide.density(0.0));
  EXPECT_LT(narrow.density(5.0), wide.density(5.0));
}

INSTANTIATE_TEST_SUITE_P(Widths, BandwidthSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4));

}  // namespace
}  // namespace gansec::stats
