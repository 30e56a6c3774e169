// Pins the per-condition Parzen fit of Algorithm 3 (lines 6-8) at each of
// its callers to an oracle built from public parts only: one Rng(seed),
// conditions in order, GSize samples per condition from
// Cgan::generate_for_condition, one stats::ParzenKde per feature. A change
// in draw order, gather or bandwidth at any caller breaks EXPECT_EQ here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gansec/security/analyzer.hpp"
#include "gansec/security/confidentiality.hpp"
#include "gansec/security/stream_detector.hpp"
#include "gansec/stats/kde.hpp"
#include "test_fixture.hpp"

namespace gansec::security {
namespace {

using math::Matrix;
using testing::trained_setup;

/// fits[condition][feature-position], drawn from one Rng(seed).
std::vector<std::vector<stats::ParzenKde>> oracle_fits(
    gan::Cgan& model, const std::vector<std::size_t>& features,
    std::size_t gsize, double h, std::uint64_t seed) {
  const std::size_t n_cond = model.topology().cond_dim;
  math::Rng rng(seed);
  std::vector<std::vector<stats::ParzenKde>> fits(n_cond);
  for (std::size_t ci = 0; ci < n_cond; ++ci) {
    Matrix cond(1, n_cond, 0.0F);
    cond(0, ci) = 1.0F;
    const Matrix generated = model.generate_for_condition(cond, gsize, rng);
    for (const std::size_t ft : features) {
      std::vector<double> samples(gsize);
      for (std::size_t r = 0; r < gsize; ++r) {
        samples[r] = static_cast<double>(generated(r, ft));
      }
      fits[ci].emplace_back(std::move(samples), h);
    }
  }
  return fits;
}

std::vector<std::size_t> all_features(const gan::Cgan& model) {
  std::vector<std::size_t> features(model.topology().data_dim);
  for (std::size_t i = 0; i < features.size(); ++i) features[i] = i;
  return features;
}

TEST(ParzenFitOracle, FitConditionMatchesOracle) {
  auto& setup = trained_setup();
  const std::vector<std::size_t> features = {0, 7, 13, 22};
  const std::size_t gsize = 40;
  const double h = 0.05;
  const auto expected = oracle_fits(setup.model, features, gsize, h, 17);
  math::Rng rng(17);
  for (std::size_t ci = 0; ci < expected.size(); ++ci) {
    const std::vector<stats::ParzenKde> fits =
        fit_condition(setup.model.generator(), setup.model.topology(), ci,
                      features, gsize, h, rng);
    ASSERT_EQ(fits.size(), features.size());
    for (std::size_t fpos = 0; fpos < fits.size(); ++fpos) {
      EXPECT_EQ(fits[fpos].sample_count(), gsize);
      EXPECT_EQ(fits[fpos].bandwidth(), h);
      for (double x = 0.0; x <= 1.0; x += 0.0625) {
        EXPECT_EQ(fits[fpos].log_density(x),
                  expected[ci][fpos].log_density(x))
            << "condition " << ci << " feature " << features[fpos];
      }
    }
  }
}

TEST(ParzenFitOracle, Algorithm3MatchesOracle) {
  auto& setup = trained_setup();
  const am::LabeledDataset& test = setup.test_set;
  LikelihoodConfig config;
  config.generator_samples = 48;
  config.feature_indices = {2, 9, 17, 23};
  const std::uint64_t seed = 0xA19003;
  const LikelihoodResult result =
      LikelihoodAnalyzer(config, seed).analyze(setup.model, test);

  const auto fits = oracle_fits(setup.model, config.feature_indices,
                                config.generator_samples, config.parzen_h,
                                seed);
  ASSERT_EQ(result.avg_correct.size(), fits.size());
  for (std::size_t ci = 0; ci < fits.size(); ++ci) {
    for (std::size_t fpos = 0; fpos < fits[ci].size(); ++fpos) {
      const std::size_t ft = config.feature_indices[fpos];
      double cor = 0.0;
      double inc = 0.0;
      std::size_t cor_n = 0;
      std::size_t inc_n = 0;
      for (std::size_t l = 0; l < test.size(); ++l) {
        const double like = fits[ci][fpos].scaled_likelihood(
            static_cast<double>(test.features(l, ft)));
        if (test.labels[l] == ci) {
          cor += like;
          ++cor_n;
        } else {
          inc += like;
          ++inc_n;
        }
      }
      ASSERT_GT(cor_n, 0U);
      ASSERT_GT(inc_n, 0U);
      EXPECT_EQ(result.avg_correct[ci][fpos],
                cor / static_cast<double>(cor_n))
          << "condition " << ci << " feature " << ft;
      EXPECT_EQ(result.avg_incorrect[ci][fpos],
                inc / static_cast<double>(inc_n))
          << "condition " << ci << " feature " << ft;
    }
  }
}

TEST(ParzenFitOracle, AttackerMatchesOracle) {
  auto& setup = trained_setup();
  const Matrix& features = setup.test_set.features;
  // Few samples and a narrow window make the argmax depend on the draws,
  // so a change in draw order flips predictions.
  ConfidentialityConfig config;
  config.generator_samples = 4;
  config.parzen_h = 0.05;
  const std::uint64_t seed = 0xC0F1DE;
  const std::vector<std::size_t> predicted =
      ConfidentialityAnalyzer(config, seed)
          .infer_conditions(setup.model, features);

  const std::vector<std::size_t> indices = all_features(setup.model);
  const auto fits = oracle_fits(setup.model, indices,
                                config.generator_samples, config.parzen_h,
                                seed);
  std::vector<std::size_t> expected(features.rows());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    double best_score = -1e300;
    for (std::size_t ci = 0; ci < fits.size(); ++ci) {
      double acc = 0.0;
      for (std::size_t fpos = 0; fpos < indices.size(); ++fpos) {
        acc += fits[ci][fpos].log_density(
            static_cast<double>(features(r, indices[fpos])));
      }
      if (acc > best_score) {
        best_score = acc;
        expected[r] = ci;
      }
    }
  }
  EXPECT_EQ(predicted, expected);
}

TEST(ParzenFitOracle, DetectorMatchesOracle) {
  auto& setup = trained_setup();
  const am::LabeledDataset& test = setup.test_set;
  DetectorConfig config;
  config.generator_samples = 96;
  config.feature_indices = {1, 4, 11, 20};
  const std::uint64_t seed = 0xDE7EC7;
  const ScoringModel model(setup.model, config, seed);

  const auto fits = oracle_fits(setup.model, config.feature_indices,
                                config.generator_samples, config.parzen_h,
                                seed);
  for (std::size_t l = 0; l < test.size(); ++l) {
    const Matrix row = test.features.row(l);
    for (std::size_t ci = 0; ci < fits.size(); ++ci) {
      double acc = 0.0;
      for (std::size_t fpos = 0; fpos < fits[ci].size(); ++fpos) {
        acc += std::max(fits[ci][fpos].log_density(static_cast<double>(
                            row(0, config.feature_indices[fpos]))),
                        ScoringModel::kLogFloor);
      }
      EXPECT_EQ(model.score_row(row, ci),
                acc / static_cast<double>(fits[ci].size()))
          << "row " << l << " condition " << ci;
    }
  }
}

}  // namespace
}  // namespace gansec::security
