#include "gansec/security/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gansec/error.hpp"
#include "test_fixture.hpp"

namespace gansec::security {
namespace {

using testing::trained_setup;

TEST(LikelihoodConfig, Validation) {
  LikelihoodConfig config;
  config.generator_samples = 0;
  EXPECT_THROW(LikelihoodAnalyzer{config}, InvalidArgumentError);
  config = LikelihoodConfig{};
  config.parzen_h = 0.0;
  EXPECT_THROW(LikelihoodAnalyzer{config}, InvalidArgumentError);
  config = LikelihoodConfig{};
  config.parzen_h = -0.2;
  EXPECT_THROW(LikelihoodAnalyzer{config}, InvalidArgumentError);
}

TEST(LikelihoodAnalyzer, RejectsMismatchedTestSet) {
  auto& setup = trained_setup();
  const LikelihoodAnalyzer analyzer(LikelihoodConfig{});
  am::LabeledDataset bad = setup.test_set;
  bad.features = bad.features.slice_cols(0, 10);
  EXPECT_THROW(analyzer.analyze(setup.model, bad), DimensionError);
}

TEST(LikelihoodAnalyzer, RejectsBadFeatureIndex) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.feature_indices = {999};
  const LikelihoodAnalyzer analyzer(config);
  EXPECT_THROW(analyzer.analyze(setup.model, setup.test_set),
               InvalidArgumentError);
}

TEST(LikelihoodAnalyzer, ResultShapesAllFeatures) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 64;
  const LikelihoodAnalyzer analyzer(config);
  const LikelihoodResult result = analyzer.analyze(setup.model,
                                                   setup.test_set);
  EXPECT_EQ(result.condition_count(), 3U);
  ASSERT_EQ(result.feature_indices.size(), 24U);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.avg_correct[c].size(), 24U);
    EXPECT_EQ(result.avg_incorrect[c].size(), 24U);
  }
}

TEST(LikelihoodAnalyzer, ResultShapesFeatureSubset) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 64;
  config.feature_indices = {0, 5, 10};
  const LikelihoodAnalyzer analyzer(config);
  const LikelihoodResult result = analyzer.analyze(setup.model,
                                                   setup.test_set);
  EXPECT_EQ(result.feature_indices, (std::vector<std::size_t>{0, 5, 10}));
  EXPECT_EQ(result.avg_correct[0].size(), 3U);
}

TEST(LikelihoodAnalyzer, LikelihoodsWithinParzenBound) {
  // Like = exp(LogLike) * h <= 1/sqrt(2*pi) for a Gaussian Parzen window.
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 64;
  const LikelihoodAnalyzer analyzer(config);
  const LikelihoodResult result = analyzer.analyze(setup.model,
                                                   setup.test_set);
  const double bound = 1.0 / std::sqrt(2.0 * std::numbers::pi) + 1e-9;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t f = 0; f < result.avg_correct[c].size(); ++f) {
      EXPECT_GE(result.avg_correct[c][f], 0.0);
      EXPECT_LE(result.avg_correct[c][f], bound);
      EXPECT_GE(result.avg_incorrect[c][f], 0.0);
      EXPECT_LE(result.avg_incorrect[c][f], bound);
    }
  }
}

TEST(LikelihoodAnalyzer, TrainedModelSeparatesCorrectFromIncorrect) {
  // The paper's core claim (Table I): averaged over conditions, the correct
  // likelihood exceeds the incorrect likelihood once the CGAN has learned
  // Pr(Freq | Cond).
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 128;
  const LikelihoodAnalyzer analyzer(config);
  const LikelihoodResult result = analyzer.analyze(setup.model,
                                                   setup.test_set);
  double cor = 0.0;
  double inc = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    cor += result.mean_correct(c);
    inc += result.mean_incorrect(c);
  }
  EXPECT_GT(cor, inc);
}

TEST(LikelihoodAnalyzer, DeterministicForSameSeed) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 32;
  config.feature_indices = {3, 7};
  const LikelihoodAnalyzer a(config, 55);
  const LikelihoodAnalyzer b(config, 55);
  const LikelihoodResult ra = a.analyze(setup.model, setup.test_set);
  const LikelihoodResult rb = b.analyze(setup.model, setup.test_set);
  EXPECT_EQ(ra.avg_correct, rb.avg_correct);
  EXPECT_EQ(ra.avg_incorrect, rb.avg_incorrect);
}

TEST(LikelihoodAnalyzer, AnalyzeGeneratorMatchesAnalyze) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 32;
  config.feature_indices = {0};
  const LikelihoodAnalyzer analyzer(config, 77);
  const LikelihoodResult via_model = analyzer.analyze(setup.model,
                                                      setup.test_set);
  const LikelihoodResult via_generator = analyzer.analyze_generator(
      setup.model.generator(), setup.model.topology(), setup.test_set);
  EXPECT_EQ(via_model.avg_correct, via_generator.avg_correct);
}

TEST(ResolveFeatureIndices, EmptyMeansAllAndRangeIsChecked) {
  EXPECT_EQ(resolve_feature_indices({}, 4),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(resolve_feature_indices({3, 1}, 4),
            (std::vector<std::size_t>{3, 1}));
  EXPECT_THROW(resolve_feature_indices({1, 4}, 4), InvalidArgumentError);
}

TEST(FitCondition, RejectsBadArguments) {
  auto& setup = trained_setup();
  nn::Mlp& generator = setup.model.generator();
  const gan::CganTopology& topology = setup.model.topology();
  math::Rng rng(1);
  EXPECT_THROW(fit_condition(generator, topology, 3, {0}, 16, 0.2, rng),
               InvalidArgumentError);
  EXPECT_THROW(fit_condition(generator, topology, 0, {0}, 0, 0.2, rng),
               InvalidArgumentError);
  EXPECT_THROW(fit_condition(generator, topology, 0, {0}, 16, 0.0, rng),
               InvalidArgumentError);
  EXPECT_THROW(fit_condition(generator, topology, 0, {24}, 16, 0.2, rng),
               DimensionError);
  EXPECT_EQ(fit_condition(generator, topology, 2, {4, 0, 9}, 16, 0.2, rng)
                .size(),
            3U);
}

TEST(LikelihoodResult, Aggregates) {
  LikelihoodResult result;
  result.feature_indices = {0, 1};
  result.avg_correct = {{0.2, 0.4}, {0.6, 0.8}};
  result.avg_incorrect = {{0.1, 0.1}, {0.2, 0.2}};
  EXPECT_DOUBLE_EQ(result.mean_correct(0), 0.3);
  EXPECT_DOUBLE_EQ(result.mean_correct(1), 0.7);
  EXPECT_DOUBLE_EQ(result.mean_incorrect(1), 0.2);
  EXPECT_EQ(result.most_leaky_condition(), 1U);
}

TEST(LikelihoodResult, EmptyThrows) {
  const LikelihoodResult result;
  EXPECT_THROW(result.most_leaky_condition(), InvalidArgumentError);
}

// Parzen-width sweep reproducing the Table I trend: the incorrect
// likelihood grows with h (wider windows blur class separation).
class WidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(WidthSweep, BoundedLikelihoods) {
  auto& setup = trained_setup();
  LikelihoodConfig config;
  config.generator_samples = 64;
  config.parzen_h = GetParam();
  config.feature_indices = {0, 8, 16};
  const LikelihoodAnalyzer analyzer(config);
  const LikelihoodResult result = analyzer.analyze(setup.model,
                                                   setup.test_set);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_GE(result.mean_correct(c), 0.0);
    EXPECT_LE(result.mean_correct(c), 0.4);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, WidthSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace gansec::security
