#include "gansec/security/detector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/math/stats.hpp"
#include "gansec/security/stream_detector.hpp"
#include "test_fixture.hpp"

namespace gansec::security {
namespace {

using testing::trained_setup;

DetectorConfig fast_config() {
  DetectorConfig config;
  config.generator_samples = 96;
  return config;
}

std::shared_ptr<const ScoringModel> scoring_model(
    const DetectorConfig& config = fast_config()) {
  return std::make_shared<const ScoringModel>(trained_setup().model, config);
}

TEST(DetectorConfig, Validation) {
  auto& setup = trained_setup();
  DetectorConfig config = fast_config();
  config.generator_samples = 0;
  EXPECT_THROW(ScoringModel(setup.model, config), InvalidArgumentError);
  config = fast_config();
  config.parzen_h = 0.0;
  EXPECT_THROW(ScoringModel(setup.model, config), InvalidArgumentError);
  config = fast_config();
  config.false_alarm_percentile = 150.0;
  EXPECT_THROW(ScoringModel(setup.model, config), InvalidArgumentError);
  config = fast_config();
  config.feature_indices = {999};
  EXPECT_THROW(ScoringModel(setup.model, config), InvalidArgumentError);
}

TEST(Detector, ScoreValidation) {
  auto& setup = trained_setup();
  const auto model = scoring_model();
  const math::Matrix row(1, setup.dataset_config.bins, 0.5F);
  EXPECT_THROW(model->score_row(row, 5), InvalidArgumentError);
  EXPECT_THROW(model->score_row(math::Matrix(2, setup.dataset_config.bins), 0),
               DimensionError);
  EXPECT_NO_THROW(model->score_row(row, 0));
}

TEST(Detector, CalibrateRejectsAttackedData) {
  auto& setup = trained_setup();
  const auto model = scoring_model();
  AttackInjector injector(setup.builder);
  std::vector<Observation> mixed{
      injector.make_observation(0, AttackKind::kNone),
      injector.make_observation(1, AttackKind::kIntegrity)};
  EXPECT_THROW(calibrate_threshold(*model, mixed), InvalidArgumentError);
  EXPECT_THROW(calibrate_threshold(*model, {}), InvalidArgumentError);
}

TEST(Detector, BenignScoresAboveAvailabilityScores) {
  auto& setup = trained_setup();
  const auto model = scoring_model();
  AttackInjector injector(setup.builder, 31);
  double benign = 0.0;
  double stalled = 0.0;
  for (int i = 0; i < 10; ++i) {
    const std::size_t label = static_cast<std::size_t>(i % 3);
    benign += model->score_row(
        injector.make_observation(label, AttackKind::kNone).features, label);
    stalled += model->score_row(
        injector.make_observation(label, AttackKind::kAvailability).features,
        label);
  }
  EXPECT_GT(benign, stalled);
}

TEST(Detector, DetectsAvailabilityAttacks) {
  auto& setup = trained_setup();
  const auto model = scoring_model();
  AttackInjector injector(setup.builder, 41);
  const double threshold = calibrate_threshold(
      *model, injector.generate(20, 0.0, AttackKind::kNone));
  const auto mixed = injector.generate(20, 0.5, AttackKind::kAvailability);
  const DetectionReport report = evaluate(model, threshold, mixed);
  EXPECT_GT(report.auc, 0.8);
  EXPECT_GT(report.true_positive_rate, report.false_positive_rate);
  EXPECT_EQ(report.attacked + report.benign, mixed.size());
}

TEST(Detector, DetectsIntegrityAttacks) {
  auto& setup = trained_setup();
  const auto model = scoring_model();
  AttackInjector injector(setup.builder, 43);
  const double threshold = calibrate_threshold(
      *model, injector.generate(20, 0.0, AttackKind::kNone));
  const auto mixed = injector.generate(20, 0.5, AttackKind::kIntegrity);
  const DetectionReport report = evaluate(model, threshold, mixed);
  EXPECT_GT(report.auc, 0.6);
}

TEST(Detector, FalseAlarmRateNearConfigured) {
  auto& setup = trained_setup();
  DetectorConfig config = fast_config();
  config.false_alarm_percentile = 10.0;
  const auto model = scoring_model(config);
  AttackInjector injector(setup.builder, 47);
  const auto calibration = injector.generate(30, 0.0, AttackKind::kNone);
  const double threshold = calibrate_threshold(*model, calibration);
  // The threshold is exactly the configured percentile of the calibration
  // scores.
  std::vector<double> scores;
  for (const Observation& obs : calibration) {
    scores.push_back(model->score_row(obs.features, obs.expected_label));
  }
  EXPECT_EQ(threshold, math::percentile(scores, 10.0));
  const auto benign = injector.generate(30, 0.0, AttackKind::kNone);
  const DetectionReport report = evaluate(model, threshold, benign);
  EXPECT_EQ(report.attacked, 0U);
  // ~10% of benign observations should alarm (generous tolerance).
  EXPECT_LT(report.false_positive_rate, 0.3);
}

TEST(ScoringModel, DefaultSeedIsDE7EC7) {
  // The default seed fixes every gansec detect / serve number; a model
  // built with the literal seed must score every test row identically.
  auto& setup = trained_setup();
  const ScoringModel by_default(setup.model, fast_config());
  const ScoringModel pinned(setup.model, fast_config(), 0xDE7EC7);
  const math::Matrix& rows = setup.test_set.features;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const float* row = rows.data() + r * rows.cols();
    const std::size_t label = setup.test_set.labels[r];
    EXPECT_EQ(by_default.score(row, rows.cols(), label),
              pinned.score(row, rows.cols(), label))
        << "row " << r;
  }
}

TEST(Detector, EvaluateEmptyThrows) {
  EXPECT_THROW(evaluate(scoring_model(), 0.0, {}), InvalidArgumentError);
}

TEST(Detector, FeatureSubsetWorks) {
  auto& setup = trained_setup();
  DetectorConfig config = fast_config();
  config.feature_indices = {0, 4, 8, 12};
  const auto model = scoring_model(config);
  AttackInjector injector(setup.builder, 53);
  const double threshold = calibrate_threshold(
      *model, injector.generate(10, 0.0, AttackKind::kNone));
  EXPECT_NO_THROW(evaluate(
      model, threshold, injector.generate(10, 0.5, AttackKind::kAvailability)));
}

}  // namespace
}  // namespace gansec::security
