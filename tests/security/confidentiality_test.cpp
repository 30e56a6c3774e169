#include "gansec/security/confidentiality.hpp"

#include <gtest/gtest.h>

#include "gansec/error.hpp"
#include "gansec/security/report.hpp"
#include "test_fixture.hpp"

namespace gansec::security {
namespace {

using testing::trained_setup;

ConfidentialityConfig fast_config() {
  ConfidentialityConfig config;
  config.generator_samples = 96;
  return config;
}

TEST(ConfidentialityConfig, Validation) {
  ConfidentialityConfig config;
  config.generator_samples = 0;
  EXPECT_THROW(ConfidentialityAnalyzer{config}, InvalidArgumentError);
  config = ConfidentialityConfig{};
  config.parzen_h = 0.0;
  EXPECT_THROW(ConfidentialityAnalyzer{config}, InvalidArgumentError);
  config = ConfidentialityConfig{};
  config.mi_bins = 0;
  EXPECT_THROW(ConfidentialityAnalyzer{config}, InvalidArgumentError);
}

TEST(ConfidentialityAnalyzer, InferShapes) {
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  const auto predictions =
      analyzer.infer_conditions(setup.model, setup.test_set.features);
  EXPECT_EQ(predictions.size(), setup.test_set.size());
  for (const std::size_t p : predictions) EXPECT_LT(p, 3U);
}

TEST(ConfidentialityAnalyzer, InferRejectsWrongWidth) {
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  EXPECT_THROW(analyzer.infer_conditions(setup.model, math::Matrix(2, 5)),
               DimensionError);
  ConfidentialityConfig config = fast_config();
  config.feature_indices = {999};
  EXPECT_THROW(ConfidentialityAnalyzer(config).infer_conditions(
                   setup.model, setup.test_set.features),
               InvalidArgumentError);
}

TEST(ConfidentialityAnalyzer, AttackerBeatsChanceOnTrainedModel) {
  // The paper's confidentiality finding: acoustic emissions leak the
  // G-code condition. The CGAN-based attacker must do far better than the
  // 1/3 chance level on held-out data.
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  const ConfidentialityReport report =
      analyzer.analyze(setup.model, setup.test_set);
  EXPECT_GT(report.attacker_accuracy, 0.55);
  EXPECT_TRUE(report.leaks());
}

TEST(ConfidentialityAnalyzer, ReportFieldsConsistent) {
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  const ConfidentialityReport report =
      analyzer.analyze(setup.model, setup.test_set);
  EXPECT_EQ(report.condition_count, 3U);
  EXPECT_EQ(report.per_condition_recall.size(), 3U);
  EXPECT_EQ(report.mi_per_feature.size(), setup.dataset_config.bins);
  EXPECT_GE(report.mean_mi, 0.0);
  EXPECT_GE(report.max_mi, report.mean_mi);
  EXPECT_LT(report.max_mi_feature, setup.dataset_config.bins);
  for (const double r : report.per_condition_recall) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(ConfidentialityAnalyzer, MeasuredEmissionsCarryInformation) {
  // Model-free check on the simulated side channel itself.
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  const ConfidentialityReport report =
      analyzer.analyze(setup.model, setup.test_set);
  EXPECT_GT(report.max_mi, 0.3);
}

TEST(ConfidentialityReport, LeaksThreshold) {
  ConfidentialityReport report;
  report.condition_count = 4;
  report.attacker_accuracy = 0.30;
  EXPECT_FALSE(report.leaks(1.5));  // 0.30 < 1.5 * 0.25
  report.attacker_accuracy = 0.40;
  EXPECT_TRUE(report.leaks(1.5));
}

TEST(ConfidentialityAnalyzer, EmptyTestSetThrows) {
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  am::LabeledDataset empty;
  empty.features = math::Matrix(0, setup.dataset_config.bins);
  empty.conditions = math::Matrix(0, 3);
  EXPECT_THROW(analyzer.analyze(setup.model, empty), InvalidArgumentError);
}

TEST(Report, FormatsAreNonEmptyAndContainKeyFields) {
  auto& setup = trained_setup();
  const ConfidentialityAnalyzer analyzer(fast_config());
  const ConfidentialityReport conf =
      analyzer.analyze(setup.model, setup.test_set);
  const std::string text = format_confidentiality(conf);
  EXPECT_NE(text.find("attacker accuracy"), std::string::npos);
  EXPECT_NE(text.find("verdict"), std::string::npos);

  const LikelihoodAnalyzer lik(LikelihoodConfig{64, 0.2, {0, 1}});
  const LikelihoodResult result = lik.analyze(setup.model, setup.test_set);
  const std::string summary = format_likelihood_summary(result);
  EXPECT_NE(summary.find("Cond1"), std::string::npos);
  EXPECT_NE(summary.find("most leaky"), std::string::npos);

  const std::string table =
      format_table1({0.2, 0.4}, {result, result});
  EXPECT_NE(table.find("h=0.2"), std::string::npos);
  EXPECT_NE(table.find("Cond3"), std::string::npos);
  EXPECT_THROW(format_table1({0.2}, {result, result}),
               InvalidArgumentError);
}

TEST(Report, TrainingCurveFormat) {
  std::vector<gan::TrainRecord> history(10);
  for (std::size_t i = 0; i < history.size(); ++i) {
    history[i].iteration = i + 1;
    history[i].g_loss = 1.0;
    history[i].d_loss = 0.5;
  }
  const std::string curve = format_training_curve(history, 2);
  EXPECT_NE(curve.find("iteration\tg_loss"), std::string::npos);
  // Header + 5 strided rows.
  EXPECT_EQ(std::count(curve.begin(), curve.end(), '\n'), 6);
  EXPECT_THROW(format_training_curve(history, 0), InvalidArgumentError);
}

}  // namespace
}  // namespace gansec::security
