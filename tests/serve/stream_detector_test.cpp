// ScoringModel / StreamDetector battery: the streaming scorer must be
// bit-identical to the batch score_row path (same estimators, same FP op
// order), and the per-stream verdict state machine must classify
// integrity vs availability and honor consecutive_to_alarm.
#include "gansec/security/stream_detector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/security/attacks.hpp"
#include "serve_fixture.hpp"

namespace gansec::security {
namespace {

using gansec::serve::testing::serve_setup;

DetectorConfig fast_config() {
  DetectorConfig config;
  config.generator_samples = 64;
  return config;
}

std::shared_ptr<const ScoringModel> shared_model() {
  static auto model = std::make_shared<const ScoringModel>(
      serve_setup().model, fast_config());
  return model;
}

TEST(ScoringModel, BitIdenticalToBatchDetector) {
  auto& setup = serve_setup();
  // The batch path (calibrate_threshold / evaluate) builds its own model
  // from the same CGAN and config and scores matrix rows.
  const ScoringModel batch(setup.model, fast_config());
  const auto scoring = shared_model();
  AttackInjector injector(setup.builder, 61);
  for (int i = 0; i < 9; ++i) {
    const auto label = static_cast<std::size_t>(i % 3);
    const Observation obs = injector.make_observation(
        label, i % 2 == 0 ? AttackKind::kNone : AttackKind::kIntegrity);
    const double batch_score = batch.score_row(obs.features, label);
    // EXPECT_EQ, not NEAR: the refactor's contract is the same FP ops in
    // the same order, so the doubles must be identical to the last bit.
    EXPECT_EQ(scoring->score_row(obs.features, label), batch_score);
    EXPECT_EQ(scoring->score(obs.features.data(), obs.features.cols(), label),
              batch_score);
  }
}

TEST(ScoringModel, Validation) {
  auto& setup = serve_setup();
  const auto scoring = shared_model();
  const math::Matrix row(1, setup.dataset_config.bins, 0.5F);
  EXPECT_THROW(scoring->score_row(row, 7), InvalidArgumentError);
  EXPECT_THROW(scoring->score_row(math::Matrix(1, 3, 0.5F), 0),
               DimensionError);
  std::vector<float> flat(setup.dataset_config.bins, 0.5F);
  EXPECT_THROW(scoring->score(flat.data(), 3, 0), DimensionError);
  DetectorConfig bad = fast_config();
  bad.generator_samples = 0;
  EXPECT_THROW(ScoringModel(setup.model, bad), InvalidArgumentError);
}

TEST(StreamDetector, AnomalousWindowWithEnergyIsIntegrity) {
  StreamDetectorConfig config;
  config.threshold = 1e9;  // every window scores below this: all anomalous
  StreamDetector detector(shared_model(), config);
  const std::vector<float> loud(shared_model()->data_dim(), 0.5F);
  const WindowVerdict v =
      detector.score_window(loud.data(), loud.size(), 0);
  EXPECT_EQ(v.verdict, StreamVerdict::kIntegrity);
  EXPECT_EQ(v.sequence, 0U);
  EXPECT_DOUBLE_EQ(v.mean_feature, 0.5);
}

TEST(StreamDetector, AnomalousSilentWindowIsAvailability) {
  StreamDetectorConfig config;
  config.threshold = 1e9;
  StreamDetector detector(shared_model(), config);
  const std::vector<float> silent(shared_model()->data_dim(), 0.0F);
  const WindowVerdict v =
      detector.score_window(silent.data(), silent.size(), 0);
  EXPECT_EQ(v.verdict, StreamVerdict::kAvailability);
}

TEST(StreamDetector, BenignWhenScoreAboveThreshold) {
  StreamDetectorConfig config;
  config.threshold = -1e9;  // nothing scores below this
  StreamDetector detector(shared_model(), config);
  const std::vector<float> features(shared_model()->data_dim(), 0.5F);
  const WindowVerdict v =
      detector.score_window(features.data(), features.size(), 0);
  EXPECT_EQ(v.verdict, StreamVerdict::kBenign);
  EXPECT_EQ(detector.anomaly_run(), 0U);
}

TEST(StreamDetector, ConsecutiveToAlarmSuppressesSingletons) {
  StreamDetectorConfig config;
  config.threshold = 1e9;
  config.consecutive_to_alarm = 2;
  StreamDetector detector(shared_model(), config);
  const std::vector<float> loud(shared_model()->data_dim(), 0.5F);
  // First anomalous window: run too short, verdict stays benign.
  EXPECT_EQ(detector.score_window(loud.data(), loud.size(), 0).verdict,
            StreamVerdict::kBenign);
  EXPECT_EQ(detector.anomaly_run(), 1U);
  // Second in a row: fires.
  EXPECT_EQ(detector.score_window(loud.data(), loud.size(), 0).verdict,
            StreamVerdict::kIntegrity);
  EXPECT_EQ(detector.anomaly_run(), 2U);

  // A benign window in between breaks the run: anomalous, benign,
  // anomalous is two singletons, not a run of two. The threshold sits
  // between two windows' scores, so the lower one alone is anomalous.
  const std::vector<float> quiet(shared_model()->data_dim(), 0.1F);
  const double loud_score = shared_model()->score(loud.data(), loud.size(), 0);
  const double quiet_score =
      shared_model()->score(quiet.data(), quiet.size(), 0);
  ASSERT_NE(loud_score, quiet_score);
  const std::vector<float>& low = loud_score < quiet_score ? loud : quiet;
  const std::vector<float>& high = loud_score < quiet_score ? quiet : loud;
  config.threshold = 0.5 * (loud_score + quiet_score);
  StreamDetector interrupted(shared_model(), config);
  for (const std::vector<float>* window : {&low, &high, &low}) {
    EXPECT_EQ(interrupted.score_window(window->data(), window->size(), 0)
                  .verdict,
              StreamVerdict::kBenign);
  }
  EXPECT_EQ(interrupted.anomaly_run(), 1U);
}

TEST(StreamDetector, ResetClearsState) {
  StreamDetectorConfig config;
  config.threshold = 1e9;
  StreamDetector detector(shared_model(), config);
  const std::vector<float> loud(shared_model()->data_dim(), 0.5F);
  detector.score_window(loud.data(), loud.size(), 0);
  EXPECT_EQ(detector.windows(), 1U);
  detector.reset();
  EXPECT_EQ(detector.windows(), 0U);
  EXPECT_EQ(detector.anomaly_run(), 0U);
}

TEST(StreamDetector, SwapModelValidatesShape) {
  auto& setup = serve_setup();
  StreamDetector detector(shared_model(), StreamDetectorConfig{});
  // An untrained generator of a different width: sampling works, shapes
  // don't match — the swap must refuse.
  gan::Cgan narrow(
      gan::CganTopology{8, 3, 8, {16}, {16}, 0.2F, 0.0F}, 99);
  EXPECT_THROW(detector.swap_model(std::make_shared<const ScoringModel>(
                   narrow, fast_config())),
               DimensionError);
  EXPECT_THROW(detector.swap_model(nullptr), InvalidArgumentError);
  // Same-shape swap succeeds and preserves the stream state.
  const std::vector<float> loud(shared_model()->data_dim(), 0.5F);
  detector.score_window(loud.data(), loud.size(), 0);
  gan::Cgan same_shape(
      gan::CganTopology{setup.dataset_config.bins, 3, 8, {16}, {16}, 0.2F,
                        0.0F},
      101);
  detector.swap_model(
      std::make_shared<const ScoringModel>(same_shape, fast_config()));
  EXPECT_EQ(detector.windows(), 1U);
}

}  // namespace
}  // namespace gansec::security
