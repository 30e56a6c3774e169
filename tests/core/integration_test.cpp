// End-to-end integration: the full GAN-Sec methodology plus attack
// detection and model persistence, at reduced scale.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "gansec/core/pipeline.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/security/report.hpp"
#include "gansec/security/stream_detector.hpp"

namespace gansec::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  // One shared pipeline run for the whole suite (training is the cost).
  static void SetUpTestSuite() {
    PipelineConfig config;
    config.dataset.samples_per_condition = 40;
    config.dataset.window_s = 0.15;
    config.dataset.bins = 24;
    config.dataset.f_max = 4000.0;
    config.dataset.acoustic.sample_rate = 12000.0;
    config.train.iterations = 800;
    config.train.batch_size = 32;
    config.generator_hidden = {64, 64};
    config.discriminator_hidden = {64, 64};
    pipeline_ = new GanSecPipeline(config);
    result_ = new PipelineResult(pipeline_->run());
  }

  static void TearDownTestSuite() {
    delete result_;
    delete pipeline_;
    result_ = nullptr;
    pipeline_ = nullptr;
  }

  static GanSecPipeline* pipeline_;
  static PipelineResult* result_;
};

GanSecPipeline* IntegrationTest::pipeline_ = nullptr;
PipelineResult* IntegrationTest::result_ = nullptr;

/// Saves `original` as a gansec.model.v1 checkpoint file and loads it back.
gan::Cgan reload(const gan::Cgan& original) {
  const std::string path =
      ::testing::TempDir() + "/gansec_integration_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".gsm";
  model::save_cgan_checkpoint(original, path);
  gan::Cgan loaded = model::load_cgan_checkpoint_file(path);
  std::remove(path.c_str());
  return loaded;
}

TEST_F(IntegrationTest, TrainingReachesAdversarialBalance) {
  // Late in training the discriminator must be neither collapsed (fakes
  // trivially rejected, d_fake ~ 0) nor fooled outright (d_fake ~ 1), and
  // its loss must sit near the two-player equilibrium rather than at zero.
  const auto& history = result_->history;
  double late_fake = 0.0;
  double late_d_loss = 0.0;
  const std::size_t window = 100;
  for (std::size_t i = 0; i < window; ++i) {
    late_fake += history[history.size() - 1 - i].d_fake_mean / window;
    late_d_loss += history[history.size() - 1 - i].d_loss / window;
  }
  EXPECT_GT(late_fake, 0.2);
  EXPECT_LT(late_fake, 0.8);
  EXPECT_GT(late_d_loss, 0.4);
  EXPECT_LT(late_d_loss, 2.5);
  for (const gan::TrainRecord& r : history) {
    ASSERT_TRUE(std::isfinite(r.g_loss));
    ASSERT_TRUE(std::isfinite(r.d_loss));
  }
}

TEST_F(IntegrationTest, LikelihoodSeparation) {
  double cor = 0.0;
  double inc = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    cor += result_->likelihood.mean_correct(c) / 3.0;
    inc += result_->likelihood.mean_incorrect(c) / 3.0;
  }
  EXPECT_GT(cor, inc);
}

TEST_F(IntegrationTest, ConfidentialityBreachDetected) {
  EXPECT_GT(result_->confidentiality.attacker_accuracy, 0.55);
  EXPECT_TRUE(result_->confidentiality.leaks());
}

TEST_F(IntegrationTest, AttackDetectionEndToEnd) {
  security::DetectorConfig det_config;
  det_config.generator_samples = 96;
  const auto scoring = std::make_shared<const security::ScoringModel>(
      result_->model, det_config);
  security::AttackInjector injector(pipeline_->builder(), 7);
  const double threshold = security::calibrate_threshold(
      *scoring, injector.generate(20, 0.0, security::AttackKind::kNone));

  const auto availability =
      injector.generate(15, 0.6, security::AttackKind::kAvailability);
  const security::DetectionReport avail_report =
      security::evaluate(scoring, threshold, availability);
  EXPECT_GT(avail_report.auc, 0.8);

  const auto integrity =
      injector.generate(15, 0.6, security::AttackKind::kIntegrity);
  const security::DetectionReport integ_report =
      security::evaluate(scoring, threshold, integrity);
  EXPECT_GT(integ_report.auc, 0.55);
}

TEST_F(IntegrationTest, ModelPersistenceRoundTrip) {
  gan::Cgan loaded = reload(result_->model);
  // The reloaded generator must reproduce the original's behaviour exactly.
  math::Rng rng_a(3);
  math::Rng rng_b(3);
  math::Matrix cond(1, 3, 0.0F);
  cond(0, 2) = 1.0F;
  EXPECT_EQ(result_->model.generate_for_condition(cond, 8, rng_a),
            loaded.generate_for_condition(cond, 8, rng_b));
}

TEST_F(IntegrationTest, ReloadedModelSupportsAnalysis) {
  gan::Cgan loaded = reload(result_->model);
  security::LikelihoodConfig config;
  config.generator_samples = 48;
  config.feature_indices = {0, 6, 12};
  const security::LikelihoodAnalyzer analyzer(config, 5);
  const security::LikelihoodResult from_loaded =
      analyzer.analyze(loaded, result_->test_set);
  const security::LikelihoodResult from_original =
      analyzer.analyze(result_->model, result_->test_set);
  EXPECT_EQ(from_loaded.avg_correct, from_original.avg_correct);
}

TEST_F(IntegrationTest, Table1ShapeHolds) {
  // Reduced Table I: Cor > Inc averaged over conditions for each width.
  for (const double h : {0.2, 0.6, 1.0}) {
    security::LikelihoodConfig config;
    config.generator_samples = 96;
    config.parzen_h = h;
    const security::LikelihoodAnalyzer analyzer(config, 11);
    const security::LikelihoodResult result =
        analyzer.analyze(result_->model, result_->test_set);
    double cor = 0.0;
    double inc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      cor += result.mean_correct(c) / 3.0;
      inc += result.mean_incorrect(c) / 3.0;
    }
    EXPECT_GT(cor, inc) << "h=" << h;
  }
}

TEST_F(IntegrationTest, CheckpointConvergenceShape) {
  // Figure 9 shape at reduced scale: the correct likelihood at the end of
  // training exceeds the value early in training.
  PipelineConfig config;
  config.dataset.samples_per_condition = 30;
  config.dataset.window_s = 0.15;
  config.dataset.bins = 20;
  config.dataset.f_max = 4000.0;
  config.dataset.acoustic.sample_rate = 12000.0;
  config.generator_hidden = {48};
  config.discriminator_hidden = {48};

  GanSecPipeline fresh(config);
  auto [train, test] = am::DatasetBuilder(config.dataset).build_split(0.7);
  gan::Cgan model(fresh.topology(), 3);
  gan::TrainConfig train_config;
  train_config.iterations = 600;
  train_config.batch_size = 32;
  train_config.checkpoint_every = 300;
  gan::CganTrainer trainer(model, train_config, 17);
  trainer.train(train.features, train.conditions);
  ASSERT_EQ(trainer.checkpoints().size(), 2U);

  security::LikelihoodConfig lik;
  lik.generator_samples = 96;
  const security::LikelihoodAnalyzer analyzer(lik, 23);
  std::vector<double> cor_over_time;
  for (const auto& checkpoint : trainer.checkpoints()) {
    nn::Mlp generator = checkpoint.generator.clone();
    const auto result =
        analyzer.analyze_generator(generator, model.topology(), test);
    double cor = 0.0;
    for (std::size_t c = 0; c < 3; ++c) cor += result.mean_correct(c) / 3.0;
    cor_over_time.push_back(cor);
  }
  EXPECT_GT(cor_over_time.back(), 0.05);
}

}  // namespace
}  // namespace gansec::core
