// gansec.model.v1 round-trip battery: a saved object must load back
// bit-identical in every observable way — weights, forward passes,
// generator draws across thread counts, and a resumed training run versus
// an uninterrupted one.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "gansec/core/execution.hpp"
#include "gansec/error.hpp"
#include "gansec/gan/cgan.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/math/matrix.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/batchnorm.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/dropout.hpp"
#include "gansec/nn/mlp.hpp"

namespace gansec::model {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  // Per-test subdirectory: gtest_discover_tests makes every TEST its own
  // ctest entry, so parallel ctest runs these as concurrent processes; a
  // shared file name (e.g. the three TrainerResume variants, which all
  // route through check_resume) would race.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("gansec_roundtrip_") + info->name());
  fs::create_directories(dir);
  return (dir / name).string();
}

/// Bitwise equality — EXPECT_EQ on Matrix goes through float comparison,
/// which treats -0.0f == 0.0f; round-trip identity is a byte contract.
void expect_bit_identical(const math::Matrix& a, const math::Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

void expect_mlp_weights_identical(const nn::Mlp& a, const nn::Mlp& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  nn::Mlp& ma = const_cast<nn::Mlp&>(a);
  nn::Mlp& mb = const_cast<nn::Mlp&>(b);
  const auto pa = ma.parameters();
  const auto pb = mb.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    expect_bit_identical(pa[i]->value, pb[i]->value);
  }
}

/// A network using every serializable layer kind, with live BatchNorm
/// running stats and a Dropout mask-RNG cursor moved off its seed.
nn::Mlp zoo_mlp() {
  nn::Mlp mlp;
  mlp.emplace<nn::Dense>(4, 8, nn::InitScheme::kHeNormal);
  mlp.emplace<nn::LeakyRelu>(0.1F);
  mlp.emplace<nn::BatchNorm>(8, 0.2F);
  mlp.emplace<nn::Dropout>(0.25F, 0xD0D0U);
  mlp.emplace<nn::Dense>(8, 6, nn::InitScheme::kXavierUniform);
  mlp.emplace<nn::Relu>();
  mlp.emplace<nn::Dense>(6, 3, nn::InitScheme::kXavierUniform);
  mlp.emplace<nn::Tanh>();
  mlp.emplace<nn::Sigmoid>();
  math::Rng rng(0x6E44U);
  mlp.init_weights(rng);
  // Advance running stats and the dropout cursor past their initial state
  // so the round trip proves they are persisted, not re-derived.
  for (int i = 0; i < 3; ++i) {
    mlp.forward(rng.normal_matrix(6, 4, 0.0F, 1.0F), /*training=*/true);
  }
  return mlp;
}

gan::CganTopology tiny_topology() {
  gan::CganTopology t;
  t.data_dim = 4;
  t.cond_dim = 2;
  t.noise_dim = 3;
  t.generator_hidden = {8};
  t.discriminator_hidden = {8};
  t.discriminator_dropout = 0.25F;
  t.generator_batchnorm = true;
  return t;
}

/// Tiny two-condition dataset for trainer-resume runs.
void tiny_dataset(math::Matrix& samples, math::Matrix& conditions) {
  math::Rng rng(0x0DA7A);
  const std::size_t n = 24;
  samples = rng.uniform_matrix(n, 4, 0.0F, 1.0F);
  conditions = math::Matrix(n, 2, 0.0F);
  for (std::size_t r = 0; r < n; ++r) conditions(r, r % 2) = 1.0F;
}

TEST(MlpRoundTrip, WeightsAndForwardAreBitIdentical) {
  nn::Mlp original = zoo_mlp();
  const std::string path = temp_path("mlp.gsm");
  save_mlp_checkpoint(original, path);
  nn::Mlp loaded = load_mlp_checkpoint_file(path);

  expect_mlp_weights_identical(original, loaded);
  for (std::size_t i = 0; i < original.layer_count(); ++i) {
    EXPECT_EQ(loaded.layer(i).kind(), original.layer(i).kind()) << i;
  }

  math::Rng rng(0x1234U);
  const math::Matrix input = rng.normal_matrix(5, 4, 0.0F, 1.0F);
  // Inference mode uses the persisted BatchNorm running stats.
  const math::Matrix out_a = original.forward(input, /*training=*/false);
  const math::Matrix out_b = loaded.forward(input, /*training=*/false);
  expect_bit_identical(out_a, out_b);
  // Training mode additionally uses the persisted Dropout mask-RNG cursor:
  // both networks must draw the exact same masks from here on.
  const math::Matrix tr_a = original.forward(input, /*training=*/true);
  const math::Matrix tr_b = loaded.forward(input, /*training=*/true);
  expect_bit_identical(tr_a, tr_b);
}

TEST(MlpRoundTrip, InMemoryBytesMatchFileBytes) {
  nn::Mlp original = zoo_mlp();
  const std::string path = temp_path("mlp_bytes.gsm");
  save_mlp_checkpoint(original, path);
  const CheckpointReader reader = CheckpointReader::from_file(path);
  nn::Mlp loaded = load_mlp_checkpoint(reader);
  expect_mlp_weights_identical(original, loaded);
}

TEST(MlpRoundTrip, EmptyNetworkRoundTrips) {
  const std::string path = temp_path("empty.gsm");
  save_mlp_checkpoint(nn::Mlp{}, path);
  EXPECT_EQ(load_mlp_checkpoint_file(path).layer_count(), 0U);
}

TEST(CganRoundTrip, GenerateViewBitIdenticalAcrossThreadCounts) {
  gan::Cgan original(tiny_topology(), 0xC6A2U);
  const std::string path = temp_path("cgan.gsm");
  save_cgan_checkpoint(original, path);
  gan::Cgan loaded = load_cgan_checkpoint_file(path);

  math::Matrix conditions(6, 2, 0.0F);
  for (std::size_t r = 0; r < 6; ++r) conditions(r, r % 2) = 1.0F;

  for (const std::size_t threads : {1U, 2U, 8U}) {
    core::ExecutionConfig config;
    config.threads = threads;
    const core::ScopedExecution scoped(config);
    math::Rng rng_a(0x5EEDU);
    math::Rng rng_b(0x5EEDU);
    const math::Matrix out_a = original.generate_view(conditions, rng_a);
    const math::Matrix out_b = loaded.generate_view(conditions, rng_b);
    ASSERT_TRUE(out_a.same_shape(out_b)) << threads << " threads";
    EXPECT_EQ(
        std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)),
        0)
        << threads << " threads";
  }
}

TEST(CganRoundTrip, DiscriminatorSurvivesToo) {
  gan::Cgan original(tiny_topology(), 0xC6A2U);
  const std::string path = temp_path("cgan_d.gsm");
  save_cgan_checkpoint(original, path);
  gan::Cgan loaded = load_cgan_checkpoint_file(path);

  math::Rng rng(0xABCDU);
  const math::Matrix data = rng.uniform_matrix(5, 4, 0.0F, 1.0F);
  math::Matrix conditions(5, 2, 0.0F);
  for (std::size_t r = 0; r < 5; ++r) conditions(r, r % 2) = 1.0F;
  expect_bit_identical(original.discriminate(data, conditions),
                       loaded.discriminate(data, conditions));
}

TEST(CganRoundTrip, TopologySurvives) {
  const gan::CganTopology t = tiny_topology();
  gan::Cgan original(t, 0xC6A2U);
  const std::string path = temp_path("cgan_topo.gsm");
  save_cgan_checkpoint(original, path);
  const gan::Cgan loaded = load_cgan_checkpoint_file(path);
  EXPECT_EQ(loaded.topology().data_dim, t.data_dim);
  EXPECT_EQ(loaded.topology().cond_dim, t.cond_dim);
  EXPECT_EQ(loaded.topology().noise_dim, t.noise_dim);
  EXPECT_EQ(loaded.topology().generator_hidden, t.generator_hidden);
  EXPECT_EQ(loaded.topology().discriminator_hidden, t.discriminator_hidden);
  EXPECT_EQ(loaded.topology().leaky_slope, t.leaky_slope);
  EXPECT_EQ(loaded.topology().discriminator_dropout,
            t.discriminator_dropout);
  EXPECT_EQ(loaded.topology().generator_batchnorm, t.generator_batchnorm);
}

TEST(CganRoundTrip, WrongKindFailsTyped) {
  nn::Mlp mlp = zoo_mlp();
  const std::string path = temp_path("not_a_cgan.gsm");
  save_mlp_checkpoint(mlp, path);
  EXPECT_THROW(load_cgan_checkpoint_file(path), ParseError);
}

/// Resume contract, parameterized over the optimizer kind: train N
/// iterations straight vs. train k, checkpoint, reload into a fresh
/// trainer, train N-k — final weights must be byte-identical.
void check_resume(gan::OptimizerKind optimizer) {
  math::Matrix samples, conditions;
  tiny_dataset(samples, conditions);

  gan::TrainConfig config;
  config.batch_size = 8;
  config.iterations = 6;
  config.optimizer = optimizer;
  config.checkpoint_every = 0;

  const std::uint64_t seed = 0x7124U;
  gan::Cgan model_straight(tiny_topology(), 0xC6A2U);
  gan::CganTrainer straight(model_straight, config, seed);
  straight.train_iterations(samples, conditions, 6);

  gan::Cgan model_split(tiny_topology(), 0xC6A2U);
  const std::string path = temp_path("trainer_resume.gsm");
  {
    gan::CganTrainer first_half(model_split, config, seed);
    first_half.train_iterations(samples, conditions, 4);
    save_trainer_checkpoint(first_half, path);
  }

  const CheckpointReader reader = CheckpointReader::from_file(path);
  EXPECT_EQ(reader.kind(), "cgan_trainer");
  gan::Cgan resumed_model = load_cgan_checkpoint(reader);
  gan::CganTrainer resumed(resumed_model, read_train_config(reader), seed);
  restore_trainer_state(resumed, reader);
  EXPECT_EQ(resumed.iterations_done(), 4U);
  resumed.train_iterations(samples, conditions, 2);
  EXPECT_EQ(resumed.iterations_done(), 6U);

  expect_mlp_weights_identical(model_straight.generator(),
                               resumed_model.generator());
  expect_mlp_weights_identical(model_straight.discriminator(),
                               resumed_model.discriminator());
}

TEST(TrainerResume, BitIdenticalWithAdam) {
  check_resume(gan::OptimizerKind::kAdam);
}

TEST(TrainerResume, BitIdenticalWithMomentum) {
  check_resume(gan::OptimizerKind::kMomentum);
}

TEST(TrainerResume, BitIdenticalWithSgd) {
  check_resume(gan::OptimizerKind::kSgd);
}

TEST(TrainerResume, ConfigSurvives) {
  math::Matrix samples, conditions;
  tiny_dataset(samples, conditions);
  gan::TrainConfig config;
  config.batch_size = 8;
  config.discriminator_steps = 2;
  config.iterations = 5;
  config.learning_rate_g = 2e-3F;
  config.learning_rate_d = 1e-3F;
  config.optimizer = gan::OptimizerKind::kMomentum;
  config.generator_loss = gan::GeneratorLoss::kOriginalMinimax;
  config.objective = gan::AdversarialObjective::kLeastSquares;
  config.adam_beta1 = 0.7F;
  config.real_label = 1.0F;
  config.checkpoint_every = 3;
  config.metrics_scope = "gan.train";

  gan::Cgan model(tiny_topology(), 0xC6A2U);
  gan::CganTrainer trainer(model, config);
  trainer.train_iterations(samples, conditions, 2);
  const std::string path = temp_path("trainer_cfg.gsm");
  save_trainer_checkpoint(trainer, path);

  const CheckpointReader reader = CheckpointReader::from_file(path);
  const gan::TrainConfig loaded = read_train_config(reader);
  EXPECT_EQ(loaded.batch_size, config.batch_size);
  EXPECT_EQ(loaded.discriminator_steps, config.discriminator_steps);
  EXPECT_EQ(loaded.iterations, config.iterations);
  EXPECT_EQ(loaded.learning_rate_g, config.learning_rate_g);
  EXPECT_EQ(loaded.learning_rate_d, config.learning_rate_d);
  EXPECT_EQ(loaded.optimizer, config.optimizer);
  EXPECT_EQ(loaded.generator_loss, config.generator_loss);
  EXPECT_EQ(loaded.objective, config.objective);
  EXPECT_EQ(loaded.adam_beta1, config.adam_beta1);
  EXPECT_EQ(loaded.real_label, config.real_label);
  EXPECT_EQ(loaded.checkpoint_every, config.checkpoint_every);
  EXPECT_EQ(loaded.metrics_scope, config.metrics_scope);
}

TEST(TrainerResume, OptimizerKindMismatchFailsTyped) {
  math::Matrix samples, conditions;
  tiny_dataset(samples, conditions);
  gan::TrainConfig config;
  config.batch_size = 8;
  config.optimizer = gan::OptimizerKind::kAdam;
  gan::Cgan model(tiny_topology(), 0xC6A2U);
  gan::CganTrainer trainer(model, config);
  trainer.train_iterations(samples, conditions, 1);
  const std::string path = temp_path("trainer_kind.gsm");
  save_trainer_checkpoint(trainer, path);

  const CheckpointReader reader = CheckpointReader::from_file(path);
  gan::Cgan loaded_model = load_cgan_checkpoint(reader);
  gan::TrainConfig wrong = read_train_config(reader);
  wrong.optimizer = gan::OptimizerKind::kSgd;
  gan::CganTrainer mismatched(loaded_model, wrong);
  EXPECT_THROW(restore_trainer_state(mismatched, reader), ParseError);
}

TEST(TrainerResume, ServingLoaderAcceptsTrainerCheckpoints) {
  math::Matrix samples, conditions;
  tiny_dataset(samples, conditions);
  gan::TrainConfig config;
  config.batch_size = 8;
  gan::Cgan model(tiny_topology(), 0xC6A2U);
  gan::CganTrainer trainer(model, config);
  trainer.train_iterations(samples, conditions, 2);
  const std::string path = temp_path("trainer_as_cgan.gsm");
  save_trainer_checkpoint(trainer, path);

  // A resume snapshot is a superset of a serving model.
  gan::Cgan serving = load_cgan_checkpoint_file(path);
  expect_mlp_weights_identical(model.generator(), serving.generator());
}

}  // namespace
}  // namespace gansec::model
