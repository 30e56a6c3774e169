#include "gansec/gan/cgan.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gansec/error.hpp"
#include "gansec/model/serialize.hpp"

namespace gansec::gan {
namespace {

using math::Matrix;
using math::Rng;

/// In-memory gansec.model.v1 round trip.
Cgan round_trip(const Cgan& original) {
  return gansec::model::load_cgan_checkpoint(
      gansec::model::CheckpointReader::from_bytes(
          gansec::model::make_cgan_writer(original).to_bytes()));
}

CganTopology small_topology() {
  CganTopology t;
  t.data_dim = 6;
  t.cond_dim = 3;
  t.noise_dim = 4;
  t.generator_hidden = {16};
  t.discriminator_hidden = {16};
  return t;
}

TEST(CganTopology, InvalidDimensionsThrow) {
  CganTopology t = small_topology();
  t.data_dim = 0;
  EXPECT_THROW(Cgan{t}, InvalidArgumentError);
  t = small_topology();
  t.cond_dim = 0;
  EXPECT_THROW(Cgan{t}, InvalidArgumentError);
  t = small_topology();
  t.noise_dim = 0;
  EXPECT_THROW(Cgan{t}, InvalidArgumentError);
  t = small_topology();
  t.generator_hidden.clear();
  EXPECT_THROW(Cgan{t}, InvalidArgumentError);
  t = small_topology();
  t.discriminator_dropout = 1.0F;
  EXPECT_THROW(Cgan{t}, InvalidArgumentError);
}

TEST(Cgan, GeneratorOutputShapeAndRange) {
  Cgan model(small_topology(), 1);
  Rng rng(2);
  Matrix conds(5, 3, 0.0F);
  for (std::size_t r = 0; r < 5; ++r) conds(r, r % 3) = 1.0F;
  const Matrix out = model.generate(conds, rng);
  EXPECT_EQ(out.rows(), 5U);
  EXPECT_EQ(out.cols(), 6U);
  EXPECT_GE(out.min(), 0.0F);  // sigmoid output
  EXPECT_LE(out.max(), 1.0F);
}

TEST(Cgan, GenerateConditionWidthMismatchThrows) {
  Cgan model(small_topology(), 1);
  Rng rng(3);
  EXPECT_THROW(model.generate(Matrix(2, 4), rng), DimensionError);
  EXPECT_THROW(model.generate(Matrix(0, 3), rng), InvalidArgumentError);
}

TEST(Cgan, GenerateForCondition) {
  Cgan model(small_topology(), 1);
  Rng rng(4);
  Matrix cond(1, 3, 0.0F);
  cond(0, 1) = 1.0F;
  const Matrix out = model.generate_for_condition(cond, 10, rng);
  EXPECT_EQ(out.rows(), 10U);
  EXPECT_EQ(out.cols(), 6U);
  EXPECT_THROW(model.generate_for_condition(Matrix(2, 3), 5, rng),
               DimensionError);
  EXPECT_THROW(model.generate_for_condition(cond, 0, rng),
               InvalidArgumentError);
}

TEST(Cgan, SampleGeneratorOverBareNetworkMatchesGenerate) {
  // A standalone generator (e.g. a mid-training checkpoint) draws the
  // same sequence as a Cgan holding equal weights.
  const CganTopology t = small_topology();
  nn::Mlp generator = build_generator(t);
  Cgan model(t, build_generator(t), build_discriminator(t));
  Rng init_a(6);
  Rng init_b(6);
  generator.init_weights(init_a);
  model.generator().init_weights(init_b);
  Matrix conds(4, 3, 0.0F);
  for (std::size_t r = 0; r < 4; ++r) conds(r, r % 3) = 1.0F;
  Rng rng_a(12);
  Rng rng_b(12);
  EXPECT_EQ(sample_generator(generator, t, conds, rng_a),
            model.generate(conds, rng_b));
  EXPECT_EQ(rng_a.engine(), rng_b.engine());
  EXPECT_THROW(sample_generator(generator, t, Matrix(2, 4), rng_a),
               DimensionError);
  EXPECT_THROW(sample_generator(generator, t, Matrix(0, 3), rng_a),
               InvalidArgumentError);
}

TEST(Cgan, GenerateIsStochastic) {
  Cgan model(small_topology(), 1);
  Rng rng(5);
  Matrix cond(1, 3, 0.0F);
  cond(0, 0) = 1.0F;
  const Matrix a = model.generate_for_condition(cond, 1, rng);
  const Matrix b = model.generate_for_condition(cond, 1, rng);
  EXPECT_NE(a, b);  // different noise draws
}

TEST(Cgan, GenerateDeterministicUnderSameRngState) {
  Cgan model(small_topology(), 1);
  Matrix cond(1, 3, 0.0F);
  cond(0, 0) = 1.0F;
  Rng rng_a(9);
  Rng rng_b(9);
  const Matrix a = model.generate_for_condition(cond, 3, rng_a);
  const Matrix b = model.generate_for_condition(cond, 3, rng_b);
  EXPECT_EQ(a, b);
}

TEST(Cgan, DiscriminateOutputsProbabilities) {
  Cgan model(small_topology(), 1);
  Rng rng(6);
  const Matrix data = rng.uniform_matrix(4, 6, 0.0F, 1.0F);
  Matrix conds(4, 3, 0.0F);
  for (std::size_t r = 0; r < 4; ++r) conds(r, r % 3) = 1.0F;
  const Matrix probs = model.discriminate(data, conds);
  EXPECT_EQ(probs.rows(), 4U);
  EXPECT_EQ(probs.cols(), 1U);
  EXPECT_GE(probs.min(), 0.0F);
  EXPECT_LE(probs.max(), 1.0F);
}

TEST(Cgan, DiscriminateShapeErrors) {
  Cgan model(small_topology(), 1);
  EXPECT_THROW(model.discriminate(Matrix(2, 5), Matrix(2, 3)),
               DimensionError);
  EXPECT_THROW(model.discriminate(Matrix(2, 6), Matrix(3, 3)),
               DimensionError);
}

TEST(Cgan, SampleNoiseShape) {
  Cgan model(small_topology(), 1);
  Rng rng(7);
  const Matrix z = model.sample_noise(12, rng);
  EXPECT_EQ(z.rows(), 12U);
  EXPECT_EQ(z.cols(), 4U);
}

TEST(Cgan, DifferentSeedsGiveDifferentWeights) {
  Cgan a(small_topology(), 1);
  Cgan b(small_topology(), 2);
  Rng rng_a(1);
  Rng rng_b(1);
  Matrix cond(1, 3, 0.0F);
  cond(0, 0) = 1.0F;
  EXPECT_NE(a.generate_for_condition(cond, 1, rng_a),
            b.generate_for_condition(cond, 1, rng_b));
}

TEST(Cgan, BuildGeneratorStructure) {
  const CganTopology t = small_topology();
  nn::Mlp g = build_generator(t);
  // Dense+LeakyReLU per hidden layer, then Dense+Sigmoid.
  EXPECT_EQ(g.layer_count(), 2 * t.generator_hidden.size() + 2);
  EXPECT_EQ(g.layer(g.layer_count() - 1).kind(), "sigmoid");
}

TEST(Cgan, BuildDiscriminatorWithDropout) {
  CganTopology t = small_topology();
  t.discriminator_dropout = 0.3F;
  nn::Mlp d = build_discriminator(t);
  bool has_dropout = false;
  for (std::size_t i = 0; i < d.layer_count(); ++i) {
    if (d.layer(i).kind() == "dropout") has_dropout = true;
  }
  EXPECT_TRUE(has_dropout);
}

TEST(Cgan, GeneratorBatchnormTopology) {
  CganTopology t = small_topology();
  t.generator_batchnorm = true;
  nn::Mlp g = build_generator(t);
  bool has_bn = false;
  for (std::size_t i = 0; i < g.layer_count(); ++i) {
    if (g.layer(i).kind() == "batch_norm") has_bn = true;
  }
  EXPECT_TRUE(has_bn);
  // Discriminator never gets batch norm.
  nn::Mlp d = build_discriminator(t);
  for (std::size_t i = 0; i < d.layer_count(); ++i) {
    EXPECT_NE(d.layer(i).kind(), "batch_norm");
  }
  // Round trip preserves the flag and behaviour.
  Cgan model(t, 77);
  Cgan loaded = round_trip(model);
  EXPECT_TRUE(loaded.topology().generator_batchnorm);
  Matrix cond(1, 3, 0.0F);
  cond(0, 0) = 1.0F;
  Rng ra(3);
  Rng rb(3);
  EXPECT_EQ(model.generate_for_condition(cond, 4, ra),
            loaded.generate_for_condition(cond, 4, rb));
}

TEST(Cgan, SaveLoadRoundTrip) {
  Cgan model(small_topology(), 11);
  Cgan loaded = round_trip(model);
  EXPECT_EQ(loaded.topology().data_dim, 6U);
  EXPECT_EQ(loaded.topology().cond_dim, 3U);
  Matrix cond(1, 3, 0.0F);
  cond(0, 2) = 1.0F;
  Rng rng_a(5);
  Rng rng_b(5);
  EXPECT_EQ(model.generate_for_condition(cond, 4, rng_a),
            loaded.generate_for_condition(cond, 4, rng_b));
}

TEST(Cgan, LoadBadHeaderThrows) {
  std::string bytes = gansec::model::make_cgan_writer(
                          Cgan(small_topology(), 11)).to_bytes();
  bytes.replace(0, 5, "wrong");
  EXPECT_THROW(gansec::model::load_cgan_checkpoint(
                   gansec::model::CheckpointReader::from_bytes(bytes)),
               ParseError);
}

TEST(Cgan, LoadMissingFileThrows) {
  EXPECT_THROW(gansec::model::load_cgan_checkpoint_file("/nonexistent/m.gsm"),
               IoError);
}

}  // namespace
}  // namespace gansec::gan
