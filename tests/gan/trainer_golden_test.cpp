// Golden training bits. The determinism tests in trainer_test.cpp compare
// runs with each other, so a change that shifts every run the same way
// passes them; these pin the FNV-1a of every trained parameter and of the
// loss history to values recorded before the backward pass, the optimizer
// and the dispatcher were last rewritten, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gansec/core/execution.hpp"
#include "gansec/gan/trainer.hpp"

namespace gansec::gan {
namespace {

using math::Matrix;

/// 64-bit FNV-1a, continued from `hash` over `bytes` bytes.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;

struct Golden {
  std::uint64_t weights;  ///< every G then D parameter value, layer order
  std::uint64_t losses;   ///< every TrainRecord's four doubles, in order
};

struct Variant {
  std::string name;
  CganTopology topology;
  TrainConfig config;
  Golden expected;
};

CganTopology small_topology() {
  CganTopology t;
  t.data_dim = 20;
  t.cond_dim = 3;
  t.noise_dim = 8;
  // 32 x 96 x 96 multiply-adds cross the GEMM's parallel threshold, so the
  // 4-thread runs really fan out.
  t.generator_hidden = {96, 96};
  t.discriminator_hidden = {96, 96};
  return t;
}

TrainConfig small_config() {
  TrainConfig c;
  c.batch_size = 32;
  c.iterations = 24;
  return c;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"default", small_topology(), small_config(),
                 {0x34D3ADAB62FA254DULL, 0xECFB84145812F349ULL}});
  Variant k2{"k2", small_topology(), small_config(),
             {0xBA5F6B159D8CDBB7ULL, 0xEA403D2CF1B890C4ULL}};
  k2.config.discriminator_steps = 2;
  out.push_back(k2);
  Variant bn{"batchnorm_g", small_topology(), small_config(),
             {0x4B21D6159D84346DULL, 0x75C41AC8D1AEEAD6ULL}};
  bn.topology.generator_batchnorm = true;
  out.push_back(bn);
  Variant dropout{"dropout_d", small_topology(), small_config(),
                  {0x0841928356F4B791ULL, 0xC3EF85FF276E3DC7ULL}};
  dropout.topology.discriminator_dropout = 0.3F;
  out.push_back(dropout);
  Variant lsgan{"lsgan", small_topology(), small_config(),
                {0xA499588DAF35C637ULL, 0x7BFA93536975F842ULL}};
  lsgan.config.objective = AdversarialObjective::kLeastSquares;
  out.push_back(lsgan);
  return out;
}

void make_data(Matrix& data, Matrix& conds) {
  math::Rng rng(31);
  data = rng.uniform_matrix(96, 20, 0.0F, 1.0F);
  conds = Matrix(96, 3, 0.0F);
  for (std::size_t r = 0; r < 96; ++r) conds(r, r % 3) = 1.0F;
}

Golden train_and_hash(const Variant& v, std::size_t threads) {
  core::ExecutionConfig exec;
  exec.threads = threads;
  const core::ScopedExecution scoped(exec);
  Matrix data;
  Matrix conds;
  make_data(data, conds);
  Cgan model(v.topology, 0x60D);
  CganTrainer trainer(model, v.config, 0x7E57);
  trainer.train(data, conds);
  Golden g{kOffsetBasis, kOffsetBasis};
  for (nn::Mlp* net : {&model.generator(), &model.discriminator()}) {
    for (const nn::Parameter* p : net->parameters()) {
      g.weights = fnv1a(g.weights, p->value.data(),
                        p->value.size() * sizeof(float));
    }
  }
  for (const TrainRecord& r : trainer.history()) {
    for (const double x : {r.g_loss, r.d_loss, r.d_real_mean, r.d_fake_mean}) {
      g.losses = fnv1a(g.losses, &x, sizeof x);
    }
  }
  return g;
}

TEST(TrainerGolden, Fnv1aMatchesPublishedVectors) {
  EXPECT_EQ(fnv1a(kOffsetBasis, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kOffsetBasis, "foobar", 6), 0x85944171f73967e8ULL);
}

TEST(TrainerGolden, WeightsAndLossesMatchRecordedBits) {
  for (const Variant& v : variants()) {
    for (const std::size_t threads : {1U, 4U}) {
      const Golden got = train_and_hash(v, threads);
      EXPECT_EQ(got.weights, v.expected.weights)
          << v.name << " at " << threads << " threads";
      EXPECT_EQ(got.losses, v.expected.losses)
          << v.name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gansec::gan
