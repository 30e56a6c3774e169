#include "gansec/gan/cgan.hpp"

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"
#include "gansec/math/workspace.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/batchnorm.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/dropout.hpp"

namespace gansec::gan {

using math::Matrix;

namespace {

void validate_topology(const CganTopology& t) {
  if (t.data_dim == 0 || t.cond_dim == 0 || t.noise_dim == 0) {
    throw InvalidArgumentError(
        "CganTopology: data_dim, cond_dim and noise_dim must be positive");
  }
  if (t.generator_hidden.empty() || t.discriminator_hidden.empty()) {
    throw InvalidArgumentError(
        "CganTopology: both networks need at least one hidden layer");
  }
  if (t.discriminator_dropout < 0.0F || t.discriminator_dropout >= 1.0F) {
    throw InvalidArgumentError("CganTopology: dropout must be in [0,1)");
  }
}

void validate_conditions(const CganTopology& t, const Matrix& conditions,
                         const char* fn) {
  if (conditions.cols() != t.cond_dim) {
    throw DimensionError(std::string("Cgan::") + fn + ": condition width " +
                         std::to_string(conditions.cols()) + " != " +
                         std::to_string(t.cond_dim));
  }
  if (conditions.rows() == 0) {
    throw InvalidArgumentError(std::string("Cgan::") + fn +
                               ": empty condition batch");
  }
}

}  // namespace

nn::Mlp build_generator(const CganTopology& t) {
  nn::Mlp net;
  std::size_t width = t.noise_dim + t.cond_dim;
  for (std::size_t hidden : t.generator_hidden) {
    net.emplace<nn::Dense>(width, hidden, nn::InitScheme::kHeNormal);
    if (t.generator_batchnorm) {
      net.emplace<nn::BatchNorm>(hidden);
    }
    net.emplace<nn::LeakyRelu>(t.leaky_slope);
    width = hidden;
  }
  net.emplace<nn::Dense>(width, t.data_dim, nn::InitScheme::kXavierUniform);
  // Sigmoid output keeps generated spectra in [0,1], matching the paper's
  // min-max-scaled frequency magnitudes.
  net.emplace<nn::Sigmoid>();
  return net;
}

nn::Mlp build_discriminator(const CganTopology& t) {
  nn::Mlp net;
  std::size_t width = t.data_dim + t.cond_dim;
  std::uint64_t dropout_seed = 0xD15C;
  for (std::size_t hidden : t.discriminator_hidden) {
    net.emplace<nn::Dense>(width, hidden, nn::InitScheme::kHeNormal);
    net.emplace<nn::LeakyRelu>(t.leaky_slope);
    if (t.discriminator_dropout > 0.0F) {
      net.emplace<nn::Dropout>(t.discriminator_dropout, dropout_seed++);
    }
    width = hidden;
  }
  net.emplace<nn::Dense>(width, 1, nn::InitScheme::kXavierUniform);
  net.emplace<nn::Sigmoid>();
  return net;
}

Cgan::Cgan(CganTopology topology, std::uint64_t seed)
    : topology_(std::move(topology)) {
  validate_topology(topology_);
  generator_ = build_generator(topology_);
  discriminator_ = build_discriminator(topology_);
  math::Rng rng(seed);
  generator_.init_weights(rng);
  discriminator_.init_weights(rng);
}

Cgan::Cgan(CganTopology topology, nn::Mlp generator, nn::Mlp discriminator)
    : topology_(std::move(topology)),
      generator_(std::move(generator)),
      discriminator_(std::move(discriminator)) {
  validate_topology(topology_);
}

Matrix Cgan::sample_noise(std::size_t n, math::Rng& rng) const {
  return rng.normal_matrix(n, topology_.noise_dim, 0.0F, 1.0F);
}

// gansec-lint: hot-path

const Matrix& sample_generator(nn::Mlp& generator,
                               const CganTopology& topology,
                               const Matrix& conditions, math::Rng& rng) {
  validate_conditions(topology, conditions, "generate");
  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);
  Matrix& z = ws.acquire(conditions.rows(), topology.noise_dim);
  rng.fill_normal(z, conditions.rows(), topology.noise_dim, 0.0F, 1.0F);
  Matrix& g_in = ws.acquire(conditions.rows(),
                            topology.noise_dim + topology.cond_dim);
  math::hstack_into(g_in, z, conditions);
  return generator.forward(g_in, /*training=*/false);
}

const Matrix& Cgan::generate_view(const Matrix& conditions, math::Rng& rng) {
  return sample_generator(generator_, topology_, conditions, rng);
}

// gansec-lint: end-hot-path

Matrix Cgan::generate(const Matrix& conditions, math::Rng& rng) {
  return generate_view(conditions, rng);
}

Matrix Cgan::generate_for_condition(const Matrix& condition,
                                    std::size_t count, math::Rng& rng) {
  validate_conditions(topology_, condition, "generate_for_condition");
  if (condition.rows() != 1) {
    throw DimensionError(
        "Cgan::generate_for_condition: expected a single condition row");
  }
  if (count == 0) {
    throw InvalidArgumentError(
        "Cgan::generate_for_condition: count must be positive");
  }
  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);
  Matrix& conds = ws.acquire(count, topology_.cond_dim);
  for (std::size_t r = 0; r < count; ++r) conds.set_row(r, condition);
  return sample_generator(generator_, topology_, conds, rng);
}

Matrix Cgan::discriminate(const Matrix& data, const Matrix& conditions) {
  validate_conditions(topology_, conditions, "discriminate");
  if (data.cols() != topology_.data_dim) {
    throw DimensionError("Cgan::discriminate: data width mismatch");
  }
  if (data.rows() != conditions.rows()) {
    throw DimensionError(
        "Cgan::discriminate: data/condition batch size mismatch");
  }
  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);
  Matrix& d_in = ws.acquire(data.rows(),
                            topology_.data_dim + topology_.cond_dim);
  math::hstack_into(d_in, data, conditions);
  return discriminator_.forward(d_in, /*training=*/false);
}

}  // namespace gansec::gan
