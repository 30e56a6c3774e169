// Conditional GAN model (paper Section I-B / Figure 2).
//
// The generator maps [noise Z | condition F2] -> synthetic F1 samples in
// [0,1]^data_dim; the discriminator maps [F1 | F2] -> probability that the
// sample came from the training data. Together they estimate Pr(F1 | F2),
// the cross-domain conditional distribution GAN-Sec's security analysis is
// built on.
#pragma once

#include <cstdint>
#include <vector>

#include "gansec/math/matrix.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/nn/mlp.hpp"

namespace gansec::gan {

/// Network shape hyperparameters.
struct CganTopology {
  std::size_t data_dim = 0;   ///< dimension of F1 (e.g. 100 frequency bins)
  std::size_t cond_dim = 0;   ///< dimension of F2 (e.g. 3 one-hot motors)
  std::size_t noise_dim = 16; ///< dimension of the noise prior Z
  std::vector<std::size_t> generator_hidden = {128, 128};
  std::vector<std::size_t> discriminator_hidden = {128, 128};
  float leaky_slope = 0.2F;        ///< LeakyReLU slope in both networks
  float discriminator_dropout = 0.0F;
  /// Insert batch normalization after each generator hidden layer (a
  /// standard GAN stabilizer; never applied to the discriminator).
  bool generator_batchnorm = false;

  bool operator==(const CganTopology&) const = default;
};

class Cgan {
 public:
  /// Builds and initializes both networks from the topology. All weight
  /// randomness derives from `seed`.
  Cgan(CganTopology topology, std::uint64_t seed = 0xC6A2);

  /// Reconstructs a Cgan around externally loaded networks (the
  /// gansec.model.v1 load path, model/serialize.hpp). Network shapes must
  /// match the topology.
  Cgan(CganTopology topology, nn::Mlp generator, nn::Mlp discriminator);

  const CganTopology& topology() const { return topology_; }

  nn::Mlp& generator() { return generator_; }
  nn::Mlp& discriminator() { return discriminator_; }
  const nn::Mlp& generator() const { return generator_; }
  const nn::Mlp& discriminator() const { return discriminator_; }

  /// Draws an n x noise_dim standard-normal noise batch.
  math::Matrix sample_noise(std::size_t n, math::Rng& rng) const;

  /// G(Z|conds): one generated sample per condition row.
  math::Matrix generate(const math::Matrix& conditions, math::Rng& rng);

  /// G(Z|cond): `count` samples for a single 1 x cond_dim condition.
  math::Matrix generate_for_condition(const math::Matrix& condition,
                                      std::size_t count, math::Rng& rng);

  /// Zero-copy generate(): identical draws and values, but the returned
  /// reference is the generator's own output buffer (see sample_generator).
  const math::Matrix& generate_view(const math::Matrix& conditions,
                                    math::Rng& rng);

  /// D(data|conds): per-row probability that each sample is real.
  math::Matrix discriminate(const math::Matrix& data,
                            const math::Matrix& conditions);

 private:
  CganTopology topology_;
  nn::Mlp generator_;
  nn::Mlp discriminator_;
};

/// G(Z|conditions) through a bare generator: the one draw sequence (Z from
/// `rng`, then [Z | conditions] forward in inference mode) behind Cgan's
/// generate methods and Algorithm 3's fit_condition. Returns the
/// generator's own output buffer, valid until its next forward pass;
/// scratch comes from the calling thread's Workspace.
const math::Matrix& sample_generator(nn::Mlp& generator,
                                     const CganTopology& topology,
                                     const math::Matrix& conditions,
                                     math::Rng& rng);

/// Builds the generator network for a topology (exposed for tests).
nn::Mlp build_generator(const CganTopology& topology);

/// Builds the discriminator network for a topology (exposed for tests).
nn::Mlp build_discriminator(const CganTopology& topology);

}  // namespace gansec::gan
