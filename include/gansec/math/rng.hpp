// Deterministic seeded random number generation.
//
// Every stochastic component in GAN-Sec (noise prior Z, weight
// initialization, minibatch sampling, the acoustic simulator's measurement
// noise) draws from an explicitly seeded Rng so that experiments are
// reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "gansec/math/matrix.hpp"

namespace gansec::math {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal scaled to N(mean, stddev^2); stddev 0 returns `mean`.
  /// Throws InvalidArgumentError on a negative stddev.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// `count` distinct indices drawn uniformly from [0, population).
  /// Throws InvalidArgumentError when count > population.
  std::vector<std::size_t> sample_indices(std::size_t population,
                                          std::size_t count);

  /// `count` indices drawn uniformly *with* replacement from [0, population).
  std::vector<std::size_t> sample_indices_with_replacement(
      std::size_t population, std::size_t count);

  /// Destination-passing form of sample_indices_with_replacement: fills
  /// `out` (resized to `count`) with the exact same draw sequence, reusing
  /// its capacity across calls.
  void sample_indices_with_replacement_into(std::vector<std::size_t>& out,
                                            std::size_t population,
                                            std::size_t count);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// rows x cols matrix of U(lo, hi) draws.
  Matrix uniform_matrix(std::size_t rows, std::size_t cols, float lo,
                        float hi);

  /// rows x cols matrix of N(mean, stddev^2) draws.
  Matrix normal_matrix(std::size_t rows, std::size_t cols, float mean,
                       float stddev);

  /// Destination-passing form of uniform_matrix: resizes `out` and fills
  /// it with the exact same draw sequence (bit-identical stream).
  void fill_uniform(Matrix& out, std::size_t rows, std::size_t cols,
                    float lo, float hi);

  /// Destination-passing form of normal_matrix (bit-identical stream).
  void fill_normal(Matrix& out, std::size_t rows, std::size_t cols,
                   float mean, float stddev);

  /// Direct access for use with <random> distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Serializes the engine's exact position in its stream (the standard
  /// textual mt19937_64 state). restore_state() resumes the identical
  /// draw sequence — the "RNG cursor" persisted by training checkpoints.
  /// Throws ParseError when `state` is not a valid engine state.
  std::string save_state() const;
  void restore_state(const std::string& state);

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64-derived child seed: a pure function of (seed, stream) with
/// full avalanche, so independent RNG streams can be handed to concurrent
/// workers (one stream per flow pair, per checkpoint, ...) and the results
/// stay independent of scheduling order. stream 0, 1, 2, ... give unrelated
/// seeds even for adjacent base seeds.
std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace gansec::math
