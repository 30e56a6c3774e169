#include "gansec/math/rng.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "gansec/error.hpp"

namespace gansec::math {

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) {
    throw InvalidArgumentError("Rng::uniform: lo must be <= hi");
  }
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  if (stddev < 0.0) {
    throw InvalidArgumentError("Rng::normal: stddev must be >= 0");
  }
  // Scale a unit draw: N(mean, stddev) requires stddev > 0, and libstdc++
  // computes the same `z * stddev + mean`, so the bits are unchanged.
  std::normal_distribution<double> unit;
  return unit(engine_) * stddev + mean;
}

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) {
    throw InvalidArgumentError("Rng::randint: lo must be <= hi");
  }
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw InvalidArgumentError("Rng::bernoulli: p must be in [0,1]");
  }
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<std::size_t> Rng::sample_indices(std::size_t population,
                                             std::size_t count) {
  if (count > population) {
    throw InvalidArgumentError(
        "Rng::sample_indices: count exceeds population");
  }
  std::vector<std::size_t> all(population);
  std::iota(all.begin(), all.end(), 0);
  // Partial Fisher-Yates: only the first `count` positions are finalized.
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        randint(static_cast<std::int64_t>(i),
                static_cast<std::int64_t>(population - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

std::vector<std::size_t> Rng::sample_indices_with_replacement(
    std::size_t population, std::size_t count) {
  std::vector<std::size_t> out;
  sample_indices_with_replacement_into(out, population, count);
  return out;
}

void Rng::sample_indices_with_replacement_into(std::vector<std::size_t>& out,
                                               std::size_t population,
                                               std::size_t count) {
  if (population == 0) {
    throw InvalidArgumentError(
        "Rng::sample_indices_with_replacement: empty population");
  }
  out.resize(count);
  for (auto& idx : out) {
    idx = static_cast<std::size_t>(
        randint(0, static_cast<std::int64_t>(population - 1)));
  }
}

Matrix Rng::uniform_matrix(std::size_t rows, std::size_t cols, float lo,
                           float hi) {
  Matrix m;
  fill_uniform(m, rows, cols, lo, hi);
  return m;
}

Matrix Rng::normal_matrix(std::size_t rows, std::size_t cols, float mean,
                          float stddev) {
  Matrix m;
  fill_normal(m, rows, cols, mean, stddev);
  return m;
}

void Rng::fill_uniform(Matrix& out, std::size_t rows, std::size_t cols,
                       float lo, float hi) {
  out.resize(rows, cols);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] = dist(engine_);
}

void Rng::fill_normal(Matrix& out, std::size_t rows, std::size_t cols,
                      float mean, float stddev) {
  out.resize(rows, cols);
  std::normal_distribution<float> dist(mean, stddev);
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] = dist(engine_);
}

std::string Rng::save_state() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

void Rng::restore_state(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 engine;
  is >> engine;
  if (is.fail()) {
    throw ParseError("Rng::restore_state: malformed engine state");
  }
  engine_ = engine;
}

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
  // number generators") applied to the stream-th point of seed's sequence.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace gansec::math
