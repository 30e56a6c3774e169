// Algorithm 3 — the security analysis methodology.
//
// For every condition label C_i and frequency-feature index FtIdx, draw
// GSize samples from the trained generator G(Z|C_i), fit a Parzen
// Gaussian-window KDE to that feature, score every test sample, scale by h
// (Like = exp(LogLike) * h), and average separately over test samples whose
// true label matches C_i (AvgCorLike) and those whose label differs
// (AvgIncLike). High correct likelihood ==> the emission leaks the
// condition (confidentiality risk) and, dually, deviations are detectable
// (integrity/availability monitoring).
#pragma once

#include <cstdint>
#include <vector>

#include "gansec/am/dataset.hpp"
#include "gansec/gan/cgan.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/stats/kde.hpp"

namespace gansec::security {

/// FtIndices: `requested`, or every feature when it is empty. Throws
/// InvalidArgumentError on an index >= data_dim.
std::vector<std::size_t> resolve_feature_indices(
    const std::vector<std::size_t>& requested, std::size_t data_dim);

/// Algorithm 3 lines 6-8 for condition C_i: draws GSize samples from
/// G(Z|C_i) on `rng` and returns one Parzen window of width h per entry of
/// `features` (resolved indices). The analyzer, the attacker, ScoringModel
/// and Figure 8 all fit here, one condition at a time in ascending order.
/// Throws InvalidArgumentError on a condition >= cond_dim, a gsize of 0 or
/// (from ParzenKde) a non-positive h, and DimensionError on a feature index
/// >= data_dim.
std::vector<stats::ParzenKde> fit_condition(
    nn::Mlp& generator, const gan::CganTopology& topology,
    std::size_t condition, const std::vector<std::size_t>& features,
    std::size_t gsize, double h, math::Rng& rng);

struct LikelihoodConfig {
  std::size_t generator_samples = 200;  ///< GSize in Algorithm 3
  double parzen_h = 0.2;                ///< Parzen window width h
  /// Feature indices to analyze (FtIndices); empty means every feature.
  std::vector<std::size_t> feature_indices;
};

/// AvgCorLike / AvgIncLike matrices of Algorithm 3, indexed
/// [condition][feature-position] (positions follow `feature_indices`).
struct LikelihoodResult {
  std::vector<std::size_t> feature_indices;
  std::vector<std::vector<double>> avg_correct;
  std::vector<std::vector<double>> avg_incorrect;

  std::size_t condition_count() const { return avg_correct.size(); }

  /// Mean over features of AvgCorLike for one condition.
  double mean_correct(std::size_t condition) const;
  double mean_incorrect(std::size_t condition) const;

  /// Condition an attacker can estimate best: the one with the largest
  /// correct-minus-incorrect margin (Table I: Cond3/Z — its incorrect
  /// likelihood is near zero, so observing a Z emission is unambiguous).
  std::size_t most_leaky_condition() const;
};

/// Runs Algorithm 3 one condition at a time: fit_condition draws and fits
/// on the calling thread, then test-sample scoring fans out per feature
/// across the process-wide thread pool. No draw happens inside the fan-out,
/// so the likelihoods are bit-identical at any thread count.
class LikelihoodAnalyzer {
 public:
  explicit LikelihoodAnalyzer(LikelihoodConfig config,
                              std::uint64_t seed = 0xA19003);

  const LikelihoodConfig& config() const { return config_; }

  /// Runs Algorithm 3 against a trained model on a held-out test set.
  LikelihoodResult analyze(gan::Cgan& model,
                           const am::LabeledDataset& test) const;

  /// Same, but with a standalone generator network (used for mid-training
  /// checkpoints in the Figure 9 experiment).
  LikelihoodResult analyze_generator(nn::Mlp& generator,
                                     const gan::CganTopology& topology,
                                     const am::LabeledDataset& test) const;

 private:
  LikelihoodConfig config_;
  std::uint64_t seed_;
};

}  // namespace gansec::security
