#include "gansec/security/analyzer.hpp"

#include <numeric>

#include "gansec/core/execution.hpp"
#include "gansec/error.hpp"
#include "gansec/math/workspace.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::security {

using math::Matrix;

namespace {

// Per-feature average scaled likelihoods (density * h), which for the
// Gaussian window live in [0, 1/sqrt(2 pi) ~ 0.399] per kernel and in
// practice land well below that once averaged across off-peak samples.
// Correct-label and incorrect-label averages go to separate histograms so
// a metrics snapshot alone shows the Table 3 separation.
obs::Histogram& correct_likelihood_histogram() {
  static obs::Histogram& h = obs::histogram(
      "alg3.likelihood.correct",
      {0.0001, 0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4});
  return h;
}

obs::Histogram& incorrect_likelihood_histogram() {
  static obs::Histogram& h = obs::histogram(
      "alg3.likelihood.incorrect",
      {0.0001, 0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4});
  return h;
}

obs::Counter& conditions_counter() {
  static obs::Counter& c = obs::counter("alg3.conditions_analyzed");
  return c;
}

}  // namespace

std::vector<std::size_t> resolve_feature_indices(
    const std::vector<std::size_t>& requested, std::size_t data_dim) {
  if (requested.empty()) {
    std::vector<std::size_t> all(data_dim);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  for (const std::size_t idx : requested) {
    if (idx >= data_dim) {
      throw InvalidArgumentError("feature_indices: index out of range");
    }
  }
  return requested;
}

std::vector<stats::ParzenKde> fit_condition(
    nn::Mlp& generator, const gan::CganTopology& topology,
    std::size_t condition, const std::vector<std::size_t>& features,
    std::size_t gsize, double h, math::Rng& rng) {
  if (condition >= topology.cond_dim) {
    throw InvalidArgumentError("fit_condition: condition out of range");
  }
  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);
  // Line 6: X_G = GSize samples from G(Z | C_i).
  Matrix& conds = ws.acquire(gsize, topology.cond_dim, /*zeroed=*/true);
  for (std::size_t r = 0; r < gsize; ++r) conds(r, condition) = 1.0F;
  const Matrix& generated =
      gan::sample_generator(generator, topology, conds, rng);
  // Line 8: FtDistr, a Parzen Gaussian window per frequency feature.
  std::vector<stats::ParzenKde> fits;
  fits.reserve(features.size());
  for (const std::size_t ft : features) {
    std::vector<double> samples(gsize);
    for (std::size_t r = 0; r < gsize; ++r) {
      samples[r] = static_cast<double>(generated.at(r, ft));
    }
    fits.emplace_back(std::move(samples), h);
  }
  return fits;
}

double LikelihoodResult::mean_correct(std::size_t condition) const {
  const auto& row = avg_correct.at(condition);
  if (row.empty()) {
    throw InvalidArgumentError("LikelihoodResult: no features analyzed");
  }
  return std::accumulate(row.begin(), row.end(), 0.0) /
         static_cast<double>(row.size());
}

double LikelihoodResult::mean_incorrect(std::size_t condition) const {
  const auto& row = avg_incorrect.at(condition);
  if (row.empty()) {
    throw InvalidArgumentError("LikelihoodResult: no features analyzed");
  }
  return std::accumulate(row.begin(), row.end(), 0.0) /
         static_cast<double>(row.size());
}

std::size_t LikelihoodResult::most_leaky_condition() const {
  if (avg_correct.empty()) {
    throw InvalidArgumentError("LikelihoodResult: empty result");
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < condition_count(); ++c) {
    if (mean_correct(c) - mean_incorrect(c) >
        mean_correct(best) - mean_incorrect(best)) {
      best = c;
    }
  }
  return best;
}

LikelihoodAnalyzer::LikelihoodAnalyzer(LikelihoodConfig config,
                                       std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  if (config_.generator_samples == 0) {
    throw InvalidArgumentError(
        "LikelihoodConfig: generator_samples must be positive");
  }
  if (config_.parzen_h <= 0.0) {
    throw InvalidArgumentError("LikelihoodConfig: parzen_h must be positive");
  }
}

LikelihoodResult LikelihoodAnalyzer::analyze(
    gan::Cgan& model, const am::LabeledDataset& test) const {
  return analyze_generator(model.generator(), model.topology(), test);
}

LikelihoodResult LikelihoodAnalyzer::analyze_generator(
    nn::Mlp& generator, const gan::CganTopology& topology,
    const am::LabeledDataset& test) const {
  test.validate();
  if (test.size() == 0) {
    throw InvalidArgumentError("LikelihoodAnalyzer: empty test set");
  }
  if (test.features.cols() != topology.data_dim ||
      test.conditions.cols() != topology.cond_dim) {
    throw DimensionError(
        "LikelihoodAnalyzer: test set does not match model topology");
  }

  const std::vector<std::size_t> indices =
      resolve_feature_indices(config_.feature_indices, topology.data_dim);

  const std::size_t n_cond = topology.cond_dim;
  LikelihoodResult result;
  result.feature_indices = indices;
  result.avg_correct.assign(n_cond,
                            std::vector<double>(indices.size(), 0.0));
  result.avg_incorrect.assign(n_cond,
                              std::vector<double>(indices.size(), 0.0));

  math::Rng rng(seed_);

  GANSEC_SPAN("alg3.analyze");
  // Algorithm 3 outer loop: each condition C_i.
  for (std::size_t ci = 0; ci < n_cond; ++ci) {
    GANSEC_SPAN("alg3.condition");
    // Lines 6-8 on this thread; only this condition's estimators are live.
    const std::vector<stats::ParzenKde> fits =
        fit_condition(generator, topology, ci, indices,
                      config_.generator_samples, config_.parzen_h, rng);

    // Inner loop over frequency-feature indices. Every feature's scoring
    // pass is independent and writes only its own [ci][fpos] slots, so the
    // loop fans out across the pool; test samples are always scored in
    // ascending order within a feature, keeping the likelihoods
    // bit-identical at any thread count.
    core::parallel_for(0, indices.size(), 1, [&](std::size_t f0,
                                                 std::size_t f1) {
      for (std::size_t fpos = f0; fpos < f1; ++fpos) {
        const std::size_t ft = indices[fpos];
        const stats::ParzenKde& distr = fits[fpos];

        double cor_like = 0.0;
        double inc_like = 0.0;
        std::size_t cor_num = 0;
        std::size_t inc_num = 0;
        // Lines 7-14: score every test sample at this feature.
        for (std::size_t l = 0; l < test.size(); ++l) {
          const double like = distr.scaled_likelihood(
              static_cast<double>(test.features(l, ft)));
          if (test.labels[l] == ci) {
            cor_like += like;
            ++cor_num;
          } else {
            inc_like += like;
            ++inc_num;
          }
        }
        // Lines 15-16: per-feature averages.
        result.avg_correct[ci][fpos] =
            cor_num == 0 ? 0.0 : cor_like / static_cast<double>(cor_num);
        result.avg_incorrect[ci][fpos] =
            inc_num == 0 ? 0.0 : inc_like / static_cast<double>(inc_num);
        // Histogram buckets are atomic, so observing from parallel chunks
        // is safe and — being order-free counts — keeps the analysis
        // bit-identical at any thread count.
        correct_likelihood_histogram().observe(result.avg_correct[ci][fpos]);
        incorrect_likelihood_histogram().observe(
            result.avg_incorrect[ci][fpos]);
      }
    });
    conditions_counter().add();
  }
  if (n_cond > 0 && !indices.empty()) {
    GANSEC_LOG_DEBUG("alg3.analyze.done", {"conditions", n_cond},
                     {"features", indices.size()},
                     {"generator_samples", config_.generator_samples},
                     {"mean_correct_c0", result.mean_correct(0)},
                     {"mean_incorrect_c0", result.mean_incorrect(0)});
  }
  return result;
}

}  // namespace gansec::security
