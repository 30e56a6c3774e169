#include "gansec/security/confidentiality.hpp"

#include <algorithm>
#include <numeric>

#include "gansec/error.hpp"
#include "gansec/security/analyzer.hpp"
#include "gansec/stats/info.hpp"

namespace gansec::security {

using math::Matrix;

ConfidentialityAnalyzer::ConfidentialityAnalyzer(ConfidentialityConfig config,
                                                 std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  if (config_.generator_samples == 0 || config_.parzen_h <= 0.0 ||
      config_.mi_bins == 0) {
    throw InvalidArgumentError(
        "ConfidentialityConfig: invalid sampling parameters");
  }
}

std::vector<std::size_t> ConfidentialityAnalyzer::infer_conditions(
    gan::Cgan& model, const Matrix& features) const {
  const auto& topology = model.topology();
  if (features.cols() != topology.data_dim) {
    throw DimensionError(
        "ConfidentialityAnalyzer: feature width does not match model");
  }
  const std::vector<std::size_t> indices =
      resolve_feature_indices(config_.feature_indices, topology.data_dim);

  // Build per-(condition, feature) Parzen models from generator samples.
  math::Rng rng(seed_);
  std::vector<std::vector<stats::ParzenKde>> models;
  for (std::size_t ci = 0; ci < topology.cond_dim; ++ci) {
    models.push_back(fit_condition(model.generator(), topology, ci, indices,
                                   config_.generator_samples,
                                   config_.parzen_h, rng));
  }

  // Naive-Bayes attacker: argmax_c sum_ft log Pr(x_ft | c).
  std::vector<std::size_t> predictions(features.rows());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    double best_score = -1e300;
    std::size_t best = 0;
    for (std::size_t ci = 0; ci < topology.cond_dim; ++ci) {
      double acc = 0.0;
      for (std::size_t fpos = 0; fpos < indices.size(); ++fpos) {
        acc += models[ci][fpos].log_density(
            static_cast<double>(features(r, indices[fpos])));
      }
      if (acc > best_score) {
        best_score = acc;
        best = ci;
      }
    }
    predictions[r] = best;
  }
  return predictions;
}

ConfidentialityReport ConfidentialityAnalyzer::analyze(
    gan::Cgan& model, const am::LabeledDataset& test) const {
  test.validate();
  if (test.size() == 0) {
    throw InvalidArgumentError("ConfidentialityAnalyzer: empty test set");
  }
  const std::size_t n_cond = model.topology().cond_dim;

  ConfidentialityReport report;
  report.condition_count = n_cond;

  const std::vector<std::size_t> predicted =
      infer_conditions(model, test.features);
  stats::ConfusionMatrix confusion(n_cond);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    confusion.add(test.labels[i], predicted[i]);
  }
  report.attacker_accuracy = confusion.accuracy();
  report.per_condition_recall.resize(n_cond);
  for (std::size_t c = 0; c < n_cond; ++c) {
    report.per_condition_recall[c] = confusion.recall(c);
  }

  // Model-free leakage ceiling: MI(condition; feature) over measured data.
  report.mi_per_feature.resize(test.features.cols());
  for (std::size_t ft = 0; ft < test.features.cols(); ++ft) {
    std::vector<std::vector<double>> per_class(n_cond);
    for (std::size_t r = 0; r < test.size(); ++r) {
      per_class[test.labels[r]].push_back(
          static_cast<double>(test.features(r, ft)));
    }
    // Drop empty classes (a split may miss a class entirely).
    std::vector<std::vector<double>> non_empty;
    for (auto& cls : per_class) {
      if (!cls.empty()) non_empty.push_back(std::move(cls));
    }
    report.mi_per_feature[ft] =
        non_empty.size() < 2
            ? 0.0
            : stats::mutual_information(non_empty, config_.mi_bins);
  }
  report.mean_mi = std::accumulate(report.mi_per_feature.begin(),
                                   report.mi_per_feature.end(), 0.0) /
                   static_cast<double>(report.mi_per_feature.size());
  const auto max_it = std::max_element(report.mi_per_feature.begin(),
                                       report.mi_per_feature.end());
  report.max_mi = *max_it;
  report.max_mi_feature = static_cast<std::size_t>(
      std::distance(report.mi_per_feature.begin(), max_it));
  return report;
}

}  // namespace gansec::security
