#include "gansec/security/stream_detector.hpp"

#include <algorithm>
#include <utility>

#include "gansec/error.hpp"
#include "gansec/obs/flight_recorder.hpp"
#include "gansec/security/analyzer.hpp"

namespace gansec::security {

using math::Matrix;

ScoringModel::ScoringModel(gan::Cgan& model, DetectorConfig config,
                           std::uint64_t seed)
    : config_(std::move(config)) {
  if (config_.generator_samples == 0) {
    throw InvalidArgumentError(
        "DetectorConfig: generator_samples must be positive");
  }
  if (config_.parzen_h <= 0.0) {
    throw InvalidArgumentError("DetectorConfig: parzen_h must be positive");
  }
  if (config_.false_alarm_percentile < 0.0 ||
      config_.false_alarm_percentile > 100.0) {
    throw InvalidArgumentError(
        "DetectorConfig: false_alarm_percentile must be in [0,100]");
  }
  const auto& topology = model.topology();
  conditions_ = topology.cond_dim;
  data_dim_ = topology.data_dim;
  indices_ =
      resolve_feature_indices(config_.feature_indices, topology.data_dim);

  // One RNG stream, conditions in order: the same (model, config, seed)
  // always yields the same estimators.
  math::Rng rng(seed);
  fits_.reserve(conditions_ * indices_.size());
  for (std::size_t ci = 0; ci < conditions_; ++ci) {
    for (stats::ParzenKde& fit :
         fit_condition(model.generator(), topology, ci, indices_,
                       config_.generator_samples, config_.parzen_h, rng)) {
      fits_.push_back(std::move(fit));
    }
  }
}

// gansec-lint: hot-path
double ScoringModel::score(const float* features, std::size_t count,
                           std::size_t expected_label) const {
  if (expected_label >= conditions_) {
    throw InvalidArgumentError("ScoringModel::score: label out of range");
  }
  if (count != data_dim_) {
    throw DimensionError("ScoringModel::score: feature width mismatch");
  }
  const stats::ParzenKde* per = &fits_[expected_label * indices_.size()];
  double acc = 0.0;
  for (std::size_t fpos = 0; fpos < indices_.size(); ++fpos) {
    const double log_like = per[fpos].log_density(
        static_cast<double>(features[indices_[fpos]]));
    acc += std::max(log_like, kLogFloor);
  }
  return acc / static_cast<double>(indices_.size());
}
// gansec-lint: end-hot-path

double ScoringModel::score_row(const Matrix& features,
                               std::size_t expected_label) const {
  if (features.rows() != 1) {
    throw DimensionError("ScoringModel::score_row: expected a single row");
  }
  return score(features.data(), features.cols(), expected_label);
}

const char* stream_verdict_name(StreamVerdict verdict) {
  switch (verdict) {
    case StreamVerdict::kBenign: return "benign";
    case StreamVerdict::kIntegrity: return "integrity";
    case StreamVerdict::kAvailability: return "availability";
  }
  return "unknown";
}

StreamDetector::StreamDetector(std::shared_ptr<const ScoringModel> model,
                               StreamDetectorConfig config)
    : model_(std::move(model)), config_(config) {
  if (!model_) {
    throw InvalidArgumentError("StreamDetector: null scoring model");
  }
  if (config_.consecutive_to_alarm == 0) {
    throw InvalidArgumentError(
        "StreamDetector: consecutive_to_alarm must be positive");
  }
  if (config_.availability_floor < 0.0 || config_.availability_floor > 1.0) {
    throw InvalidArgumentError(
        "StreamDetector: availability_floor must be in [0,1]");
  }
}

// gansec-lint: hot-path
WindowVerdict StreamDetector::score_window(const float* features,
                                           std::size_t count,
                                           std::size_t expected_label) {
  WindowVerdict out;
  out.sequence = windows_;
  out.score = model_->score(features, count, expected_label);
  const std::vector<std::size_t>& indices = model_->feature_indices();
  double acc = 0.0;
  for (const std::size_t idx : indices) {
    acc += static_cast<double>(features[idx]);
  }
  out.mean_feature = acc / static_cast<double>(indices.size());
  const bool anomalous = out.score < config_.threshold;
  // Flight-record only the run boundaries (a sub-threshold streak opening
  // or closing), not every window — the serve layer records per-window.
  if (anomalous != (anomaly_run_ > 0)) {
    obs::flight::record(obs::flight::EventKind::kDetectorRun,
                        "security.anomaly_run", windows_, anomaly_run_,
                        out.score, config_.threshold,
                        anomalous ? std::uint16_t{1} : std::uint16_t{0});
  }
  anomaly_run_ = anomalous ? anomaly_run_ + 1 : 0;
  if (anomalous && anomaly_run_ >= config_.consecutive_to_alarm) {
    out.verdict = out.mean_feature < config_.availability_floor
                      ? StreamVerdict::kAvailability
                      : StreamVerdict::kIntegrity;
  }
  ++windows_;
  return out;
}
// gansec-lint: end-hot-path

void StreamDetector::swap_model(std::shared_ptr<const ScoringModel> model) {
  if (!model) {
    throw InvalidArgumentError("StreamDetector::swap_model: null model");
  }
  if (model->data_dim() != model_->data_dim() ||
      model->condition_count() != model_->condition_count()) {
    throw DimensionError(
        "StreamDetector::swap_model: incompatible model shape");
  }
  model_ = std::move(model);
}

void StreamDetector::reset() {
  windows_ = 0;
  anomaly_run_ = 0;
}

}  // namespace gansec::security
