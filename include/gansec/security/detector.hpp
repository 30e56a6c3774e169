// Likelihood-threshold attack detection built on the trained CGAN.
//
// The defender knows the commanded condition (cyber domain) and observes
// the emission (physical domain). A ScoringModel (stream_detector.hpp)
// scores the observation against the CGAN's conditional distribution for
// the *expected* condition: benign observations score high, attacked ones
// (wrong motor, stalled motor) score low. An alarm fires when the score
// drops below a threshold calibrated on benign data; that rule lives in
// StreamDetector::score_window alone, and evaluate() runs through it.
#pragma once

#include <memory>
#include <vector>

#include "gansec/security/attacks.hpp"

namespace gansec::security {

struct DetectorConfig {
  std::size_t generator_samples = 200;
  /// Detection bandwidth. Much narrower than the h values the paper sweeps
  /// in Table I: features are min-max scaled to [0,1], so a width of 0.2
  /// blurs over a fifth of the domain and hides anomalies, while ~0.02
  /// keeps the conditional distribution sharp enough to flag them.
  double parzen_h = 0.02;
  /// Feature indices used for scoring; empty = all features.
  std::vector<std::size_t> feature_indices;
  /// Benign-score percentile used as the alarm threshold by
  /// calibrate_threshold() (e.g. 5.0 => ~5% benign false-alarm rate).
  double false_alarm_percentile = 5.0;
};

struct DetectionReport {
  double accuracy = 0.0;         ///< fraction of observations classified right
  double true_positive_rate = 0.0;
  double false_positive_rate = 0.0;
  double auc = 0.0;              ///< threshold-free separability
  std::size_t attacked = 0;
  std::size_t benign = 0;
};

class ScoringModel;  // stream_detector.hpp: the shareable Parzen model

/// Learns the alarm threshold: the model's false_alarm_percentile of the
/// benign observations' scores. Throws InvalidArgumentError on an empty
/// set or one containing an attacked observation.
double calibrate_threshold(const ScoringModel& model,
                           const std::vector<Observation>& benign);

/// Scores a mixed benign/attacked set through a StreamDetector with
/// `threshold` and consecutive_to_alarm = 1, and reports detection quality.
DetectionReport evaluate(std::shared_ptr<const ScoringModel> model,
                         double threshold,
                         const std::vector<Observation>& observations);

}  // namespace gansec::security
