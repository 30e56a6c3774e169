#include "gansec/security/detector.hpp"

#include <utility>

#include "gansec/error.hpp"
#include "gansec/math/stats.hpp"
#include "gansec/obs/flight_recorder.hpp"
#include "gansec/security/stream_detector.hpp"
#include "gansec/stats/metrics.hpp"

namespace gansec::security {

double calibrate_threshold(const ScoringModel& model,
                           const std::vector<Observation>& benign) {
  if (benign.empty()) {
    throw InvalidArgumentError("calibrate_threshold: empty benign set");
  }
  std::vector<double> scores;
  scores.reserve(benign.size());
  for (const Observation& obs : benign) {
    if (obs.attack != AttackKind::kNone) {
      throw InvalidArgumentError(
          "calibrate_threshold: calibration set must be benign");
    }
    scores.push_back(model.score_row(obs.features, obs.expected_label));
  }
  return math::percentile(std::move(scores),
                          model.config().false_alarm_percentile);
}

DetectionReport evaluate(std::shared_ptr<const ScoringModel> model,
                         double threshold,
                         const std::vector<Observation>& observations) {
  if (observations.empty()) {
    throw InvalidArgumentError("evaluate: empty set");
  }
  const obs::flight::PhaseMark phase("security.evaluate");
  StreamDetectorConfig config;
  config.threshold = threshold;
  config.consecutive_to_alarm = 1;
  StreamDetector detector(std::move(model), config);
  DetectionReport report;
  std::vector<double> attack_scores;  // higher = more suspicious
  std::vector<bool> attack_labels;
  std::size_t correct = 0;
  std::size_t true_pos = 0;
  std::size_t false_pos = 0;
  for (const Observation& obs : observations) {
    if (obs.features.rows() != 1) {
      throw DimensionError("evaluate: expected single-row observations");
    }
    const bool attacked = obs.attack != AttackKind::kNone;
    const WindowVerdict verdict = detector.score_window(
        obs.features.data(), obs.features.cols(), obs.expected_label);
    const bool flagged = verdict.verdict != StreamVerdict::kBenign;
    attack_scores.push_back(-verdict.score);
    attack_labels.push_back(attacked);
    if (attacked) {
      ++report.attacked;
      if (flagged) ++true_pos;
    } else {
      ++report.benign;
      if (flagged) ++false_pos;
    }
    if (flagged == attacked) ++correct;
  }
  report.accuracy =
      static_cast<double>(correct) / static_cast<double>(observations.size());
  report.true_positive_rate =
      report.attacked == 0
          ? 0.0
          : static_cast<double>(true_pos) / static_cast<double>(report.attacked);
  report.false_positive_rate =
      report.benign == 0
          ? 0.0
          : static_cast<double>(false_pos) / static_cast<double>(report.benign);
  if (report.attacked > 0 && report.benign > 0) {
    report.auc = stats::auc(attack_scores, attack_labels);
  }
  return report;
}

}  // namespace gansec::security
