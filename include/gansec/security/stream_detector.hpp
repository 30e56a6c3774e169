// Streaming form of the Algorithm 3 detector: an immutable, shareable
// scoring model plus a per-stream verdict state machine.
//
// The batch evaluate() (detector.hpp) scores a held-out table once; the
// online monitor scores an unbounded sequence of windows per machine
// stream. Both run through the types here, which make that safe and cheap:
//
//   * ScoringModel holds the per-(condition, feature) Parzen estimators
//     sampled from the trained generator. It is immutable after
//     construction and scored through const methods only, so one model is
//     shared by every stream and hot-swapped atomically (swap the
//     shared_ptr between windows; in-flight windows finish on the old
//     model).
//   * StreamDetector is the per-stream state machine: it owns nothing but
//     a reference to the current model, a calibrated threshold and the
//     consecutive-anomaly run length, and emits one integrity /
//     availability verdict per window. score_window holds the one alarm
//     rule (score < threshold) in the codebase.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gansec/gan/cgan.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/stats/kde.hpp"

namespace gansec::security {

/// Immutable per-(condition, feature) Parzen scoring model sampled from a
/// trained CGAN generator by Algorithm 3's fit_condition (analyzer.hpp).
/// Construction is deterministic in (model, config, seed), so two models
/// built alike score identically.
class ScoringModel {
 public:
  ScoringModel(gan::Cgan& model, DetectorConfig config,
               std::uint64_t seed = 0xDE7EC7);

  /// Floor for per-feature log-likelihood contributions, so a single wild
  /// feature cannot dominate calibration.
  static constexpr double kLogFloor = -50.0;

  /// Mean floored per-feature log-likelihood of a scaled feature row under
  /// the expected condition (higher = more plausibly benign). `count` must
  /// equal data_dim(). No allocation.
  double score(const float* features, std::size_t count,
               std::size_t expected_label) const;

  /// Matrix-row form: checks that `features` is a single row, then
  /// returns score().
  double score_row(const math::Matrix& features,
                   std::size_t expected_label) const;

  std::size_t condition_count() const { return conditions_; }
  std::size_t data_dim() const { return data_dim_; }
  const std::vector<std::size_t>& feature_indices() const { return indices_; }
  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
  std::size_t conditions_ = 0;
  std::size_t data_dim_ = 0;
  std::vector<std::size_t> indices_;
  /// fit_condition's estimators, condition after condition:
  /// [condition * indices_.size() + feature-pos].
  std::vector<stats::ParzenKde> fits_;
};

/// Per-window classification emitted by a stream.
enum class StreamVerdict : std::uint8_t {
  kBenign = 0,
  /// Score below threshold with normal emission energy: the observed
  /// spectrum contradicts the commanded condition (wrong motor running).
  kIntegrity = 1,
  /// Score below threshold with near-silent emission: the commanded motor
  /// is not running at all (stalled / halted).
  kAvailability = 2,
};

const char* stream_verdict_name(StreamVerdict verdict);

struct StreamDetectorConfig {
  /// Alarm threshold: a window is anomalous when score < threshold
  /// (calibrate_threshold: a low percentile of benign scores).
  double threshold = 0.0;
  /// Mean scaled feature level below which an anomalous window is
  /// classified as an availability attack instead of an integrity attack.
  /// Features are min-max scaled to [0,1]; a silent emission sits near the
  /// per-bin training minima, so its mean is close to zero.
  double availability_floor = 0.05;
  /// Windows that must score anomalous in a row before a verdict fires
  /// (1 = alarm on every anomalous window, as the batch evaluate() runs).
  std::size_t consecutive_to_alarm = 1;
};

/// One scored window. `score` is ScoringModel::score of the window's
/// scaled feature row.
struct WindowVerdict {
  std::uint64_t sequence = 0;     ///< windows seen by this stream so far - 1
  double score = 0.0;             ///< mean floored log-likelihood
  double mean_feature = 0.0;      ///< mean scaled feature (emission level)
  StreamVerdict verdict = StreamVerdict::kBenign;
};

/// Reentrant per-stream detector state machine. Not thread-safe: each
/// stream is scored by exactly one worker at a time (the service shards
/// streams over workers and keeps every window of a stream on its shard,
/// which is also what makes verdict sequences worker-count-invariant).
class StreamDetector {
 public:
  StreamDetector(std::shared_ptr<const ScoringModel> model,
                 StreamDetectorConfig config);

  /// Scores one window and advances the state machine. `count` must equal
  /// the model's data_dim(). Zero allocation.
  WindowVerdict score_window(const float* features, std::size_t count,
                             std::size_t expected_label);

  /// Installs a new scoring model between windows (hot swap). The model
  /// must have the same data_dim and condition count; threshold and the
  /// anomaly run survive the swap.
  void swap_model(std::shared_ptr<const ScoringModel> model);

  const ScoringModel& model() const { return *model_; }
  const StreamDetectorConfig& config() const { return config_; }
  std::uint64_t windows() const { return windows_; }
  /// Length of the current consecutive-anomaly run.
  std::uint64_t anomaly_run() const { return anomaly_run_; }

  /// Clears the per-stream state (window count, anomaly run).
  void reset();

 private:
  std::shared_ptr<const ScoringModel> model_;
  StreamDetectorConfig config_;
  std::uint64_t windows_ = 0;
  std::uint64_t anomaly_run_ = 0;
};

}  // namespace gansec::security
