// Labeled (condition, spectrum) dataset generation.
//
// Reproduces the paper's data-collection procedure (Section IV-B) on the
// simulated testbed: G-code moves that run one stepper motor at a time are
// executed, the contact-microphone emission is synthesized for a fixed
// observation window, converted by CWT into 100 non-uniform frequency bins
// in 50-5000 Hz, and min-max scaled to [0,1].
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "gansec/am/acoustic.hpp"
#include "gansec/am/encoder.hpp"
#include "gansec/am/machine.hpp"
#include "gansec/dsp/binner.hpp"
#include "gansec/dsp/cwt.hpp"
#include "gansec/dsp/features.hpp"
#include "gansec/dsp/stft.hpp"
#include "gansec/math/matrix.hpp"
#include "gansec/math/rng.hpp"

namespace gansec::am {

/// Row-aligned features (N x bins), one-hot conditions (N x cond_dim) and
/// integer class labels.
struct LabeledDataset {
  math::Matrix features;
  math::Matrix conditions;
  std::vector<std::size_t> labels;

  std::size_t size() const { return labels.size(); }

  /// Throws DimensionError when rows/labels are inconsistent.
  void validate() const;

  /// Rows with the given class label.
  math::Matrix features_for_label(std::size_t label) const;

  /// In-place row shuffle (features/conditions/labels stay aligned).
  void shuffle(math::Rng& rng);

  /// First n rows as a new dataset (after an external shuffle this is a
  /// uniform subsample — the paper's "attacker data budget" knob).
  LabeledDataset take(std::size_t n) const;

  static LabeledDataset concat(const LabeledDataset& a,
                               const LabeledDataset& b);
};

/// Time-frequency analysis used to turn waveforms into features. The paper
/// uses the CWT; the STFT path exists for the feature-method ablation.
enum class FeatureMethod { kCwt, kStft };

struct DatasetConfig {
  std::size_t samples_per_condition = 200;
  /// Observation window per sample, seconds.
  double window_s = 0.35;
  /// Feature grid (paper: 100 log bins, 50-5000 Hz).
  double f_min = 50.0;
  double f_max = 5000.0;
  std::size_t bins = 100;
  dsp::BinSpacing spacing = dsp::BinSpacing::kLogarithmic;
  ConditionScheme scheme = ConditionScheme::kExclusiveXyz;
  /// Which emission path the virtual sensor observes (per monitored flow:
  /// F16-F19 = the four motors, F20 = frame, kMixed = the testbed's
  /// contact microphone hearing everything).
  EmissionChannel channel = EmissionChannel::kMixed;
  FeatureMethod feature_method = FeatureMethod::kCwt;
  /// STFT frame length (power of two) when feature_method == kStft.
  std::size_t stft_frame_length = 1024;
  /// Commanded feedrate ranges (mm/s) per XYZ axis; Z is leadscrew-slow.
  std::array<std::pair<double, double>, 3> feed_mm_s{
      std::pair<double, double>{12.0, 35.0},
      std::pair<double, double>{12.0, 35.0},
      std::pair<double, double>{2.0, 6.0}};
  AcousticConfig acoustic{};
  PrinterConfig printer{};
  std::uint64_t seed = 42;
};

class DatasetBuilder {
 public:
  explicit DatasetBuilder(DatasetConfig config = DatasetConfig{});

  const DatasetConfig& config() const { return config_; }
  const dsp::FrequencyBinner& binner() const { return binner_; }
  /// The wavelet the features are computed with; online scoring builds its
  /// per-window plans from it so served and training features agree.
  const dsp::MorletCwt& cwt() const { return cwt_; }
  const ConditionEncoder& encoder() const { return encoder_; }

  /// Generates the full dataset and fits the scaler on it.
  LabeledDataset build();

  /// Generates one dataset, shuffles it, and splits train/test.
  std::pair<LabeledDataset, LabeledDataset> build_split(
      double train_fraction);

  /// Raw (unscaled) CWT band energies of a waveform: 1 x bins.
  math::Matrix raw_features(const std::vector<double>& waveform) const;

  /// Scaled features of a waveform using the scaler fitted by build().
  math::Matrix features_for_waveform(
      const std::vector<double>& waveform) const;

  /// The fitted scaler (throws InvalidArgumentError before build()).
  const dsp::MinMaxScaler& scaler() const;

  /// Installs a previously fitted scaler (e.g. loaded from disk alongside a
  /// cached dataset) so features_for_waveform works without a rebuild.
  void restore_scaler(dsp::MinMaxScaler scaler);

  /// The G-code line used to exercise a class label at the given feedrate;
  /// exposed so tests and examples can show the signal-flow side.
  std::string gcode_for_label(std::size_t label, double feed_mm_s,
                              double distance_mm) const;

 private:
  /// One (waveform, label) observation for a class label.
  std::vector<double> synthesize_observation(std::size_t label,
                                             AcousticSimulator& acoustics);

  DatasetConfig config_;
  dsp::FrequencyBinner binner_;
  dsp::MorletCwt cwt_;
  dsp::Stft stft_;
  ConditionEncoder encoder_;
  dsp::MinMaxScaler scaler_;
  math::Rng rng_;
};

}  // namespace gansec::am
