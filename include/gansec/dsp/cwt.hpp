// Continuous wavelet transform with the analytic Morlet wavelet.
//
// The paper converts time-domain acoustic energy flows to frequency-domain
// features using a continuous wavelet transform, "which preserves the
// high-frequency resolution in time-domain" (Section IV-B). This
// implementation evaluates the CWT at arbitrary target frequencies via
// frequency-domain multiplication: W(s, t) = ifft(X(w) * conj(psihat(s w))).
#pragma once

#include <cstddef>
#include <vector>

#include "gansec/dsp/fft.hpp"

namespace gansec::dsp {

struct CwtConfig {
  double sample_rate = 0.0;  ///< Hz
  /// Morlet center frequency omega0; 6.0 is the conventional choice that
  /// keeps the wavelet approximately admissible.
  double omega0 = 6.0;
};

class MorletCwt {
 public:
  explicit MorletCwt(CwtConfig config);

  const CwtConfig& config() const { return config_; }

  /// Wavelet scale corresponding to a target frequency in Hz.
  double scale_for_frequency(double frequency_hz) const;

  /// Full scalogram: result[f][t] = |W(s_f, t)| for each target frequency
  /// (rows) over the original signal length (columns). Evaluates every
  /// response bin and takes |W| with std::abs; the tests hold
  /// CwtWindowPlan to it as the reference.
  std::vector<std::vector<double>> scalogram(
      const std::vector<double>& signal,
      const std::vector<double>& frequencies_hz) const;

  /// Mean |W(s_f, t)| over time for each target frequency — the per-frame
  /// energy feature vector used by GAN-Sec (one value per frequency bin).
  /// Runs through a CwtWindowPlan built for this call.
  std::vector<double> band_energies(
      const std::vector<double>& signal,
      const std::vector<double>& frequencies_hz) const;

 private:
  /// Morlet frequency response psihat(s*w) evaluated at angular frequency w.
  double wavelet_fourier(double scale, double angular_frequency) const;

  CwtConfig config_;
};

/// Precomputed per-window CWT state: the one implementation of
/// `MorletCwt::band_energies`, used by the batch call and by the streaming
/// scoring path alike.
///
/// Construction builds the FFT plan for the padded length and tabulates
/// each band's Morlet response, stored only over the bins where it is
/// nonzero in double precision (a Gaussian around the band's centre bin;
/// everything else, including the negative-frequency half, is exactly
/// zero). A window then costs one forward FFT plus, per band, a scatter of
/// spectrum x response into bit-reversed order, one inverse FFT and a pass
/// of |W| = sqrt(re^2 + im^2). Everything runs in member scratch, so
/// `band_energies_into` performs zero allocations.
///
/// The FFT and the response values are bit-identical to the ones
/// `MorletCwt::scalogram` uses; only the magnitude differs (sqrt of the
/// sum of squares instead of std::abs). tests/dsp/cwt_test.cpp holds each
/// paper-scale band energy to 4 ulp of the mean of the matching scalogram
/// row, and to equality after the cast to float every feature path
/// applies.
///
/// Not thread-safe: the scratch buffers make each plan single-stream.
/// Give every worker shard its own plan.
class CwtWindowPlan {
 public:
  /// `window_length` is the exact sample count every window must have;
  /// `frequencies_hz` is the target grid (e.g. FrequencyBinner::centers()).
  CwtWindowPlan(const MorletCwt& cwt, std::size_t window_length,
                std::vector<double> frequencies_hz);

  std::size_t window_length() const { return window_length_; }
  const std::vector<double>& frequencies() const { return frequencies_; }

  /// Mean |W(s_f, t)| per target frequency written to `out` (one value per
  /// frequency). `length` must equal window_length(); `out` must hold
  /// frequencies().size() doubles. No allocation.
  void band_energies_into(const double* window, std::size_t length,
                          double* out);

  /// Convenience allocation form for tests and one-shot callers.
  std::vector<double> band_energies(const std::vector<double>& window);

 private:
  /// A band's nonzero response bins [first, first + count), whose values
  /// sit at response_[offset, offset + count).
  struct Support {
    std::size_t first = 0;
    std::size_t count = 0;
    std::size_t offset = 0;
  };

  std::size_t window_length_;
  FftPlan fft_;
  std::vector<double> frequencies_;
  std::vector<Support> supports_;
  std::vector<double> response_;
  /// Forward transform of the current window.
  std::vector<double> spectrum_re_;
  std::vector<double> spectrum_im_;
  /// One band's product spectrum, transformed in place.
  std::vector<double> work_re_;
  std::vector<double> work_im_;
};

}  // namespace gansec::dsp
