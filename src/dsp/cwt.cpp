#include "gansec/dsp/cwt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "gansec/dsp/fft.hpp"
#include "gansec/error.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::dsp {

MorletCwt::MorletCwt(CwtConfig config) : config_(config) {
  if (config_.sample_rate <= 0.0) {
    throw InvalidArgumentError("MorletCwt: sample_rate must be positive");
  }
  if (config_.omega0 <= 0.0) {
    throw InvalidArgumentError("MorletCwt: omega0 must be positive");
  }
}

double MorletCwt::scale_for_frequency(double frequency_hz) const {
  if (frequency_hz <= 0.0) {
    throw InvalidArgumentError(
        "MorletCwt::scale_for_frequency: frequency must be positive");
  }
  if (frequency_hz >= config_.sample_rate / 2.0) {
    throw InvalidArgumentError(
        "MorletCwt::scale_for_frequency: frequency above Nyquist");
  }
  // The Morlet wavelet's frequency response peaks at s*w == omega0, so the
  // scale matching a target frequency f is omega0 / (2*pi*f).
  return config_.omega0 / (2.0 * std::numbers::pi * frequency_hz);
}

namespace {

/// Angular frequency of FFT bin k of a length-n transform.
double bin_angular_frequency(std::size_t k, std::size_t n,
                             double sample_rate) {
  return 2.0 * std::numbers::pi * static_cast<double>(k) * sample_rate /
         static_cast<double>(n);
}

/// The Gaussian part of the Morlet response; `gain` is the factor
/// pi^(-1/4) * sqrt(s), which depends on the scale only.
double morlet_response(double gain, double scale, double angular_frequency,
                       double omega0) {
  const double arg = scale * angular_frequency - omega0;
  return gain * std::exp(-0.5 * arg * arg);
}

double morlet_gain(double scale) {
  return std::pow(std::numbers::pi, -0.25) * std::sqrt(scale);
}

/// An upper bound on the number of nonzero response bins, summed over the
/// bands, for sizing the table. exp(-arg^2 / 2) is exactly 0 once |arg|
/// exceeds `reach`; arg = s * w - omega0 is 0 at bin f * n / fs and moves
/// by s * (bin spacing) per bin.
std::size_t support_bound(const MorletCwt& cwt,
                          const std::vector<double>& frequencies,
                          std::size_t n) {
  const double sample_rate = cwt.config().sample_rate;
  const double reach = std::sqrt(
      -2.0 * (std::log(std::numeric_limits<double>::denorm_min()) -
              std::numbers::ln2));
  const double bin_spacing = bin_angular_frequency(1, n, sample_rate);
  const auto last = static_cast<double>(n / 2);
  std::size_t bound = 0;
  for (const double f : frequencies) {
    const double centre = f * static_cast<double>(n) / sample_rate;
    const double half =
        reach / (cwt.scale_for_frequency(f) * bin_spacing) + 1.0;
    const double lo = std::max(1.0, std::floor(centre - half));
    const double hi = std::min(last, std::ceil(centre + half));
    if (hi >= lo) bound += static_cast<std::size_t>(hi - lo) + 1;
  }
  return bound;
}

}  // namespace

double MorletCwt::wavelet_fourier(double scale,
                                  double angular_frequency) const {
  // Analytic Morlet: psihat(w) = pi^(-1/4) * exp(-(w - omega0)^2 / 2) for
  // w > 0, zero otherwise. The scaled wavelet contributes sqrt(s).
  if (angular_frequency <= 0.0) return 0.0;
  return morlet_response(morlet_gain(scale), scale, angular_frequency,
                         config_.omega0);
}

std::vector<std::vector<double>> MorletCwt::scalogram(
    const std::vector<double>& signal,
    const std::vector<double>& frequencies_hz) const {
  if (signal.empty()) {
    throw InvalidArgumentError("MorletCwt::scalogram: empty signal");
  }
  if (frequencies_hz.empty()) {
    throw InvalidArgumentError("MorletCwt::scalogram: no target frequencies");
  }
  const std::size_t n = next_power_of_two(signal.size());
  std::vector<Complex> spectrum(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < signal.size(); ++i) {
    spectrum[i] = Complex(signal[i], 0.0);
  }
  fft_in_place(spectrum);

  std::vector<std::vector<double>> result;
  result.reserve(frequencies_hz.size());
  std::vector<Complex> work(n);
  for (const double f : frequencies_hz) {
    const double s = scale_for_frequency(f);
    for (std::size_t k = 0; k < n; ++k) {
      // Bins above n/2 are negative frequencies, which the analytic
      // wavelet zeroes out.
      const double w =
          k > n / 2 ? 0.0 : bin_angular_frequency(k, n, config_.sample_rate);
      work[k] = spectrum[k] * wavelet_fourier(s, w);
    }
    ifft_in_place(work);
    std::vector<double> row(signal.size());
    for (std::size_t t = 0; t < signal.size(); ++t) {
      row[t] = std::abs(work[t]);
    }
    result.push_back(std::move(row));
  }
  return result;
}

std::vector<double> MorletCwt::band_energies(
    const std::vector<double>& signal,
    const std::vector<double>& frequencies_hz) const {
  GANSEC_SPAN("dsp.cwt.band_energies");
  CwtWindowPlan plan(*this, signal.size(), frequencies_hz);
  return plan.band_energies(signal);
}

CwtWindowPlan::CwtWindowPlan(const MorletCwt& cwt, std::size_t window_length,
                             std::vector<double> frequencies_hz)
    : window_length_(window_length),
      fft_(next_power_of_two(window_length)),
      frequencies_(std::move(frequencies_hz)) {
  if (window_length_ == 0) {
    throw InvalidArgumentError(
        "CwtWindowPlan: window_length must be positive");
  }
  if (frequencies_.empty()) {
    throw InvalidArgumentError("CwtWindowPlan: no target frequencies");
  }
  const std::size_t n = fft_.size();
  const double sample_rate = cwt.config().sample_rate;
  const double omega0 = cwt.config().omega0;
  // Bins 1..n/2 carry the positive frequencies; bin 0 and the negative
  // half are zero in every response.
  const std::size_t last = n / 2;
  // Filling a table reserved at its bound never reallocates; one grown by
  // doubling leaves its discarded copies in the heap.
  response_.reserve(support_bound(cwt, frequencies_, n));
  supports_.resize(frequencies_.size());
  for (std::size_t f = 0; f < frequencies_.size(); ++f) {
    const double s = cwt.scale_for_frequency(frequencies_[f]);
    const double gain = morlet_gain(s);
    const auto response = [&](std::size_t k) {
      return morlet_response(gain, s,
                             bin_angular_frequency(k, n, sample_rate),
                             omega0);
    };
    Support& support = supports_[f];
    support.offset = response_.size();
    if (last == 0) continue;
    // The response is a Gaussian in k that peaks at the bin nearest
    // f * n / fs. Start from the largest of that bin and its neighbours
    // and walk out both ways until exp underflows to exactly 0.
    const auto centre = static_cast<std::size_t>(
        std::llround(frequencies_[f] * static_cast<double>(n) / sample_rate));
    std::size_t peak = 0;
    double peak_value = 0.0;
    for (std::size_t k = centre > 1 ? centre - 1 : 1;
         k <= std::min(centre + 1, last); ++k) {
      const double value = response(k);
      if (value > peak_value) {
        peak = k;
        peak_value = value;
      }
    }
    if (peak_value == 0.0) continue;
    // Downward walk first (collected high to low, then reversed), then
    // upward, so response_ holds the support in ascending bin order.
    response_.push_back(peak_value);
    std::size_t lo = peak;
    while (lo > 1) {
      const double value = response(lo - 1);
      if (value == 0.0) break;
      response_.push_back(value);
      --lo;
    }
    std::reverse(
        response_.begin() + static_cast<std::ptrdiff_t>(support.offset),
        response_.end());
    std::size_t hi = peak;
    while (hi < last) {
      const double value = response(hi + 1);
      if (value == 0.0) break;
      response_.push_back(value);
      ++hi;
    }
    support.first = lo;
    support.count = hi - lo + 1;
  }
  spectrum_re_.resize(n);
  spectrum_im_.resize(n);
  work_re_.resize(n);
  work_im_.resize(n);
}

// gansec-lint: hot-path
void CwtWindowPlan::band_energies_into(const double* window,
                                       std::size_t length, double* out) {
  if (length != window_length_) {
    throw InvalidArgumentError(
        "CwtWindowPlan::band_energies_into: window length does not match "
        "the plan");
  }
  const std::size_t n = fft_.size();
  // Forward transform of the zero-padded window, scattered straight into
  // bit-reversed order.
  std::fill(spectrum_re_.begin(), spectrum_re_.end(), 0.0);
  std::fill(spectrum_im_.begin(), spectrum_im_.end(), 0.0);
  for (std::size_t t = 0; t < length; ++t) {
    spectrum_re_[fft_.bit_reversed(t)] = window[t];
  }
  fft_.butterflies(spectrum_re_.data(), spectrum_im_.data(),
                   /*inverse=*/false);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t f = 0; f < supports_.size(); ++f) {
    // Spectrum x response over the band's support; every other bin is 0.
    const Support& support = supports_[f];
    const double* response = response_.data() + support.offset;
    std::fill(work_re_.begin(), work_re_.end(), 0.0);
    std::fill(work_im_.begin(), work_im_.end(), 0.0);
    for (std::size_t j = 0; j < support.count; ++j) {
      const std::size_t k = support.first + j;
      const std::size_t to = fft_.bit_reversed(k);
      work_re_[to] = spectrum_re_[k] * response[j];
      work_im_[to] = spectrum_im_[k] * response[j];
    }
    fft_.butterflies(work_re_.data(), work_im_.data(), /*inverse=*/true);
    double acc = 0.0;
    for (std::size_t t = 0; t < length; ++t) {
      // Normalize before squaring, as the inverse FFT does, so the
      // magnitude sees the same operands as the reference's std::abs.
      const double re = work_re_[t] * inv_n;
      const double im = work_im_[t] * inv_n;
      acc += std::sqrt(re * re + im * im);
    }
    out[f] = acc / static_cast<double>(length);
  }
}
// gansec-lint: end-hot-path

std::vector<double> CwtWindowPlan::band_energies(
    const std::vector<double>& window) {
  std::vector<double> out(frequencies_.size());
  band_energies_into(window.data(), window.size(), out.data());
  return out;
}

}  // namespace gansec::dsp
