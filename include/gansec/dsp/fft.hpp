// Iterative radix-2 Cooley-Tukey FFT.
//
// The continuous wavelet transform in this library is computed in the
// frequency domain, so the FFT is the workhorse of the energy-flow feature
// pipeline. Transforms operate on power-of-two lengths; helpers are provided
// for padding.
//
// There is one kernel, FftPlan: the bit-reverse permutation and the twiddle
// factors of every stage are tabulated once per length, and the butterflies
// run on split re/im arrays in plain double arithmetic. The twiddles are
// filled by the textbook `w *= wlen` recurrence per stage, so a plan's output
// is bit-identical to the classic recurrence loop over std::complex values
// (tests/dsp/fft_test.cpp keeps that loop as the oracle). The vector helpers
// below build a plan per call.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace gansec::dsp {

using Complex = std::complex<double>;

bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_power_of_two(std::size_t n);

/// Precomputed radix-2 transform of one power-of-two length. Immutable
/// after construction, so one plan may serve any number of threads; the
/// transforms work in place on caller-owned arrays of size() values, `re`
/// and `im` not overlapping, and never allocate.
class FftPlan {
 public:
  /// Throws InvalidArgumentError unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Position of input index k after the bit-reverse permutation.
  std::size_t bit_reversed(std::size_t k) const { return bit_reverse_[k]; }

  /// In-place forward transform of size() values held as split arrays.
  void forward(double* re, double* im) const;

  /// In-place inverse transform, including the 1/N normalization.
  void inverse(double* re, double* im) const;

  /// The butterfly stages alone, for input that is already in bit-reversed
  /// order (callers that scatter straight into it skip the permutation).
  /// Output is in natural order; the inverse is left unnormalized.
  void butterflies(double* re, double* im, bool inverse) const;

 private:
  void permute(double* re, double* im) const;

  std::size_t n_;
  std::vector<std::size_t> bit_reverse_;
  /// Per-stage twiddles, stage with half-length h at offset h - 1.
  std::vector<double> forward_re_;
  std::vector<double> forward_im_;
  std::vector<double> inverse_re_;
  std::vector<double> inverse_im_;
};

/// In-place forward FFT. Length must be a power of two (throws
/// InvalidArgumentError otherwise).
void fft_in_place(std::vector<Complex>& x);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_in_place(std::vector<Complex>& x);

/// Forward FFT of a real signal, zero-padded to the next power of two.
std::vector<Complex> fft_real(const std::vector<double>& x);

/// Magnitude spectrum |X[k]| for k in [0, N/2] of a real signal
/// (zero-padded to a power of two before transforming).
std::vector<double> magnitude_spectrum(const std::vector<double>& x);

/// Frequency in Hz of FFT bin k for a length-n transform at sample_rate.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

}  // namespace gansec::dsp
