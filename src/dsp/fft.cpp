#include "gansec/dsp/fft.hpp"

#include <bit>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>

#include "gansec/error.hpp"

namespace gansec::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

namespace {

/// Twiddles w_k = exp(+-2*pi*i*k/len), k < len/2, by the recurrence
/// w_{k+1} = w_k * wlen written out as a complex multiplication.
void fill_twiddles(std::size_t len, bool inverse, double* re, double* im) {
  const double angle =
      (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
  const double wlen_re = std::cos(angle);
  const double wlen_im = std::sin(angle);
  double w_re = 1.0;
  double w_im = 0.0;
  for (std::size_t k = 0; k < len / 2; ++k) {
    re[k] = w_re;
    im[k] = w_im;
    const double next_re = w_re * wlen_re - w_im * wlen_im;
    w_im = w_re * wlen_im + w_im * wlen_re;
    w_re = next_re;
  }
}

/// One radix-2 butterfly: v = b * w, then (a, b) <- (a + v, a - v), term
/// for term as the std::complex butterfly computes it.
inline void butterfly(double& a_re, double& a_im, double& b_re, double& b_im,
                      double w_re, double w_im) {
  const double v_re = b_re * w_re - b_im * w_im;
  const double v_im = b_re * w_im + b_im * w_re;
  const double u_re = a_re;
  const double u_im = a_im;
  a_re = u_re + v_re;
  a_im = u_im + v_im;
  b_re = u_re - v_re;
  b_im = u_im - v_im;
}

/// Two radix-2 stages, half-lengths h and 2h, over one block of 4h values
/// held as quarters a, b, c, d. Stage h pairs (a, b) and (c, d) under
/// twiddles w1; stage 2h pairs (a, c) under w2 and (b, d) under w3. Every
/// value meets the same butterflies as in two separate stages, so the
/// result is identical; fusing them halves the passes over the data.
/// `__restrict` states that quarters and twiddle tables never overlap, so
/// the compiler vectorizes over k without run-time overlap checks.
inline void radix4_block(double* __restrict a_re, double* __restrict a_im,
                         double* __restrict b_re, double* __restrict b_im,
                         double* __restrict c_re, double* __restrict c_im,
                         double* __restrict d_re, double* __restrict d_im,
                         std::size_t h, const double* __restrict w1_re,
                         const double* __restrict w1_im,
                         const double* __restrict w2_re,
                         const double* __restrict w2_im,
                         const double* __restrict w3_re,
                         const double* __restrict w3_im) {
  for (std::size_t k = 0; k < h; ++k) {
    double ar = a_re[k];
    double ai = a_im[k];
    double br = b_re[k];
    double bi = b_im[k];
    double cr = c_re[k];
    double ci = c_im[k];
    double dr = d_re[k];
    double di = d_im[k];
    butterfly(ar, ai, br, bi, w1_re[k], w1_im[k]);
    butterfly(cr, ci, dr, di, w1_re[k], w1_im[k]);
    butterfly(ar, ai, cr, ci, w2_re[k], w2_im[k]);
    butterfly(br, bi, dr, di, w3_re[k], w3_im[k]);
    a_re[k] = ar;
    a_im[k] = ai;
    b_re[k] = br;
    b_im[k] = bi;
    c_re[k] = cr;
    c_im[k] = ci;
    d_re[k] = dr;
    d_im[k] = di;
  }
}

/// Stages h and 2h over all n values (tables hold stage h at offset h - 1).
inline void radix4_pass(double* re, double* im, std::size_t n, std::size_t h,
                        const double* tw_re, const double* tw_im) {
  const double* w1_re = tw_re + (h - 1);
  const double* w1_im = tw_im + (h - 1);
  const double* w2_re = tw_re + (2 * h - 1);
  const double* w2_im = tw_im + (2 * h - 1);
  for (std::size_t i = 0; i < n; i += 4 * h) {
    radix4_block(re + i, im + i, re + i + h, im + i + h, re + i + 2 * h,
                 im + i + 2 * h, re + i + 3 * h, im + i + 3 * h, h, w1_re,
                 w1_im, w2_re, w2_im, w2_re + h, w2_im + h);
  }
}

void run(const FftPlan& plan, std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<double> re(n);
  std::vector<double> im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  if (inverse) {
    plan.inverse(re.data(), im.data());
  } else {
    plan.forward(re.data(), im.data());
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = Complex(re[i], im[i]);
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw gansec::InvalidArgumentError(
        "fft: length must be a power of two, got " + std::to_string(n));
  }
  bit_reverse_.assign(n, 0);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1U;
    while (j & bit) {
      j ^= bit;
      bit >>= 1U;
    }
    j |= bit;
    bit_reverse_[i] = j;
  }
  forward_re_.resize(n - 1);
  forward_im_.resize(n - 1);
  inverse_re_.resize(n - 1);
  inverse_im_.resize(n - 1);
  for (std::size_t half = 1; half < n; half <<= 1U) {
    fill_twiddles(2 * half, /*inverse=*/false, &forward_re_[half - 1],
                  &forward_im_[half - 1]);
    fill_twiddles(2 * half, /*inverse=*/true, &inverse_re_[half - 1],
                  &inverse_im_[half - 1]);
  }
}

void FftPlan::permute(double* re, double* im) const {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
}

void FftPlan::butterflies(double* re, double* im, bool inverse) const {
  const double* tw_re = inverse ? inverse_re_.data() : forward_re_.data();
  const double* tw_im = inverse ? inverse_im_.data() : forward_im_.data();
  std::size_t h = 1;
  if (std::countr_zero(n_) % 2 == 1) {
    // An odd stage count starts with one plain radix-2 stage.
    for (std::size_t i = 0; i < n_; i += 2) {
      butterfly(re[i], im[i], re[i + 1], im[i + 1], tw_re[0], tw_im[0]);
    }
    h = 2;
  } else if (n_ >= 4) {
    // The first fused pass has h == 1; a literal lets the compiler drop
    // the one-iteration inner loop.
    radix4_pass(re, im, n_, 1, tw_re, tw_im);
    h = 4;
  }
  for (; h < n_; h <<= 2U) radix4_pass(re, im, n_, h, tw_re, tw_im);
}

void FftPlan::forward(double* re, double* im) const {
  permute(re, im);
  butterflies(re, im, /*inverse=*/false);
}

void FftPlan::inverse(double* re, double* im) const {
  permute(re, im);
  butterflies(re, im, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    re[i] *= inv_n;
    im[i] *= inv_n;
  }
}

void fft_in_place(std::vector<Complex>& x) {
  run(FftPlan(x.size()), x, /*inverse=*/false);
}

void ifft_in_place(std::vector<Complex>& x) {
  run(FftPlan(x.size()), x, /*inverse=*/true);
}

std::vector<Complex> fft_real(const std::vector<double>& x) {
  if (x.empty()) {
    throw gansec::InvalidArgumentError("fft_real: empty signal");
  }
  std::vector<Complex> padded(next_power_of_two(x.size()), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) padded[i] = Complex(x[i], 0.0);
  fft_in_place(padded);
  return padded;
}

std::vector<double> magnitude_spectrum(const std::vector<double>& x) {
  const std::vector<Complex> spectrum = fft_real(x);
  std::vector<double> mags(spectrum.size() / 2 + 1);
  for (std::size_t k = 0; k < mags.size(); ++k) {
    mags[k] = std::abs(spectrum[k]);
  }
  return mags;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  if (n == 0) {
    throw gansec::InvalidArgumentError("bin_frequency: zero-length transform");
  }
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

}  // namespace gansec::dsp
