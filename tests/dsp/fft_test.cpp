#include "gansec/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"

namespace gansec::dsp {
namespace {

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
  EXPECT_EQ(next_power_of_two(0), 1U);
  EXPECT_EQ(next_power_of_two(1), 1U);
  EXPECT_EQ(next_power_of_two(5), 8U);
  EXPECT_EQ(next_power_of_two(1024), 1024U);
  EXPECT_EQ(next_power_of_two(1025), 2048U);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<Complex> x(6, Complex(1.0, 0.0));
  EXPECT_THROW(fft_in_place(x), InvalidArgumentError);
}

TEST(Fft, EmptyRealSignalThrows) {
  EXPECT_THROW(fft_real({}), InvalidArgumentError);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(8, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  fft_in_place(x);
  for (const Complex& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantGivesDcOnly) {
  std::vector<Complex> x(16, Complex(2.0, 0.0));
  fft_in_place(x);
  EXPECT_NEAR(x[0].real(), 32.0, 1e-9);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
  }
}

TEST(Fft, SinusoidPeaksAtItsBin) {
  const std::size_t n = 64;
  std::vector<double> x(n);
  const std::size_t k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(k0 * i) /
                    static_cast<double>(n));
  }
  const std::vector<double> mags = magnitude_spectrum(x);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] > mags[peak]) peak = k;
  }
  EXPECT_EQ(peak, k0);
  EXPECT_NEAR(mags[k0], static_cast<double>(n) / 2.0, 1e-9);
}

TEST(Fft, RoundTripRecoversSignal) {
  math::Rng rng(3);
  std::vector<Complex> x(128);
  for (Complex& c : x) c = Complex(rng.normal(), rng.normal());
  const std::vector<Complex> orig = x;
  fft_in_place(x);
  ifft_in_place(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-9);
  }
}

TEST(Fft, Linearity) {
  math::Rng rng(5);
  const std::size_t n = 32;
  std::vector<Complex> a(n);
  std::vector<Complex> b(n);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = Complex(rng.normal(), 0.0);
    b[i] = Complex(rng.normal(), 0.0);
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_in_place(a);
  fft_in_place(b);
  fft_in_place(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expected = a[k] + 2.0 * b[k];
    EXPECT_NEAR(std::abs(sum[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalTheorem) {
  math::Rng rng(7);
  const std::size_t n = 256;
  std::vector<Complex> x(n);
  double time_energy = 0.0;
  for (Complex& c : x) {
    c = Complex(rng.normal(), 0.0);
    time_energy += std::norm(c);
  }
  fft_in_place(x);
  double freq_energy = 0.0;
  for (const Complex& c : x) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, RealSignalHermitianSymmetry) {
  math::Rng rng(9);
  std::vector<double> x(64);
  for (double& v : x) v = rng.normal();
  const std::vector<Complex> spectrum = fft_real(x);
  const std::size_t n = spectrum.size();
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[n - k].real(), 1e-9);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[n - k].imag(), 1e-9);
  }
}

TEST(Fft, RealSignalZeroPads) {
  std::vector<double> x(100, 1.0);  // pads to 128
  const std::vector<Complex> spectrum = fft_real(x);
  EXPECT_EQ(spectrum.size(), 128U);
}

TEST(Fft, BinFrequency) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 1024, 16000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(512, 1024, 16000.0), 8000.0);
  EXPECT_DOUBLE_EQ(bin_frequency(64, 1024, 16000.0), 1000.0);
  EXPECT_THROW(bin_frequency(1, 0, 16000.0), InvalidArgumentError);
}

// Parseval must hold across transform sizes.
class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, RoundTripAndParseval) {
  const std::size_t n = GetParam();
  math::Rng rng(n);
  std::vector<Complex> x(n);
  double time_energy = 0.0;
  for (Complex& c : x) {
    c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    time_energy += std::norm(c);
  }
  std::vector<Complex> y = x;
  fft_in_place(y);
  double freq_energy = 0.0;
  for (const Complex& c : y) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * static_cast<double>(n));
  ifft_in_place(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 512, 4096));

// ---- Bit-identity oracle ------------------------------------------------------

// The classic iterative radix-2 transform over std::complex, with twiddles
// rebuilt by the `w *= wlen` recurrence on every call. FftPlan tabulates the
// same recurrence and performs the same butterflies, so its output must
// equal this loop's to the last bit.
void reference_transform(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1U;
    while (j & bit) {
      j ^= bit;
      bit >>= 1U;
    }
    j |= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1U) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : x) c *= inv_n;
  }
}

// Compares bit patterns, so even the sign of a zero must agree.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const std::vector<Complex>& got,
                          const std::vector<Complex>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(got[i].real()), bits(want[i].real()))
        << what << " re[" << i << "]";
    EXPECT_EQ(bits(got[i].imag()), bits(want[i].imag()))
        << what << " im[" << i << "]";
  }
}

// Random complex input, and a real input with exact zeros (the shape the
// CWT feeds in: zero imaginary parts and a zero-padded tail).
std::vector<std::vector<Complex>> oracle_inputs(std::size_t n) {
  math::Rng rng(1000 + n);
  std::vector<Complex> complex_input(n);
  for (Complex& c : complex_input) c = Complex(rng.normal(), rng.normal());
  std::vector<Complex> real_input(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 1 && i < n - n / 4) real_input[i] = Complex(rng.normal(), 0.0);
  }
  return {complex_input, real_input};
}

TEST(FftOracle, WrappersMatchRecurrenceBitForBit) {
  for (std::size_t n = 1; n <= 16384; n <<= 1U) {
    for (const std::vector<Complex>& input : oracle_inputs(n)) {
      std::vector<Complex> want = input;
      reference_transform(want, /*inverse=*/false);
      std::vector<Complex> got = input;
      fft_in_place(got);
      expect_bit_identical(got, want, "fft n=" + std::to_string(n));

      want = input;
      reference_transform(want, /*inverse=*/true);
      got = input;
      ifft_in_place(got);
      expect_bit_identical(got, want, "ifft n=" + std::to_string(n));
    }
  }
}

TEST(FftOracle, PlanOnSplitArraysMatchesWrappers) {
  for (std::size_t n = 1; n <= 16384; n <<= 1U) {
    const FftPlan plan(n);
    ASSERT_EQ(plan.size(), n);
    for (const std::vector<Complex>& input : oracle_inputs(n)) {
      for (const bool inverse : {false, true}) {
        std::vector<Complex> want = input;
        if (inverse) {
          ifft_in_place(want);
        } else {
          fft_in_place(want);
        }
        std::vector<double> re(n);
        std::vector<double> im(n);
        for (std::size_t i = 0; i < n; ++i) {
          re[i] = input[i].real();
          im[i] = input[i].imag();
        }
        if (inverse) {
          plan.inverse(re.data(), im.data());
        } else {
          plan.forward(re.data(), im.data());
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(re[i]), bits(want[i].real()))
              << "n=" << n << " i=" << i;
          EXPECT_EQ(bits(im[i]), bits(want[i].imag()))
              << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(FftOracle, PlanRejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), InvalidArgumentError);
  EXPECT_THROW(FftPlan(12), InvalidArgumentError);
}

}  // namespace
}  // namespace gansec::dsp
