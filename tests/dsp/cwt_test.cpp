#include "gansec/dsp/cwt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "gansec/dsp/binner.hpp"
#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"

namespace gansec::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n,
                         double amplitude = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) /
                    fs);
  }
  return x;
}

TEST(MorletCwt, ConfigValidation) {
  EXPECT_THROW(MorletCwt(CwtConfig{0.0, 6.0}), InvalidArgumentError);
  EXPECT_THROW(MorletCwt(CwtConfig{-1.0, 6.0}), InvalidArgumentError);
  EXPECT_THROW(MorletCwt(CwtConfig{8000.0, 0.0}), InvalidArgumentError);
}

TEST(MorletCwt, ScaleForFrequency) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const double s = cwt.scale_for_frequency(100.0);
  EXPECT_NEAR(s, 6.0 / (2.0 * std::numbers::pi * 100.0), 1e-12);
  EXPECT_THROW(cwt.scale_for_frequency(0.0), InvalidArgumentError);
  EXPECT_THROW(cwt.scale_for_frequency(-5.0), InvalidArgumentError);
  EXPECT_THROW(cwt.scale_for_frequency(4000.0), InvalidArgumentError);
}

TEST(MorletCwt, ScaleInverselyProportionalToFrequency) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  EXPECT_NEAR(cwt.scale_for_frequency(100.0),
              2.0 * cwt.scale_for_frequency(200.0), 1e-12);
}

TEST(MorletCwt, EmptyInputsThrow) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  EXPECT_THROW(cwt.scalogram({}, {100.0}), InvalidArgumentError);
  EXPECT_THROW(cwt.scalogram({1.0, 2.0}, {}), InvalidArgumentError);
}

TEST(MorletCwt, ScalogramShape) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const auto x = tone(440.0, 8000.0, 1000);
  const auto grid = cwt.scalogram(x, {100.0, 440.0, 1000.0});
  ASSERT_EQ(grid.size(), 3U);
  for (const auto& row : grid) {
    EXPECT_EQ(row.size(), 1000U);
  }
}

TEST(MorletCwt, PureToneEnergyLocalizesAtItsFrequency) {
  const double fs = 8000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  const auto x = tone(500.0, fs, 4096);
  const std::vector<double> freqs{125.0, 250.0, 500.0, 1000.0, 2000.0};
  const auto energies = cwt.band_energies(x, freqs);
  ASSERT_EQ(energies.size(), freqs.size());
  std::size_t peak = 0;
  for (std::size_t i = 1; i < energies.size(); ++i) {
    if (energies[i] > energies[peak]) peak = i;
  }
  EXPECT_EQ(freqs[peak], 500.0);
  // Energy at the tone frequency dominates the farthest bands decisively.
  EXPECT_GT(energies[2], 5.0 * energies[0]);
  EXPECT_GT(energies[2], 5.0 * energies[4]);
}

TEST(MorletCwt, TwoTonesBothDetected) {
  const double fs = 8000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  auto x = tone(300.0, fs, 4096);
  const auto y = tone(1500.0, fs, 4096, 0.8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  const std::vector<double> freqs{150.0, 300.0, 700.0, 1500.0, 3000.0};
  const auto energies = cwt.band_energies(x, freqs);
  EXPECT_GT(energies[1], energies[0]);
  EXPECT_GT(energies[1], energies[2]);
  EXPECT_GT(energies[3], energies[2]);
  EXPECT_GT(energies[3], energies[4]);
}

TEST(MorletCwt, AmplitudeMonotonicity) {
  const double fs = 8000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  const std::vector<double> freqs{500.0};
  const auto weak = cwt.band_energies(tone(500.0, fs, 2048, 0.5), freqs);
  const auto strong = cwt.band_energies(tone(500.0, fs, 2048, 2.0), freqs);
  EXPECT_NEAR(strong[0] / weak[0], 4.0, 0.1);
}

TEST(MorletCwt, SilenceGivesNearZeroEnergy) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const std::vector<double> silence(2048, 0.0);
  const auto energies = cwt.band_energies(silence, {100.0, 1000.0});
  EXPECT_NEAR(energies[0], 0.0, 1e-12);
  EXPECT_NEAR(energies[1], 0.0, 1e-12);
}

TEST(MorletCwt, NoiseSpreadsAcrossBands) {
  math::Rng rng(5);
  std::vector<double> noise(4096);
  for (double& v : noise) v = rng.normal();
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const std::vector<double> freqs{200.0, 800.0, 3200.0};
  const auto energies = cwt.band_energies(noise, freqs);
  for (const double e : energies) EXPECT_GT(e, 0.0);
}

TEST(MorletCwt, TimeLocalizationOfToneBurst) {
  // The paper picks the CWT because it "preserves the high-frequency
  // resolution in time-domain": a burst in the second half of the window
  // must light up the scalogram only there.
  const double fs = 8000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  std::vector<double> x(4096, 0.0);
  for (std::size_t i = 2048; i < 4096; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 1000.0 *
                    static_cast<double>(i) / fs);
  }
  const auto grid = cwt.scalogram(x, {1000.0});
  double first_half = 0.0;
  double second_half = 0.0;
  for (std::size_t t = 0; t < 2048; ++t) first_half += grid[0][t];
  for (std::size_t t = 2048; t < 4096; ++t) second_half += grid[0][t];
  EXPECT_GT(second_half, 10.0 * first_half);
}

// Frequency-resolution sweep: the detected peak must track the true tone
// frequency across the band.
class CwtToneSweep : public ::testing::TestWithParam<double> {};

TEST_P(CwtToneSweep, PeakTracksTone) {
  const double f0 = GetParam();
  const double fs = 12000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  const auto x = tone(f0, fs, 4096);
  // Log grid from 50 to 5000 Hz, 40 points.
  std::vector<double> freqs;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(50.0 *
                    std::pow(5000.0 / 50.0, static_cast<double>(i) / 39.0));
  }
  const auto energies = cwt.band_energies(x, freqs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < energies.size(); ++i) {
    if (energies[i] > energies[peak]) peak = i;
  }
  // Nearest grid frequency to the tone.
  std::size_t nearest = 0;
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    if (std::abs(freqs[i] - f0) < std::abs(freqs[nearest] - f0)) nearest = i;
  }
  // Allow one grid-slot tolerance (log spacing is coarse).
  EXPECT_LE(peak > nearest ? peak - nearest : nearest - peak, 1U)
      << "tone " << f0 << " peaked at grid " << freqs[peak];
}

INSTANTIATE_TEST_SUITE_P(Tones, CwtToneSweep,
                         ::testing::Values(80.0, 160.0, 320.0, 640.0, 1280.0,
                                           2560.0, 4500.0));

// ---- CwtWindowPlan (streaming per-window path) ------------------------------

TEST(CwtWindowPlan, BitIdenticalToBatchBandEnergies) {
  const double fs = 8000.0;
  const MorletCwt cwt(CwtConfig{fs, 6.0});
  const std::vector<double> freqs{125.0, 500.0, 1000.0, 2000.0};
  CwtWindowPlan plan(cwt, 1500, freqs);
  math::Rng rng(17);
  std::vector<double> window(1500);
  for (int pass = 0; pass < 3; ++pass) {
    for (double& v : window) v = rng.normal();
    const auto batch = cwt.band_energies(window, freqs);
    const auto streamed = plan.band_energies(window);
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // EXPECT_EQ, not NEAR: the batch call builds a CwtWindowPlan and runs
      // it, so both paths share one implementation, and a reused plan must
      // give the same bits as a fresh one on every window.
      EXPECT_EQ(streamed[i], batch[i]) << "pass " << pass << " band " << i;
    }
  }
}

TEST(CwtWindowPlan, IntoFormReusesCallerBuffer) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  const std::vector<double> freqs{250.0, 1000.0};
  CwtWindowPlan plan(cwt, 1024, freqs);
  const auto x = tone(1000.0, 8000.0, 1024);
  std::vector<double> out(freqs.size(), -1.0);
  plan.band_energies_into(x.data(), x.size(), out.data());
  const auto batch = cwt.band_energies(x, freqs);
  EXPECT_EQ(out[0], batch[0]);
  EXPECT_EQ(out[1], batch[1]);
}

// ---- Paper-scale accuracy against the scalogram reference -------------------

// The paper's window: 0.25 s at 16 kHz, 100 log bins in 50-5000 Hz.
constexpr double kPaperRate = 16000.0;
constexpr std::size_t kPaperWindow = 4000;

std::vector<double> tone_plus_noise(std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> x = tone(440.0, kPaperRate, kPaperWindow);
  const auto y = tone(2750.0, kPaperRate, kPaperWindow, 0.3);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i] + 0.2 * rng.normal();
  return x;
}

/// Mean of each scalogram row, summed in time order: the band energies as
/// computed before the plan existed, with std::abs for |W|.
std::vector<double> reference_band_energies(
    const MorletCwt& cwt, const std::vector<double>& signal,
    const std::vector<double>& frequencies) {
  const auto grid = cwt.scalogram(signal, frequencies);
  std::vector<double> energies(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    double acc = 0.0;
    for (const double v : grid[i]) acc += v;
    energies[i] = acc / static_cast<double>(grid[i].size());
  }
  return energies;
}

/// Distance in units in the last place between two positive doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(CwtWindowPlan, PaperScaleWithinFourUlpOfScalogramMean) {
  const MorletCwt cwt(CwtConfig{kPaperRate, 6.0});
  const std::vector<double> centers =
      FrequencyBinner::paper_default().centers();
  CwtWindowPlan plan(cwt, kPaperWindow, centers);
  for (const std::uint64_t seed : {11U, 12U}) {
    const auto x = tone_plus_noise(seed);
    const auto energies = plan.band_energies(x);
    const auto reference = reference_band_energies(cwt, x, centers);
    ASSERT_EQ(energies.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_GT(reference[i], 0.0);
      // Only the magnitude differs (sqrt of the sum of squares against
      // std::abs); the FFTs and responses are the reference's bits.
      EXPECT_LE(ulp_distance(energies[i], reference[i]), 4U)
          << "seed " << seed << " band " << i << ": " << energies[i]
          << " vs " << reference[i];
      // Every feature path casts to float, where the difference vanishes.
      EXPECT_EQ(static_cast<float>(energies[i]),
                static_cast<float>(reference[i]))
          << "seed " << seed << " band " << i;
    }
  }
}

TEST(CwtWindowPlan, EmptySupportAndSilenceGiveExactZero) {
  // At 8 kHz and N = 1024 the 0.5 Hz response underflows to 0 in every
  // bin, so the band has no support at all (last, so its empty slice sits
  // at the end of the response table).
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  CwtWindowPlan plan(cwt, 1024, {1000.0, 0.5});
  const auto loud = plan.band_energies(tone(1000.0, 8000.0, 1024));
  EXPECT_GT(loud[0], 0.0);
  EXPECT_EQ(loud[1], 0.0);
  const auto silent = plan.band_energies(std::vector<double>(1024, 0.0));
  EXPECT_EQ(silent[0], 0.0);
  EXPECT_EQ(silent[1], 0.0);
}

TEST(CwtWindowPlan, NonFiniteSampleGivesNanInEveryBand) {
  const MorletCwt cwt(CwtConfig{kPaperRate, 6.0});
  CwtWindowPlan plan(cwt, kPaperWindow,
                     FrequencyBinner::paper_default().centers());
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double bad : poison) {
    auto x = tone_plus_noise(13);
    x[1234] = bad;
    const auto energies = plan.band_energies(x);
    for (std::size_t i = 0; i < energies.size(); ++i) {
      EXPECT_TRUE(std::isnan(energies[i]))
          << "sample " << bad << " band " << i << " gave " << energies[i];
    }
  }
}

TEST(CwtWindowPlan, HugeFiniteInputMatchesReferenceAsFloat) {
  // sqrt(re^2 + im^2) overflows where std::abs would not, but a band energy
  // this large is +inf after the cast to float either way.
  const MorletCwt cwt(CwtConfig{kPaperRate, 6.0});
  const std::vector<double> centers =
      FrequencyBinner::paper_default().centers();
  CwtWindowPlan plan(cwt, kPaperWindow, centers);
  const std::vector<double> x(kPaperWindow, 1e300);
  const auto energies = plan.band_energies(x);
  const auto reference = reference_band_energies(cwt, x, centers);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(static_cast<float>(energies[i]),
              static_cast<float>(reference[i]))
        << "band " << i;
    EXPECT_EQ(static_cast<float>(energies[i]),
              std::numeric_limits<float>::infinity())
        << "band " << i;
  }
}

TEST(CwtWindowPlan, Validation) {
  const MorletCwt cwt(CwtConfig{8000.0, 6.0});
  EXPECT_THROW(CwtWindowPlan(cwt, 0, {100.0}), InvalidArgumentError);
  EXPECT_THROW(CwtWindowPlan(cwt, 1024, {}), InvalidArgumentError);
  EXPECT_THROW(CwtWindowPlan(cwt, 1024, {4000.0}), InvalidArgumentError);
  CwtWindowPlan plan(cwt, 1024, {100.0});
  const std::vector<double> wrong(512, 0.0);
  std::vector<double> out(1);
  EXPECT_THROW(plan.band_energies_into(wrong.data(), wrong.size(),
                                       out.data()),
               InvalidArgumentError);
}

}  // namespace
}  // namespace gansec::dsp
