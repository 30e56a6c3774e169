#include "gansec/stats/kde.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>

#include "gansec/error.hpp"
#include "gansec/obs/metrics.hpp"

namespace gansec::stats {

namespace {

// The exponent of sample i's kernel at query x: -(x-xi)^2 / (2 h^2), with
// guards so the value is well-defined for any finite inputs. inv_2h2
// overflows to +inf when h is subnormal-tiny; the guards keep 0 * inf and
// inf * 0 from poisoning the logsumexp with NaN. Deterministic in its
// inputs, so the two logsumexp passes below recompute identical values.
inline double kernel_exponent(double x, double s, double h, double inv_2h2) {
  const double d = x - s;
  if (d == 0.0) {
    return 0.0;  // query on a sample: kernel peak, even when inv_2h2 = inf
  }
  const double e = -d * d * inv_2h2;
  if (std::isnan(e)) {
    // d^2 overflowed while inv_2h2 underflowed (astronomical spread with a
    // huge h): evaluate the exponent via the stable ratio form.
    const double t = d / h;
    return -0.5 * t * t;
  }
  return e;
}

}  // namespace

ParzenKde::ParzenKde(std::vector<double> samples, double bandwidth)
    : samples_(std::move(samples)), h_(bandwidth) {
  if (samples_.empty()) {
    throw InvalidArgumentError("ParzenKde: empty sample set");
  }
  if (h_ <= 0.0 || !std::isfinite(h_)) {
    throw InvalidArgumentError(
        "ParzenKde: bandwidth must be positive and finite");
  }
  for (const double s : samples_) {
    if (!std::isfinite(s)) {
      throw NumericError("ParzenKde: non-finite sample");
    }
  }
}

// Called once per query point per condition in Algorithm 3's scoring loop;
// the two-pass logsumexp exists precisely to avoid an exponent buffer.
// gansec-lint: hot-path

double ParzenKde::log_density(double x) const {
  if (!std::isfinite(x)) {
    throw NumericError("ParzenKde::log_density: non-finite query");
  }
  // log density = logsumexp_i( -(x-xi)^2 / (2h^2) ) - log(n h sqrt(2 pi)),
  // evaluated in two passes (max, then shifted sum) so no exponent buffer
  // is ever materialized. Both passes visit samples in ascending index
  // order, so the accumulation is bit-identical to the buffered form.
  const double inv_2h2 = 1.0 / (2.0 * h_ * h_);
  double max_exponent = -std::numeric_limits<double>::infinity();
  const std::size_t count = samples_.size();
  for (std::size_t i = 0; i < count; ++i) {
    max_exponent =
        std::max(max_exponent, kernel_exponent(x, samples_[i], h_, inv_2h2));
  }
  const double log_norm =
      std::log(static_cast<double>(count)) + std::log(h_) +
      0.5 * std::log(2.0 * std::numbers::pi);
  if (max_exponent == -std::numeric_limits<double>::infinity()) {
    // Every kernel underflowed (x astronomically far from all samples, or
    // h -> 0 with x off-sample). exp(e - max) would be exp(NaN); clamp to
    // the most negative finite log instead so callers never see NaN or
    // -inf: density() and scaled_likelihood() underflow cleanly to 0.
    // Counted because a nonzero rate on real data means the bandwidth is
    // pathological for the feature scale — the Algorithm 3 happy path
    // must never hit this (asserted by the KDE golden tests).
    static obs::Counter& clamps = obs::counter("stats.kde.log_density_clamped");
    clamps.add();
    return -std::numeric_limits<double>::max();
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += std::exp(kernel_exponent(x, samples_[i], h_, inv_2h2) -
                    max_exponent);
  }
  return max_exponent + std::log(acc) - log_norm;
}

double ParzenKde::density(double x) const {
  return std::exp(log_density(x));
}

double ParzenKde::scaled_likelihood(double x) const {
  return density(x) * h_;
}

// gansec-lint: end-hot-path

}  // namespace gansec::stats
