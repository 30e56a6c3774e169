// Parzen Gaussian-window kernel density estimation.
//
// Algorithm 3 of the paper fits a "Parzen Gaussian Window" distribution to
// generator samples per frequency feature and scores test samples with it
// (the sklearn-style `score` returning a log-likelihood, then
// Like = exp(LogLike) * h). ParzenKde owns its samples and is copyable.
#pragma once

#include <cstddef>
#include <vector>

namespace gansec::stats {

class ParzenKde {
 public:
  /// Fits the estimator: density(x) = (1/n) sum_i N(x; sample_i, h^2).
  /// Throws InvalidArgumentError on empty samples or non-positive/
  /// non-finite h, NumericError on non-finite samples.
  ParzenKde(std::vector<double> samples, double bandwidth);

  double bandwidth() const { return h_; }
  std::size_t sample_count() const { return samples_.size(); }

  /// Log density at x (two-pass log-sum-exp, numerically stable, no
  /// allocation). Always finite: when every kernel underflows (x far from
  /// all samples, or h -> 0 with x off-sample) the result clamps to the
  /// most negative finite double rather than -inf or NaN, so exp() of it
  /// is exactly 0.
  double log_density(double x) const;

  /// Density at x.
  double density(double x) const;

  /// sklearn KernelDensity::score for a single sample — alias of
  /// log_density, named to mirror Algorithm 3 line 9.
  double score(double x) const { return log_density(x); }

  /// Algorithm 3 line 10: exp(score(x)) * h — the h-scaled likelihood the
  /// paper tabulates (Table I). For a Gaussian kernel this is bounded by
  /// 1/sqrt(2*pi) ~ 0.399 times the local mass concentration.
  double scaled_likelihood(double x) const;

 private:
  std::vector<double> samples_;
  double h_;
};

}  // namespace gansec::stats
