// Figure 8 — conditional probability distribution of the acoustic signal
// (Parzen window h = 0.2).
//
// The paper plots the density of each (scaled) frequency magnitude under
// the trained generator per condition. This bench fits the Parzen KDE to
// generator samples for each condition (Algorithm 3's fit_condition) and
// prints the density grid over the scaled magnitude axis [0,1] for a set
// of representative frequency features, plus the h-scaled probabilities
// (the paper multiplies the density by h = 0.2).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "gansec/security/analyzer.hpp"

int main() {
  using namespace gansec;

  bench::BenchReporter reporter("fig8_conditional_density");
  auto& exp = bench::experiment();
  const double h = 0.2;
  const std::size_t gsize = bench::smoke() ? 50 : 300;
  // Representative features across the band; drop the ones past the
  // feature count when a smoke run shrinks the bin grid.
  std::vector<std::size_t> features;
  const std::size_t cols = exp.train_set.features.cols();
  for (const std::size_t ft : {10U, 35U, 60U, 85U}) {
    if (ft < cols) features.push_back(ft);
  }
  if (features.empty()) features = {0, cols / 2};
  const auto& centers = exp.builder.binner().centers();

  std::cout << "=== Figure 8: Pr(freq | cond), Parzen h=" << h << " ===\n";
  math::Rng rng(88);
  double density_acc = 0.0;
  std::size_t density_n = 0;
  for (std::size_t ci = 0; ci < 3; ++ci) {
    const std::vector<stats::ParzenKde> fits = security::fit_condition(
        exp.model.generator(), exp.model.topology(), ci, features, gsize, h,
        rng);
    const char* names[3] = {"X [1,0,0]", "Y [0,1,0]", "Z [0,0,1]"};
    std::printf("\ncondition %zu (%s):\n", ci + 1, names[ci]);
    std::printf("%-22s", "scaled magnitude:");
    for (double m = 0.0; m <= 1.0001; m += 0.1) std::printf(" %6.1f", m);
    std::printf("\n");
    for (std::size_t fpos = 0; fpos < features.size(); ++fpos) {
      const std::size_t ft = features[fpos];
      std::printf("feat %3zu (%6.0f Hz) p*h:", ft, centers[ft]);
      for (double m = 0.0; m <= 1.0001; m += 0.1) {
        const double p = fits[fpos].scaled_likelihood(m);
        density_acc += p;
        ++density_n;
        std::printf(" %6.3f", p);
      }
      std::printf("\n");
    }
  }
  std::cout << "\n(densities are per-feature Parzen estimates over "
            << gsize << " generator samples; multiply columns by h=" << h
            << " as in the paper to read probabilities)\n";
  reporter.add_metric("kde.mean_scaled_likelihood",
                      density_acc / static_cast<double>(density_n),
                      bench::Direction::kTwoSided);
  reporter.write();
  return 0;
}
