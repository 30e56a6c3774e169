// Ablation — discriminator steps per generator step (k in Algorithm 2).
//
// The paper notes "the number of steps and the iterations to be performed
// depends on the assumptions about the attacker and can be easily modified
// accordingly". This ablation sweeps k and reports convergence quality:
// late-training D balance and the Algorithm 3 correct/incorrect margin.
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "gansec/security/analyzer.hpp"

int main() {
  using namespace gansec;

  bench::BenchReporter reporter("ablation_kstep");
  auto& exp = bench::experiment();

  std::cout << "=== Ablation: discriminator steps k ===\n";
  std::cout << "k\tfinal_g_loss\tfinal_d_loss\td_fake\tcor\tinc\tmargin\n";
  for (const std::size_t k : {1U, 2U, 5U}) {
    gan::Cgan model(bench::paper_topology(), 31 + k);
    gan::TrainConfig config = bench::paper_train_config();
    config.discriminator_steps = k;
    // Keep the total number of discriminator updates comparable.
    config.iterations = bench::paper_train_config().iterations / k;
    gan::CganTrainer trainer(model, config, 31 + k);
    std::cerr << "[bench] training with k=" << k << "...\n";
    trainer.train(exp.train_set.features, exp.train_set.conditions);

    double late_g = 0.0;
    double late_d = 0.0;
    double late_fake = 0.0;
    const auto& history = trainer.history();
    const std::size_t window = std::min<std::size_t>(100, history.size());
    for (std::size_t i = history.size() - window; i < history.size(); ++i) {
      late_g += history[i].g_loss / static_cast<double>(window);
      late_d += history[i].d_loss / static_cast<double>(window);
      late_fake += history[i].d_fake_mean / static_cast<double>(window);
    }

    security::LikelihoodConfig lik;
    lik.generator_samples = 150;
    const security::LikelihoodAnalyzer analyzer(lik, 5);
    const security::LikelihoodResult result =
        analyzer.analyze(model, exp.test_set);
    double cor = 0.0;
    double inc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      cor += result.mean_correct(c) / 3.0;
      inc += result.mean_incorrect(c) / 3.0;
    }
    std::printf("%zu\t%.4f\t%.4f\t%.3f\t%.4f\t%.4f\t%.4f\n", k, late_g,
                late_d, late_fake, cor, inc, cor - inc);
    std::string key = "k";
    key += std::to_string(k);
    reporter.add_metric(key + ".margin", cor - inc,
                        bench::Direction::kHigherIsBetter);
    reporter.add_metric(key + ".d_fake", late_fake,
                        bench::Direction::kTwoSided);
  }
  std::cout << "\n(higher margin = better learned conditional; k trades "
               "discriminator sharpness against generator signal)\n";
  reporter.write();
  return 0;
}
