// Attack-detection experiment (paper Section IV-D design goal).
//
// "if a designer needs to create an integrity and availability attack
// detection model to detect attacks on individual components (X, Y or Z
// motor) using the side-channels, he/she will be able to estimate the
// performance of such a model using the CGAN model."
//
// This bench builds the likelihood-threshold detector from the trained
// CGAN, calibrates it on benign traffic, and reports detection quality
// against injected integrity (wrong motor runs) and availability (motor
// stalled) attacks.
#include <cstdio>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/security/report.hpp"
#include "gansec/security/stream_detector.hpp"

int main() {
  using namespace gansec;

  bench::BenchReporter reporter("attack_detection");
  auto& exp = bench::experiment();
  const std::size_t calib_n = bench::smoke() ? 6 : 30;
  const std::size_t eval_n = bench::smoke() ? 6 : 25;

  security::DetectorConfig config;
  config.generator_samples = bench::smoke() ? 50 : 200;
  const auto scoring =
      std::make_shared<const security::ScoringModel>(exp.model, config);
  security::AttackInjector injector(exp.builder, 2024);

  std::cerr << "[bench] calibrating on benign observations...\n";
  const double threshold = security::calibrate_threshold(
      *scoring, injector.generate(calib_n, 0.0, security::AttackKind::kNone));
  std::printf("alarm threshold (mean log-likelihood): %.3f\n", threshold);
  reporter.add_metric("threshold", threshold, bench::Direction::kTwoSided);

  std::cout << "\n=== Attack detection performance ===\n";
  for (const auto kind : {security::AttackKind::kIntegrity,
                          security::AttackKind::kAvailability,
                          security::AttackKind::kDegradation}) {
    std::cerr << "[bench] evaluating " << security::attack_name(kind)
              << " attacks...\n";
    const auto observations = injector.generate(eval_n, 0.5, kind);
    const security::DetectionReport report =
        security::evaluate(scoring, threshold, observations);
    std::printf("\n%s attacks:\n%s", security::attack_name(kind),
                security::format_detection(report).c_str());
    const std::string prefix = security::attack_name(kind);
    reporter.add_metric(prefix + ".accuracy", report.accuracy,
                        bench::Direction::kHigherIsBetter);
    reporter.add_metric(prefix + ".auc", report.auc,
                        bench::Direction::kHigherIsBetter);
  }

  std::cout << "\n(integrity and availability attacks are gross spectral "
               "changes and detect well; the degradation attack — a 15% "
               "resonance detune — is near the detector's floor, an honest "
               "limit of the pooled-microphone likelihood test)\n";

  // Per-motor breakdown for availability attacks (which motor is easiest
  // to monitor through the side channel).
  std::cout << "\nper-motor availability detection:\n";
  const int per_motor_n = bench::smoke() ? 4 : 20;
  for (std::size_t label = 0; label < 3; ++label) {
    std::vector<security::Observation> observations;
    for (int i = 0; i < per_motor_n; ++i) {
      observations.push_back(injector.make_observation(
          label, security::AttackKind::kNone));
      observations.push_back(injector.make_observation(
          label, security::AttackKind::kAvailability));
    }
    const security::DetectionReport report =
        security::evaluate(scoring, threshold, observations);
    const char* names[3] = {"X", "Y", "Z"};
    std::printf("  motor %s: accuracy %.3f, AUC %.3f\n", names[label],
                report.accuracy, report.auc);
    reporter.add_metric(std::string("availability.motor_") + names[label] +
                            ".auc",
                        report.auc, bench::Direction::kHigherIsBetter);
  }
  reporter.write();
  return 0;
}
