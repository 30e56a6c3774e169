// The defender's view: detect integrity/availability attacks from the
// same side channel.
//
// The defender knows the commanded G-code (cyber domain) and monitors the
// acoustic emission (physical domain). Using the trained CGAN's
// conditional distribution, observations that do not match their commanded
// condition raise an alarm: a tampered command stream (integrity) or a
// jammed motor (availability) both betray themselves acoustically.
#include <cstdio>
#include <iostream>
#include <memory>

#include "gansec/am/dataset.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/security/report.hpp"
#include "gansec/security/stream_detector.hpp"

int main() {
  using namespace gansec;

  am::DatasetConfig config;
  config.samples_per_condition = 80;
  config.window_s = 0.25;
  config.bins = 60;
  config.f_max = 5000.0;
  config.acoustic.sample_rate = 16000.0;
  config.seed = 77;
  am::DatasetBuilder builder(config);
  std::cout << "building the defender's reference model...\n";
  const am::LabeledDataset train = builder.build();

  gan::CganTopology topo;
  topo.data_dim = config.bins;
  topo.cond_dim = 3;
  gan::Cgan model(topo, 77);
  gan::TrainConfig train_config;
  train_config.iterations = 1200;
  train_config.batch_size = 48;
  gan::CganTrainer trainer(model, train_config, 77);
  trainer.train(train.features, train.conditions);

  security::DetectorConfig det;
  det.generator_samples = 150;
  det.false_alarm_percentile = 5.0;
  const auto scoring =
      std::make_shared<const security::ScoringModel>(model, det);
  security::AttackInjector injector(builder, 555);

  std::cout << "calibrating the alarm threshold on benign traffic "
               "(target ~5% false alarms)...\n";
  const double threshold = security::calibrate_threshold(
      *scoring, injector.generate(25, 0.0, security::AttackKind::kNone));
  std::printf("threshold: %.3f (mean log-likelihood under the commanded "
              "condition)\n",
              threshold);

  for (const auto kind : {security::AttackKind::kIntegrity,
                          security::AttackKind::kAvailability}) {
    std::printf("\n--- %s attack campaign (50%% of moves attacked) ---\n",
                security::attack_name(kind));
    const auto observations = injector.generate(20, 0.5, kind);
    std::cout << security::format_detection(
        security::evaluate(scoring, threshold, observations));
  }

  std::cout << "\n--- live monitor demo ---\n";
  security::StreamDetectorConfig monitor_config;
  monitor_config.threshold = threshold;
  security::StreamDetector monitor(scoring, monitor_config);
  for (int i = 0; i < 6; ++i) {
    const std::size_t label = static_cast<std::size_t>(i % 3);
    const auto kind = (i % 2 == 0) ? security::AttackKind::kNone
                                   : security::AttackKind::kAvailability;
    const security::Observation obs = injector.make_observation(label, kind);
    const security::WindowVerdict v = monitor.score_window(
        obs.features.data(), obs.features.cols(), obs.expected_label);
    const char* motors[3] = {"X", "Y", "Z"};
    std::printf("commanded motor %s | truth: %-12s | score %8.3f | %s\n",
                motors[label], security::attack_name(kind), v.score,
                v.verdict == security::StreamVerdict::kBenign ? "ok"
                                                               : "ALARM");
  }
  return 0;
}
