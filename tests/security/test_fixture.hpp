// Shared trained-model fixture for the security test binary.
//
// Training a CGAN is the expensive part of these tests, so one small model
// is trained and shared. ctest runs every test in its own process, so the
// `security_fixture_model` setup test trains it once per ctest run and
// writes it as a gansec.model.v1 file; each test process loads that file
// when GANSEC_SECURITY_MODEL names it. The binary run on its own trains the
// model in-process instead, once, lazily.
#pragma once

#include <cstdlib>
#include <memory>
#include <utility>

#include "gansec/am/dataset.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/model/serialize.hpp"

namespace gansec::security::testing {

struct TrainedSetup {
  am::DatasetConfig dataset_config;
  am::DatasetBuilder builder;
  am::LabeledDataset train_set;
  am::LabeledDataset test_set;
  gan::Cgan model;
};

inline am::DatasetConfig small_dataset_config() {
  am::DatasetConfig config;
  config.samples_per_condition = 40;
  config.window_s = 0.15;
  config.bins = 24;
  config.f_max = 4000.0;
  config.acoustic.sample_rate = 12000.0;
  config.seed = 11;
  return config;
}

/// The dataset split plus the fixture CGAN as initialized, before training.
inline std::unique_ptr<TrainedSetup> untrained_setup() {
  const am::DatasetConfig config = small_dataset_config();
  auto s = std::unique_ptr<TrainedSetup>(new TrainedSetup{
      config, am::DatasetBuilder(config), {}, {},
      gan::Cgan(
          gan::CganTopology{config.bins, 3, 8, {64, 64}, {64, 64}, 0.2F,
                            0.0F},
          5)});
  auto [train, test] = s->builder.build_split(0.7);
  s->train_set = std::move(train);
  s->test_set = std::move(test);
  return s;
}

/// Trains the setup's CGAN in place for 800 iterations on its train split.
inline void train_fixture_model(TrainedSetup& s) {
  gan::TrainConfig train_config;
  train_config.iterations = 800;
  train_config.batch_size = 32;
  gan::CganTrainer trainer(s.model, train_config, 21);
  trainer.train(s.train_set.features, s.train_set.conditions);
}

/// Lazily built singleton: dataset + the trained CGAN, loaded from
/// GANSEC_SECURITY_MODEL when set, trained in-process otherwise.
inline TrainedSetup& trained_setup() {
  static TrainedSetup* setup = [] {
    TrainedSetup* s = untrained_setup().release();
    const char* shared = std::getenv("GANSEC_SECURITY_MODEL");
    if (shared != nullptr && *shared != '\0') {
      s->model = model::load_cgan_checkpoint_file(shared);
    } else {
      train_fixture_model(*s);
    }
    return s;
  }();
  return *setup;
}

}  // namespace gansec::security::testing
