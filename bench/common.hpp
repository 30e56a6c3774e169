// Shared experiment setup and artifact reporting for the benchmark
// harness.
//
// Every bench binary reproduces one table or figure of the paper against
// the same "paper-scale" configuration: 100 log-spaced frequency bins in
// 50-5000 Hz, the exclusive [X,Y,Z] condition encoding, and a CGAN trained
// with Algorithm 2. Because dataset synthesis (CWT over hundreds of
// observations) and training dominate the runtime, the trained model,
// datasets and scaler are cached on disk under cache_dir() and shared
// across binaries; delete the directory to force a full rerun. A cache
// written at the other scale (smoke vs full) is rebuilt, not loaded.
//
// Two environment switches make the harness scriptable:
//
//  * GANSEC_BENCH_SMOKE=1   — shrink every paper_*() configuration to a
//    seconds-scale sanity run (the `bench-smoke` ctest label). Smoke
//    numbers are NOT comparable to full-scale numbers; the artifact
//    records which mode produced it.
//  * GANSEC_BENCH_CACHE_DIR / GANSEC_BENCH_OUT — relocate the experiment
//    cache and the BENCH_<name>.json artifacts (default: CWD).
//
// Every binary finishes by writing a BenchReporter artifact: one
// schema-versioned JSON ("gansec.bench.v1") with build/host provenance,
// wall time, named metrics tagged with a regression direction, and named
// pass/fail shape checks. gansec_benchdiff consumes pairs of these.
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gansec/am/dataset.hpp"
#include "gansec/am/trace_io.hpp"
#include "gansec/error.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/obs/json.hpp"
#include "gansec/obs/report.hpp"

namespace gansec::bench {

/// True when GANSEC_BENCH_SMOKE is set to anything but "" or "0".
inline bool smoke() {
  static const bool value = [] {
    const char* env = std::getenv("GANSEC_BENCH_SMOKE");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return value;
}

/// Experiment cache directory (GANSEC_BENCH_CACHE_DIR override). Each
/// parallel smoke test gets its own cache so concurrent first runs never
/// race on the files.
inline const std::string& cache_dir() {
  static const std::string dir = [] {
    const char* env = std::getenv("GANSEC_BENCH_CACHE_DIR");
    return std::string(env != nullptr && env[0] != '\0'
                           ? env
                           : ".gansec-bench-cache");
  }();
  return dir;
}

/// Directory receiving BENCH_<name>.json artifacts (GANSEC_BENCH_OUT
/// override; default CWD).
inline const std::string& out_dir() {
  static const std::string dir = [] {
    const char* env = std::getenv("GANSEC_BENCH_OUT");
    return std::string(env != nullptr && env[0] != '\0' ? env : ".");
  }();
  return dir;
}

/// The case-study configuration used by all table/figure benches. In
/// smoke mode everything shrinks to a seconds-scale run.
inline am::DatasetConfig paper_dataset_config() {
  am::DatasetConfig config;
  config.samples_per_condition = smoke() ? 6 : 150;
  config.window_s = smoke() ? 0.05 : 0.25;
  config.bins = smoke() ? 8 : 100;
  config.f_min = 50.0;
  config.f_max = 5000.0;
  config.acoustic.sample_rate = 16000.0;
  config.seed = 2019;  // DATE 2019
  return config;
}

inline gan::TrainConfig paper_train_config() {
  gan::TrainConfig config;
  config.iterations = smoke() ? 6 : 1500;
  config.batch_size = 48;  // the trainer samples with replacement
  return config;
}

inline gan::CganTopology paper_topology() {
  gan::CganTopology topo;
  topo.data_dim = paper_dataset_config().bins;
  topo.cond_dim = 3;
  topo.noise_dim = 16;
  topo.generator_hidden = smoke() ? std::vector<std::size_t>{32, 32}
                                  : std::vector<std::size_t>{128, 128};
  topo.discriminator_hidden = topo.generator_hidden;
  return topo;
}

struct Experiment {
  am::DatasetBuilder builder;
  am::LabeledDataset train_set;
  am::LabeledDataset test_set;
  gan::Cgan model;

  Experiment()
      : builder(paper_dataset_config()), model(paper_topology(), 2019) {}
};

/// Loads the cached experiment or builds+trains it (and writes the cache).
/// The cache is loaded only when its model topology and scaler width match
/// this scale's paper_topology() and bins.
inline Experiment& experiment() {
  static auto* exp = [] {
    namespace fs = std::filesystem;
    auto* e = new Experiment();
    const fs::path dir(cache_dir());
    const fs::path train_csv = dir / "train.csv";
    const fs::path test_csv = dir / "test.csv";
    const fs::path scaler_txt = dir / "scaler.txt";
    const fs::path model_gsm = dir / "cgan.gsm";
    if (fs::exists(train_csv) && fs::exists(test_csv) &&
        fs::exists(scaler_txt) && fs::exists(model_gsm)) {
      gan::Cgan cached = model::load_cgan_checkpoint_file(model_gsm.string());
      std::ifstream scaler_in(scaler_txt);
      dsp::MinMaxScaler scaler = dsp::MinMaxScaler::load(scaler_in);
      if (cached.topology() == paper_topology() &&
          scaler.mins().size() == paper_dataset_config().bins) {
        std::cerr << "[bench] loading cached experiment from " << dir
                  << "\n";
        e->train_set = am::load_dataset_csv_file(train_csv.string());
        e->test_set = am::load_dataset_csv_file(test_csv.string());
        e->builder.restore_scaler(std::move(scaler));
        e->model = std::move(cached);
        return e;
      }
      std::cerr << "[bench] cache in " << dir
                << " was written at another scale; rebuilding\n";
    }
    std::cerr << "[bench] generating dataset (first run"
              << (smoke() ? ", smoke scale" : ", ~1-2 min") << ")...\n";
    auto [train, test] = e->builder.build_split(0.7);
    e->train_set = std::move(train);
    e->test_set = std::move(test);
    std::cerr << "[bench] training CGAN (Algorithm 2)...\n";
    gan::CganTrainer trainer(e->model, paper_train_config(), 2019);
    trainer.train(e->train_set.features, e->train_set.conditions);
    fs::create_directories(dir);
    am::save_dataset_csv_file(e->train_set, train_csv.string());
    am::save_dataset_csv_file(e->test_set, test_csv.string());
    std::ofstream scaler_out(scaler_txt);
    e->builder.scaler().save(scaler_out);
    model::save_cgan_checkpoint(e->model, model_gsm.string());
    std::cerr << "[bench] cached to " << dir << "\n";
    return e;
  }();
  return *exp;
}

/// Writes a plot-ready data file under the cache directory and reports the
/// path on stderr.
inline void write_series_file(const std::string& filename,
                              const std::string& content) {
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir());
  const fs::path path = fs::path(cache_dir()) / filename;
  std::ofstream os(path);
  os << content;
  std::cerr << "[bench] series written to " << path << "\n";
}

/// How gansec_benchdiff judges a metric's movement between two runs.
enum class Direction {
  kLowerIsBetter,   ///< times, allocation counts — growth is a regression
  kHigherIsBetter,  ///< throughput, accuracy — shrinkage is a regression
  kTwoSided,        ///< reproduced quantities — any drift is a regression
};

inline std::string_view direction_name(Direction direction) {
  switch (direction) {
    case Direction::kLowerIsBetter:
      return "lower_is_better";
    case Direction::kHigherIsBetter:
      return "higher_is_better";
    case Direction::kTwoSided:
      return "two_sided";
  }
  return "two_sided";
}

/// Collects named metrics and shape checks during a bench run and writes
/// the BENCH_<name>.json artifact ("gansec.bench.v1"). The wall clock
/// starts at construction; the JSON is validated before it hits disk so a
/// malformed artifact fails the producing binary, not a later diff.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void add_metric(std::string_view key, double value, Direction direction) {
    metrics_.push_back(
        {std::string(key), value, direction});
  }

  void add_check(std::string_view key, bool pass) {
    checks_.emplace_back(std::string(key), pass);
  }

  std::string to_json() const {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const auto unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    std::string json = "{\"schema\":\"gansec.bench.v1\"";
    json += ",\"name\":\"" + obs::json_escape(name_) + '"';
    json += ",\"smoke\":";
    json += smoke() ? "true" : "false";
    json += ",\"created_unix_ms\":" + std::to_string(unix_ms);
    json += ",\"build\":" + obs::build_info_json(obs::build_info());
    const obs::HostInfo host = obs::host_info();
    json += ",\"host\":{\"hostname\":\"" + obs::json_escape(host.hostname) +
            "\",\"os\":\"" + obs::json_escape(host.os) +
            "\",\"hardware_concurrency\":" +
            std::to_string(host.hardware_concurrency) + '}';
    json += ",\"wall_ms\":" + obs::json_number(wall_ms);
    json += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0) json += ',';
      json += '"' + obs::json_escape(metrics_[i].key) +
              "\":{\"value\":" + obs::json_number(metrics_[i].value) +
              ",\"direction\":\"";
      json += direction_name(metrics_[i].direction);
      json += "\"}";
    }
    json += "},\"checks\":{";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      if (i != 0) json += ',';
      json += '"' + obs::json_escape(checks_[i].first) + "\":";
      json += checks_[i].second ? "true" : "false";
    }
    json += "}}";
    return json;
  }

  /// Writes out_dir()/BENCH_<name>.json (validated) and logs the path.
  void write() const {
    namespace fs = std::filesystem;
    const std::string json = to_json();
    std::string error;
    if (!obs::json_valid(json, &error)) {
      throw InvalidArgumentError("BenchReporter(" + name_ +
                                 "): artifact is not valid JSON: " + error);
    }
    fs::create_directories(out_dir());
    const fs::path path = fs::path(out_dir()) / ("BENCH_" + name_ + ".json");
    std::ofstream os(path);
    if (!os) throw IoError("BenchReporter: cannot open " + path.string());
    os << json << '\n';
    if (!os) throw IoError("BenchReporter: write failed for " + path.string());
    std::cerr << "[bench] artifact written to " << path << "\n";
  }

 private:
  struct Metric {
    std::string key;
    double value;
    Direction direction;
  };

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
};

}  // namespace gansec::bench
