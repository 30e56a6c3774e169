// Shared declarations of gansec_bench, the end-to-end GAN-Sec benchmark.
//
// One process runs one workload: set-up (Algorithm 1, dataset synthesis,
// Algorithm 2 training and, for the serve workloads, the scoring model and
// the traffic pool) repeated Scale::setup_repeats times, then one measured
// phase, then the correctness checks. A traced run adds spans around every
// call into the library and a replay of each layer's public functions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "../common.hpp"
#include "gansec/am/dataset.hpp"
#include "gansec/gan/cgan.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/security/stream_detector.hpp"
#include "gansec/serve/loadgen.hpp"
#include "gansec/serve/service.hpp"
#include "spans.hpp"

namespace gansec::e2e {

enum class Workload { kServeSaturate, kServeRealtime, kOffline };

const char* workload_name(Workload workload);

struct Options {
  Workload workload = Workload::kServeSaturate;
  std::uint64_t seed = 2019;
  double seconds = 30.0;   ///< length of the measured phase
  std::string trace_path;  ///< chrome-trace output; empty = untraced run
  std::string out_dir = ".";
  bool smoke = false;
};

/// Sizes of one run. Feature path and network shapes come from the
/// paper_*() configuration in bench/common.hpp; the data and training
/// budgets are cut so that three set-ups and a 30 s measured phase fit in
/// one run.
struct Scale {
  std::size_t samples_per_condition = 16;
  std::size_t setup_iterations = 150;  ///< Algorithm 2 iterations in set-up
  std::size_t setup_repeats = 3;
  std::size_t generator_samples = 200;  ///< GSize (detector and Algorithm 3)
  std::size_t pool_per_stream = 8;      ///< distinct windows per stream
  std::size_t workers = 3;              ///< DetectorService shards
  double warmup_s = 1.0;
  std::size_t segments = 6;  ///< saturate throughput segments
  std::size_t trials = 12;   ///< real-time phase draws in the measured phase
  /// Offline iterations per analysis; divides 1500 − setup_iterations, so
  /// a chunk ends exactly at the paper's iteration count.
  std::size_t chunk_iterations = 10;
};

Scale make_scale(const Options& options);

/// Every random stream of a run, derived from --seed.
struct Seeds {
  std::uint64_t dataset = 0;
  std::uint64_t model = 0;
  std::uint64_t trainer = 0;
  std::uint64_t scoring = 0;
  std::uint64_t analyzer = 0;
  std::uint64_t loadgen = 0;
  std::uint64_t arrivals = 0;
};

Seeds make_seeds(std::uint64_t seed);

/// Metrics and checks of one run. Metrics print as `name value unit` on
/// stdout and go into the gansec.bench.v1 artifact; a failed check is
/// reported on stderr and makes the run incorrect.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              bench::Direction direction);
  void check(const std::string& name, bool pass);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const;

  /// Prints every metric line plus attempted/failed/correct.
  void print() const;
  void fill(bench::BenchReporter& reporter) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bench::Direction direction;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Run {
  Options options;
  Scale scale;
  Seeds seeds;
  SpanRecorder& spans;
  Results& results;

  bool serve() const { return options.workload != Workload::kOffline; }
};

/// Everything the measured phase needs. Built Scale::setup_repeats times
/// per run; each build is timed as one set-up.
struct Setup {
  Setup(const am::DatasetConfig& dataset, const gan::CganTopology& topology,
        std::uint64_t model_seed)
      : builder(dataset), model(topology, model_seed) {}

  am::DatasetBuilder builder;
  am::LabeledDataset train;
  am::LabeledDataset test;
  gan::Cgan model;
  std::unique_ptr<gan::CganTrainer> trainer;  ///< borrows `model`
  std::size_t flow_pairs = 0;

  // Serve workloads only.
  std::shared_ptr<const security::ScoringModel> scoring;
  security::StreamDetectorConfig detector;  ///< calibrated threshold
  std::vector<std::vector<serve::StreamSource::Window>> pool;  ///< [stream]
  std::unique_ptr<serve::DetectorService> service;
};

std::unique_ptr<Setup> build_setup(const Run& run);

/// Traced runs only: times each layer's public functions one call at a
/// time, on one thread (ExecutionConfig threads = 1, so no call fans out to
/// the pool), on this run's data and model, and records the
/// per-layer metrics. Returns the replayed cost (ms) of one served window's
/// compute: CWT plan + scaling + scoring.
double run_layer_probes(const Run& run, Setup& setup);

/// The measured phases. Each records its end-to-end metrics and checks.
/// `stage_ms` (traced runs) splits served latency into compute and wait.
void run_serve(const Run& run, Setup& setup, std::optional<double> stage_ms);
void run_offline(const Run& run, Setup& setup);

double median(std::vector<double> xs);

}  // namespace gansec::e2e
