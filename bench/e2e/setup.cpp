// Set-up shared by every workload: Algorithm 1 on the printer
// architecture, dataset synthesis (acoustic simulation + batch CWT), and
// Algorithm 2 training; the serve workloads add the Parzen scoring model,
// its alarm threshold, the traffic pool and the detector service.
#include "gansec/am/printer_arch.hpp"
#include "gansec/cpps/algorithm1.hpp"
#include "gansec/cpps/graph.hpp"
#include "gansec/math/stats.hpp"
#include "gansec_bench.hpp"

namespace gansec::e2e {

namespace {

/// The saturate workload offers integrity attacks (a wrong motor runs),
/// the real-time workload availability attacks (the motor stalls), so the
/// two serve workloads take different verdict branches.
serve::LoadGenConfig traffic_for(const Run& run) {
  serve::LoadGenConfig traffic;
  const bool saturate = run.options.workload == Workload::kServeSaturate;
  traffic.streams = saturate ? 12 : 9;
  traffic.attack_fraction = saturate ? 0.25 : 0.10;
  traffic.attack_kind = saturate ? security::AttackKind::kIntegrity
                                 : security::AttackKind::kAvailability;
  traffic.seed = run.seeds.loadgen;
  return traffic;
}

void build_serve_state(const Run& run, Setup& setup) {
  SpanRecorder& spans = run.spans;
  {
    const SpanRecorder::Span span(spans, "security.scoring_model");
    security::DetectorConfig config;
    config.generator_samples = run.scale.generator_samples;
    setup.scoring = std::make_shared<const security::ScoringModel>(
        setup.model, config, run.seeds.scoring);
    // Alarm threshold: a low percentile of the held-out (benign) rows'
    // scores under their own conditions, as AttackDetector::calibrate does.
    std::vector<double> benign;
    benign.reserve(setup.test.size());
    for (std::size_t i = 0; i < setup.test.size(); ++i) {
      benign.push_back(setup.scoring->score_row(
          setup.test.features.slice_rows(i, i + 1), setup.test.labels[i]));
    }
    setup.detector.threshold =
        math::percentile(std::move(benign), config.false_alarm_percentile);
  }
  {
    const SpanRecorder::Span span(spans, "am.pool_synth");
    const serve::LoadGenConfig traffic = traffic_for(run);
    setup.pool.resize(traffic.streams);
    for (std::size_t s = 0; s < traffic.streams; ++s) {
      serve::StreamSource source(setup.builder, traffic, s);
      for (std::size_t j = 0; j < run.scale.pool_per_stream; ++j) {
        setup.pool[s].push_back(source.next());
      }
    }
  }
  {
    const SpanRecorder::Span span(spans, "serve.service_init");
    serve::DetectorService::Config config;
    config.streams = setup.pool.size();
    config.workers = run.scale.workers;
    // Small rings keep the saturated queue (and so its latency) short
    // while still never letting a shard run dry.
    config.ring_capacity = 8;
    config.window_length = serve::window_sample_count(setup.builder.config());
    config.detector = setup.detector;
    config.keep_results = true;
    config.expected_windows = 2048;
    setup.service = std::make_unique<serve::DetectorService>(
        setup.scoring, setup.builder, config);
  }
}

}  // namespace

std::unique_ptr<Setup> build_setup(const Run& run) {
  SpanRecorder& spans = run.spans;
  am::DatasetConfig dataset = bench::paper_dataset_config();
  dataset.samples_per_condition = run.scale.samples_per_condition;
  dataset.seed = run.seeds.dataset;
  auto setup = std::make_unique<Setup>(dataset, bench::paper_topology(),
                                       run.seeds.model);
  {
    const SpanRecorder::Span span(spans, "cpps.algorithm1");
    const cpps::Architecture arch = am::make_printer_architecture();
    const cpps::CppsGraph graph(arch);
    setup->flow_pairs =
        cpps::select_cross_domain_pairs(
            arch, cpps::generate_flow_pairs(
                      graph, am::make_printer_historical_data()))
            .size();
  }
  {
    const SpanRecorder::Span span(spans, "am.dataset_build");
    auto [train, test] = setup->builder.build_split(0.7);
    setup->train = std::move(train);
    setup->test = std::move(test);
  }
  {
    const SpanRecorder::Span span(spans, "gan.train");
    gan::TrainConfig config = bench::paper_train_config();
    config.iterations = run.scale.setup_iterations;
    setup->trainer = std::make_unique<gan::CganTrainer>(setup->model, config,
                                                        run.seeds.trainer);
    setup->trainer->train(setup->train.features, setup->train.conditions);
  }
  if (run.serve()) build_serve_state(run, *setup);
  return setup;
}

}  // namespace gansec::e2e
