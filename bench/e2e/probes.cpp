// Layer probes of a traced run: each layer's public functions called one
// at a time on the calling thread alone, on this run's windows, data and
// model, every call (or batch of calls, for sub-microsecond ones) inside a
// span.
// Probe spans carry a "probe." prefix so they never mix with the spans
// the set-up and the measured phase record.
#include <utility>

#include "gansec/core/execution.hpp"
#include "gansec/math/kernels.hpp"
#include "gansec/security/analyzer.hpp"
#include "gansec/stats/kde.hpp"
#include "gansec_bench.hpp"

namespace gansec::e2e {

namespace {

/// Runs `body` `count` times, each inside a span named `name`; returns the
/// median span in ms.
template <typename Body>
double median_call_ms(SpanRecorder& spans, const char* name,
                      std::size_t count, Body&& body) {
  for (std::size_t i = 0; i < count; ++i) {
    const SpanRecorder::Span span(spans, name);
    body(i);
  }
  return median(spans.durations_ms(name));
}

}  // namespace

double run_layer_probes(const Run& run, Setup& setup) {
  using bench::Direction;
  // One thread: every probe is a per-call cost, even where a call (the
  // GEMM, the network passes, an analysis) would fan out to the pool.
  const core::ScopedExecution one_thread(core::ExecutionConfig{1, false, true});
  SpanRecorder& spans = run.spans;
  Results& out = run.results;
  const std::size_t n = run.options.smoke ? 4 : 16;
  constexpr std::size_t kBatch = 64;  // calls per span for sub-us calls
  const std::size_t bins = setup.builder.binner().size();
  const gan::CganTopology& topology = setup.model.topology();
  const Direction lower = Direction::kLowerIsBetter;

  // am: benign windows from a stream of their own.
  serve::LoadGenConfig traffic;
  traffic.streams = 1;
  traffic.seed = math::split_seed(run.seeds.loadgen, 1000);
  serve::StreamSource source(setup.builder, traffic, 0);
  std::vector<serve::StreamSource::Window> windows;
  out.metric("am.synth_ms",
             median_call_ms(spans, "probe.am.synth", n,
                            [&](std::size_t) {
                              windows.push_back(source.next());
                            }),
             "ms", lower);

  // dsp: the batch CWT the dataset uses, the streaming plan the service
  // uses, and the scaler between CWT and scoring.
  out.metric("dsp.batch_cwt_ms",
             median_call_ms(spans, "probe.dsp.batch_cwt", n / 2,
                            [&](std::size_t i) {
                              setup.builder.raw_features(windows[i].samples);
                            }),
             "ms", lower);
  const dsp::MorletCwt cwt(
      dsp::CwtConfig{setup.builder.config().acoustic.sample_rate, 6.0});
  dsp::CwtWindowPlan plan(cwt, windows.front().samples.size(),
                          setup.builder.binner().centers());
  std::vector<double> energies(bins);
  std::vector<std::vector<float>> raw(n, std::vector<float>(bins));
  std::vector<std::vector<float>> scaled(n, std::vector<float>(bins));
  const double cwt_ms = median_call_ms(
      spans, "probe.dsp.cwt_plan", n, [&](std::size_t i) {
        plan.band_energies_into(windows[i].samples.data(),
                                windows[i].samples.size(), energies.data());
        for (std::size_t c = 0; c < bins; ++c) {
          raw[i][c] = static_cast<float>(energies[c]);
        }
      });
  out.metric("dsp.cwt_plan_ms", cwt_ms, "ms", lower);
  const dsp::MinMaxScaler& scaler = setup.builder.scaler();
  const double scale_us =
      median_call_ms(spans, "probe.dsp.scale", n,
                     [&](std::size_t) {
                       for (std::size_t k = 0; k < kBatch; ++k) {
                         scaler.transform_row_into(raw[k % n].data(), bins,
                                                   scaled[k % n].data());
                       }
                     }) *
      1e3 / kBatch;
  out.metric("dsp.scale_us", scale_us, "us", lower);

  // security + stats: the Parzen scoring model, one window's score, one
  // kernel density evaluation, and a whole Algorithm 3 analysis.
  security::DetectorConfig detector_config;
  detector_config.generator_samples = run.scale.generator_samples;
  std::shared_ptr<const security::ScoringModel> scoring;
  out.metric("security.scoring_model_ms",
             median_call_ms(spans, "probe.security.scoring_model", 3,
                            [&](std::size_t) {
                              scoring =
                                  std::make_shared<security::ScoringModel>(
                                      setup.model, detector_config,
                                      run.seeds.scoring);
                            }),
             "ms", lower);
  security::StreamDetector detector(scoring, setup.detector);
  const double score_us =
      median_call_ms(spans, "probe.security.score_window", n,
                     [&](std::size_t) {
                       for (std::size_t k = 0; k < kBatch; ++k) {
                         detector.score_window(
                             scaled[k % n].data(), bins,
                             windows[k % n].expected_label);
                       }
                     }) *
      1e3 / kBatch;
  out.metric("security.score_window_us", score_us, "us", lower);

  math::Rng rng(run.seeds.scoring);
  math::Matrix condition(1, topology.cond_dim, 0.0F);
  condition(0, 0) = 1.0F;
  std::vector<double> kde_samples;
  const math::Matrix generated = setup.model.generate_for_condition(
      condition, run.scale.generator_samples, rng);
  for (std::size_t r = 0; r < generated.rows(); ++r) {
    kde_samples.push_back(static_cast<double>(generated(r, 0)));
  }
  const stats::ParzenKde kde(std::move(kde_samples), 0.2);
  out.metric("stats.kde_log_density_ns",
             median_call_ms(spans, "probe.stats.kde_log_density", n,
                            [&](std::size_t) {
                              for (std::size_t k = 0; k < kBatch; ++k) {
                                kde.log_density(static_cast<double>(
                                    scaled[k % n][k % bins]));
                              }
                            }) *
                 1e6 / kBatch,
             "ns", lower);
  security::LikelihoodConfig likelihood;
  likelihood.generator_samples = run.scale.generator_samples;
  likelihood.parzen_h = 0.2;
  const security::LikelihoodAnalyzer analyzer(likelihood, run.seeds.analyzer);
  out.metric("security.analyze_ms",
             median_call_ms(spans, "probe.security.analyze", n / 2,
                            [&](std::size_t) {
                              analyzer.analyze(setup.model, setup.test);
                            }),
             "ms", lower);

  // gan + nn + math. Training and the network passes run on a probe model
  // of the same topology, so the run's own model stays as set-up left it.
  out.metric("gan.generate_ms",
             median_call_ms(spans, "probe.gan.generate", n,
                            [&](std::size_t) {
                              setup.model.generate_for_condition(
                                  condition, run.scale.generator_samples, rng);
                            }),
             "ms", lower);
  gan::Cgan probe(topology, math::split_seed(run.seeds.model, 1000));
  gan::CganTrainer trainer(probe, bench::paper_train_config(),
                           math::split_seed(run.seeds.trainer, 1000));
  out.metric("gan.train_step_ms",
             median_call_ms(spans, "probe.gan.train_step", 4 * n,
                            [&](std::size_t) {
                              trainer.train_iterations(
                                  setup.train.features,
                                  setup.train.conditions, 1);
                            }),
             "ms", lower);
  const std::size_t batch = bench::paper_train_config().batch_size;
  const auto time_passes = [&](nn::Mlp& net, std::size_t inputs,
                               const char* forward_span,
                               const char* backward_span,
                               const char* forward_metric,
                               const char* backward_metric) {
    const math::Matrix input = rng.uniform_matrix(batch, inputs, 0.0F, 1.0F);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      SpanRecorder::Span forward(spans, forward_span);
      const math::Matrix& output = net.forward(input, true);
      forward.end();
      const math::Matrix grad(output.rows(), output.cols(), 0.01F);
      const SpanRecorder::Span backward(spans, backward_span);
      net.backward(grad);
    }
    net.zero_grad();
    out.metric(forward_metric, median(spans.durations_ms(forward_span)) * 1e3,
               "us", lower);
    out.metric(backward_metric,
               median(spans.durations_ms(backward_span)) * 1e3, "us", lower);
  };
  time_passes(probe.generator(), topology.noise_dim + topology.cond_dim,
              "probe.nn.g_forward", "probe.nn.g_backward", "nn.g_forward_us",
              "nn.g_backward_us");
  time_passes(probe.discriminator(), topology.data_dim + topology.cond_dim,
              "probe.nn.d_forward", "probe.nn.d_backward", "nn.d_forward_us",
              "nn.d_backward_us");
  const std::size_t hidden = topology.generator_hidden.front();
  const math::Matrix a = rng.uniform_matrix(batch, hidden, -1.0F, 1.0F);
  const math::Matrix b = rng.uniform_matrix(hidden, hidden, -1.0F, 1.0F);
  math::Matrix product(batch, hidden);
  const double gemm_ms =
      median_call_ms(spans, "probe.math.gemm", n, [&](std::size_t) {
        for (std::size_t k = 0; k < kBatch; ++k) {
          math::matmul_into(product, a, b);
        }
      });
  const double flops = 2.0 * static_cast<double>(batch * hidden * hidden) *
                       static_cast<double>(kBatch);
  out.metric("math.gemm_gflops", flops / (gemm_ms * 1e-3) / 1e9, "GFLOP/s",
             Direction::kHigherIsBetter);

  // serve: the ingest call on a service that is not running, so the ring
  // only fills (its capacity holds every probe window). Buffers are
  // copied before each span so only push() is timed.
  constexpr std::size_t kPushes = 16;
  serve::DetectorService::Config config;
  config.streams = 1;
  config.workers = 1;
  config.ring_capacity = n * kPushes;
  config.window_length = windows.front().samples.size();
  config.detector = setup.detector;
  serve::DetectorService service(scoring, setup.builder, config);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::vector<double>> buffers(kPushes, windows[i].samples);
    const SpanRecorder::Span span(spans, "probe.serve.push");
    for (std::vector<double>& buffer : buffers) {
      service.push(0, windows[i].expected_label, std::move(buffer));
    }
  }
  out.metric("serve.push_us",
             median(spans.durations_ms("probe.serve.push")) * 1e3 / kPushes,
             "us", lower);

  return cwt_ms + (scale_us + score_us) / 1e3;
}

}  // namespace gansec::e2e
