// gansec — command-line front end for the GAN-Sec methodology.
//
// Subcommands:
//   graph                        print G_CPPS, Algorithm 1 pairs and DOT
//   train   --model out.gsm      build dataset, train CGAN, save model
//   analyze --model m.gsm        Algorithm 3 + confidentiality on test data
//   detect  --model m.gsm        calibrate + evaluate the attack detector
//   sweep                        one CGAN per Algorithm 1 flow pair
//
// Models are gansec.model.v1 checkpoints (DESIGN.md §10) whatever the
// file extension; the default is gansec-model.gsm.
//
// Common training/dataset flags: --samples N (per condition), --bins N,
// --window S, --iterations N, --seed N, --h W (Parzen width).
//
// Observability flags (all commands): --log-level L, --log-json,
// --trace-out trace.json, --metrics-out metrics.json,
// --report-out run.json (schema-versioned run report; implies tracing),
// --progress S (one progress log line every S seconds). Logs go to
// stderr; result output stays on stdout, byte-identical at any thread
// count. An atexit + SIGINT/SIGTERM flusher writes the trace/metrics
// artifacts even when a run dies early.
//
// Live introspection flags: --expose PORT (OpenMetrics on 127.0.0.1 +
// /proc resource telemetry), --profile out.folded --profile-hz N
// (sampling CPU profiler; collapsed stacks + gansec.profile.v1 JSON).
// See DESIGN.md "Live introspection".
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gansec/am/printer_arch.hpp"
#include "gansec/core/args.hpp"
#include "gansec/core/execution.hpp"
#include "gansec/core/pipeline.hpp"
#include "gansec/cpps/dot.hpp"
#include "gansec/error.hpp"
#include "gansec/model/registry.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/obs/http.hpp"
#include "gansec/obs/incident.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/proc_stats.hpp"
#include "gansec/obs/prof.hpp"
#include "gansec/obs/report.hpp"
#include "gansec/obs/trace.hpp"
#include "gansec/math/stats.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/security/report.hpp"
#include "gansec/security/stream_detector.hpp"
#include "gansec/serve/loadgen.hpp"
#include "gansec/serve/service.hpp"
#include "gansec/version.hpp"

namespace {

using namespace gansec;

const std::set<std::string> kFlags = {
    "model", "registry", "samples", "bins", "window", "iterations", "seed",
    "h", "scaler", "attack-fraction", "threads", "log-level", "trace-out",
    "metrics-out", "report-out", "progress", "expose", "profile",
    "profile-hz", "streams", "windows", "workers", "ring", "rate",
    "attack-kind", "availability-floor", "calibrate", "swap-registry",
    "swap-interval", "incident-out"};

const std::set<std::string> kBoolFlags = {"log-json", "incident-dump"};

constexpr const char* kDefaultModelPath = "gansec-model.gsm";

core::PipelineConfig config_from(const core::Args& args);

// Installs the observability knobs before the command runs. The log level
// flag overrides GANSEC_LOG_LEVEL only when present, so the env default
// still works for flagless runs. --report-out implies tracing (phase
// wall-clock comes from the span recorder). When any artifact path is
// given, an atexit + SIGINT/SIGTERM flusher is armed so a run that dies
// early still leaves its trace/metrics files behind.
void apply_observability(const core::Args& args) {
  if (args.has("log-level")) {
    obs::set_log_level(obs::parse_log_level(args.get("log-level", "info")));
  }
  if (args.get_bool("log-json", false)) {
    obs::set_log_sink(std::make_shared<obs::JsonLinesSink>(std::clog));
  }
  if (args.has("trace-out") || args.has("report-out")) {
    obs::set_tracing(true);
  }
  const std::string trace_path = args.get("trace-out", "");
  const std::string metrics_path = args.get("metrics-out", "");
  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::register_artifact_flush({trace_path, metrics_path});
  }
  // The flight recorder is always on; arm the crash-dump side of it so a
  // fatal fault leaves a black-box bundle behind. --incident-out "" opts
  // out; --incident-out PATH moves it.
  const std::string incident_path =
      args.get("incident-out", "gansec-incident.json");
  if (!incident_path.empty()) {
    obs::incident::arm(incident_path);
    obs::register_fatal_signal_dump();
  }
}

// Writes the trace / metrics artifacts after the command finishes. The
// flush claim comes FIRST: whoever wins the atomic claim (this normal
// path, atexit, or a signal handler) is the only writer, so a SIGINT
// landing mid-write here can no longer produce a second flush on the
// way out (and vice versa).
void finish_observability(const core::Args& args) {
  if (args.get_bool("incident-dump", false)) {
    const std::string path =
        obs::incident::write_bundle("cli", "--incident-dump");
    GANSEC_LOG_INFO("incident.written", {"path", path});
  }
  const std::string trace_path = args.get("trace-out", "");
  const std::string metrics_path = args.get("metrics-out", "");
  if (trace_path.empty() && metrics_path.empty()) return;
  if (!obs::claim_artifact_flush()) return;  // a signal path already wrote
  if (!trace_path.empty()) {
    obs::write_chrome_trace_file(trace_path);
    GANSEC_LOG_INFO("trace.written", {"path", trace_path},
                    {"events", obs::trace_events().size()});
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_json_file(metrics_path);
    GANSEC_LOG_INFO("metrics.written", {"path", metrics_path});
  }
}

// Live introspection (--expose / --profile / --profile-hz): the metrics
// server and resource sampler run for the whole command; the profiler is
// stopped and its artifacts written in finish().
struct LiveIntrospection {
  std::unique_ptr<obs::MetricsServer> server;
  std::unique_ptr<obs::ResourceSampler> sampler;
  std::string profile_path;

  void start(const core::Args& args) {
    if (args.has("expose")) {
      obs::MetricsServer::Config config;
      config.port = static_cast<std::uint16_t>(args.get_int("expose", 0));
      server = std::make_unique<obs::MetricsServer>(config);
      GANSEC_LOG_INFO("obs.expose.listening",
                      {"address", config.bind_address},
                      {"port", static_cast<unsigned>(server->port())});
      sampler = std::make_unique<obs::ResourceSampler>(
          obs::ResourceSampler::Config{});
      sampler->start();
    }
    profile_path = args.get("profile", "");
    if (!profile_path.empty()) {
      obs::prof::ProfileConfig config;
      config.hz = args.get_double("profile-hz", 99.0);
      obs::prof::SamplingProfiler::instance().start(config);
      GANSEC_LOG_INFO("prof.started", {"hz", config.hz},
                      {"out", profile_path});
    }
  }

  void finish() {
    auto& profiler = obs::prof::SamplingProfiler::instance();
    if (!profile_path.empty() && profiler.running()) {
      const obs::prof::ProfileReport report = profiler.stop();
      obs::prof::write_profile_files(report, profile_path,
                                     profile_path + ".json");
      GANSEC_LOG_INFO("prof.written", {"path", profile_path},
                      {"samples", report.samples},
                      {"symbolized_fraction", report.symbolized_fraction});
      profile_path.clear();
    }
    if (sampler != nullptr) {
      sampler->stop();
      sampler.reset();
    }
    server.reset();
  }
};

// Echoes the shared dataset/training flags into the report; commands with
// a pipeline instead call GanSecPipeline::describe() for the full set.
void describe_common_config(const core::Args& args, obs::RunReport& report) {
  const core::PipelineConfig config = config_from(args);
  report.add_config("samples_per_condition",
                    static_cast<std::uint64_t>(
                        config.dataset.samples_per_condition));
  report.add_config("bins",
                    static_cast<std::uint64_t>(config.dataset.bins));
  report.add_config("window_s", config.dataset.window_s);
  report.add_config("parzen_h", config.likelihood.parzen_h);
  report.add_seed("dataset", config.dataset.seed);
}

core::PipelineConfig config_from(const core::Args& args) {
  core::PipelineConfig config;
  // 0 = auto (hardware concurrency); results are thread-count-invariant,
  // see the determinism contract in DESIGN.md "Parallel execution".
  const int threads = args.get_int("threads", 0);
  if (threads < 0) {
    throw InvalidArgumentError("--threads must be >= 0, got " +
                               std::to_string(threads));
  }
  config.execution.threads = static_cast<std::size_t>(threads);
  config.dataset.samples_per_condition =
      static_cast<std::size_t>(args.get_int("samples", 100));
  config.dataset.bins = static_cast<std::size_t>(args.get_int("bins", 100));
  config.dataset.window_s = args.get_double("window", 0.25);
  config.dataset.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2019));
  config.train.iterations =
      static_cast<std::size_t>(args.get_int("iterations", 1500));
  config.likelihood.parzen_h = args.get_double("h", 0.2);
  config.seed = config.dataset.seed;
  return config;
}

int cmd_graph(obs::RunReport* report) {
  const cpps::Architecture arch = am::make_printer_architecture();
  const cpps::CppsGraph graph(arch);
  const auto pairs = cpps::select_cross_domain_pairs(
      arch,
      cpps::generate_flow_pairs(graph, am::make_printer_historical_data()));
  if (report != nullptr) {
    report->add_result("components",
                       static_cast<double>(arch.components().size()));
    report->add_result("flows", static_cast<double>(arch.flows().size()));
    report->add_result("cross_domain_pairs",
                       static_cast<double>(pairs.size()));
  }
  std::cout << "architecture: " << arch.name() << " ("
            << arch.components().size() << " components, "
            << arch.flows().size() << " flows)\n";
  std::cout << "feedback flows removed:";
  for (const auto& f : graph.removed_feedback_flows()) std::cout << ' ' << f;
  std::cout << "\ncross-domain flow pairs:\n";
  for (const auto& p : pairs) {
    std::cout << "  Pr(" << p.second << " | " << p.first << ")\n";
  }
  std::cout << "\n" << cpps::to_dot(graph);
  return 0;
}

int cmd_train(const core::Args& args, obs::RunReport* report) {
  const std::string model_path = args.get("model", kDefaultModelPath);
  const std::string scaler_path = args.get("scaler", model_path + ".scaler");
  core::GanSecPipeline pipeline(config_from(args));
  GANSEC_LOG_INFO("cli.train.start", {"model", model_path},
                  {"note", "dataset is generated first"});
  core::PipelineResult result = pipeline.run();
  if (report != nullptr) {
    pipeline.describe(*report);
    report->add_config("model", model_path);
    report->add_result("g_loss_final", result.history.back().g_loss);
    report->add_result("d_loss_final", result.history.back().d_loss);
    report->add_result_json("likelihood",
                            security::likelihood_to_json(result.likelihood));
    report->add_result("attacker_accuracy",
                       result.confidentiality.attacker_accuracy);
  }
  model::save_cgan_checkpoint(result.model, model_path);
  {
    std::ofstream os(scaler_path);
    if (!os) throw IoError("cannot write scaler to " + scaler_path);
    pipeline.builder().scaler().save(os);
  }
  std::cout << "model written to " << model_path << "\n";
  std::cout << "scaler written to " << scaler_path << "\n";
  std::cout << "\ntraining summary (last iteration): g_loss="
            << result.history.back().g_loss
            << " d_loss=" << result.history.back().d_loss << "\n";
  std::cout << "\n"
            << security::format_likelihood_summary(result.likelihood);
  return 0;
}

int cmd_analyze(const core::Args& args, obs::RunReport* report) {
  const std::string model_path = args.get("model", kDefaultModelPath);
  gan::Cgan model = model::load_cgan_checkpoint_file(model_path);
  core::PipelineConfig config = config_from(args);
  // analyze/detect run outside GanSecPipeline::run(), so install the
  // execution knobs (--threads) for the analyzers here.
  const core::ScopedExecution scoped(config.execution);
  config.dataset.bins = model.topology().data_dim;
  config.dataset.seed += 1;  // fresh test data, not the training draw
  am::DatasetBuilder builder(config.dataset);
  GANSEC_LOG_INFO("cli.analyze.start", {"model", model_path},
                  {"note", "generating held-out test data"});
  const am::LabeledDataset test = builder.build();

  security::LikelihoodConfig lik;
  lik.parzen_h = args.get_double("h", 0.2);
  const security::LikelihoodAnalyzer analyzer(lik);
  const security::LikelihoodResult likelihood = analyzer.analyze(model, test);
  std::cout << security::format_likelihood_summary(likelihood);
  const security::ConfidentialityAnalyzer conf_analyzer;
  const security::ConfidentialityReport conf =
      conf_analyzer.analyze(model, test);
  std::cout << "\n" << security::format_confidentiality(conf);
  if (report != nullptr) {
    describe_common_config(args, *report);
    report->add_config("model", model_path);
    report->add_result_json("likelihood",
                            security::likelihood_to_json(likelihood));
    report->add_result("attacker_accuracy", conf.attacker_accuracy);
    report->add_result("mean_mi", conf.mean_mi);
    report->add_result("max_mi", conf.max_mi);
  }
  return 0;
}

int cmd_detect(const core::Args& args, obs::RunReport* report) {
  const std::string model_path = args.get("model", kDefaultModelPath);
  const std::string scaler_path = args.get("scaler", model_path + ".scaler");
  gan::Cgan model = model::load_cgan_checkpoint_file(model_path);
  core::PipelineConfig config = config_from(args);
  const core::ScopedExecution scoped(config.execution);
  config.dataset.bins = model.topology().data_dim;
  am::DatasetBuilder builder(config.dataset);
  // The detector must scale observations exactly as the training run did;
  // a refitted scaler shifts the features relative to the generator's
  // learned distribution. Load the scaler persisted by `train`, falling
  // back to refitting only when it is absent.
  if (std::ifstream scaler_in(scaler_path); scaler_in) {
    builder.restore_scaler(dsp::MinMaxScaler::load(scaler_in));
    GANSEC_LOG_INFO("cli.detect.scaler_loaded", {"path", scaler_path});
  } else {
    GANSEC_LOG_WARN("cli.detect.scaler_missing", {"path", scaler_path},
                    {"note", "refitting; detection quality may degrade"});
    builder.build();
  }

  const auto scoring = std::make_shared<const security::ScoringModel>(
      model, security::DetectorConfig{});
  security::AttackInjector injector(builder);
  const double threshold = security::calibrate_threshold(
      *scoring, injector.generate(25, 0.0, security::AttackKind::kNone));
  const double fraction = args.get_double("attack-fraction", 0.5);
  if (report != nullptr) {
    describe_common_config(args, *report);
    report->add_config("model", model_path);
    report->add_config("attack_fraction", fraction);
  }
  for (const auto kind : {security::AttackKind::kIntegrity,
                          security::AttackKind::kAvailability}) {
    const security::DetectionReport detection = security::evaluate(
        scoring, threshold, injector.generate(20, fraction, kind));
    std::cout << "\n" << security::attack_name(kind) << " attacks:\n"
              << security::format_detection(detection);
    if (report != nullptr) {
      const std::string prefix =
          std::string("detect.") + security::attack_name(kind);
      report->add_result(prefix + ".accuracy", detection.accuracy);
      report->add_result(prefix + ".auc", detection.auc);
      report->add_result(prefix + ".tpr", detection.true_positive_rate);
      report->add_result(prefix + ".fpr", detection.false_positive_rate);
    }
  }
  return 0;
}

security::AttackKind parse_attack_kind(const std::string& name) {
  if (name == "integrity") return security::AttackKind::kIntegrity;
  if (name == "availability") return security::AttackKind::kAvailability;
  throw InvalidArgumentError(
      "--attack-kind must be integrity or availability, got " + name);
}

serve::LoadGenConfig loadgen_config_from(const core::Args& args,
                                         std::uint64_t seed) {
  serve::LoadGenConfig lg;
  lg.streams = static_cast<std::size_t>(args.get_int("streams", 4));
  lg.windows_per_stream =
      static_cast<std::size_t>(args.get_int("windows", 32));
  lg.rate_per_stream = args.get_double("rate", 0.0);
  lg.attack_fraction = args.get_double("attack-fraction", 0.0);
  lg.attack_kind = parse_attack_kind(args.get("attack-kind", "integrity"));
  lg.seed = seed;
  if (lg.streams == 0 || lg.windows_per_stream == 0) {
    throw InvalidArgumentError(
        "--streams and --windows must both be positive");
  }
  return lg;
}

// `gansec loadgen`: synthesize the serve traffic without scoring it —
// prints one deterministic FNV-1a fingerprint per stream (byte-identical
// across runs and machines for the same flags) plus the synthesis rate.
int cmd_loadgen(const core::Args& args, obs::RunReport* report) {
  core::PipelineConfig config = config_from(args);
  am::DatasetBuilder builder(config.dataset);
  const serve::LoadGenConfig lg =
      loadgen_config_from(args, config.dataset.seed);
  std::cout << "loadgen: " << lg.streams << " streams x "
            << lg.windows_per_stream << " windows ("
            << serve::window_sample_count(config.dataset)
            << " samples/window, attack_fraction=" << lg.attack_fraction
            << ")\n";
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t attacks = 0;
  for (std::size_t s = 0; s < lg.streams; ++s) {
    serve::StreamSource source(builder, lg, s);
    const std::uint64_t checksum =
        serve::stream_checksum(source, lg.windows_per_stream);
    attacks += source.attacks_injected();
    std::printf("stream %3zu  fnv1a=%016llx  attacks=%llu\n", s,
                static_cast<unsigned long long>(checksum),
                static_cast<unsigned long long>(source.attacks_injected()));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto total = lg.streams * lg.windows_per_stream;
  GANSEC_LOG_INFO("cli.loadgen.done", {"windows", total},
                  {"wall_s", wall_s},
                  {"windows_per_s",
                   wall_s > 0.0 ? static_cast<double>(total) / wall_s : 0.0});
  if (report != nullptr) {
    describe_common_config(args, *report);
    report->add_result("windows", static_cast<double>(total));
    report->add_result("attacks_injected", static_cast<double>(attacks));
    report->add_result("synthesis_windows_per_s",
                       wall_s > 0.0 ? static_cast<double>(total) / wall_s
                                    : 0.0);
  }
  return 0;
}

// `gansec serve`: the online monitor. N synthetic printers push acoustic
// windows into per-stream rings; a sharded worker pool scores each window
// through the shared ScoringModel and emits integrity / availability
// verdicts. --rate R paces each stream at R windows/s with drop-oldest
// backpressure; --rate 0 runs lossless at full speed. --swap-registry DIR
// polls a ModelRegistry and hot-swaps the newest generation in between
// windows.
int cmd_serve(const core::Args& args, obs::RunReport* report) {
  const std::string model_path = args.get("model", kDefaultModelPath);
  const std::string scaler_path = args.get("scaler", model_path + ".scaler");
  gan::Cgan model = model::load_cgan_checkpoint_file(model_path);
  core::PipelineConfig config = config_from(args);
  const core::ScopedExecution scoped(config.execution);
  config.dataset.bins = model.topology().data_dim;
  am::DatasetBuilder builder(config.dataset);
  if (std::ifstream scaler_in(scaler_path); scaler_in) {
    builder.restore_scaler(dsp::MinMaxScaler::load(scaler_in));
    GANSEC_LOG_INFO("cli.serve.scaler_loaded", {"path", scaler_path});
  } else {
    GANSEC_LOG_WARN("cli.serve.scaler_missing", {"path", scaler_path},
                    {"note", "refitting; detection quality may degrade"});
    builder.build();
  }

  // The shared immutable scoring model — the very same estimators
  // `detect` builds (same sampling sequence).
  security::DetectorConfig detector_config;
  auto scoring = std::make_shared<const security::ScoringModel>(
      model, detector_config);

  // Calibrate the alarm threshold on benign injector windows, exactly as
  // `detect` does.
  const auto calibrate_n =
      static_cast<std::size_t>(args.get_int("calibrate", 25));
  security::AttackInjector injector(builder);
  security::StreamDetectorConfig detector;
  detector.threshold = security::calibrate_threshold(
      *scoring,
      injector.generate(calibrate_n, 0.0, security::AttackKind::kNone));
  detector.availability_floor = args.get_double("availability-floor", 0.05);

  const serve::LoadGenConfig lg =
      loadgen_config_from(args, config.dataset.seed);
  serve::DetectorService::Config service_config;
  service_config.streams = lg.streams;
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 0));
  service_config.workers =
      workers > 0 ? workers
                  : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  service_config.ring_capacity =
      static_cast<std::size_t>(args.get_int("ring", 64));
  service_config.window_length = serve::window_sample_count(config.dataset);
  service_config.detector = detector;
  service_config.keep_results = true;
  service_config.expected_windows = lg.windows_per_stream;

  serve::DetectorService service(scoring, builder, service_config);

  // Optional hot-swap loop: poll the registry; whenever a newer generation
  // appears, rebuild the scoring model from it and install it live.
  std::atomic<bool> poll_stop{false};
  std::thread poller;
  if (args.has("swap-registry")) {
    const std::string dir = args.get("swap-registry", "");
    const double interval_s = args.get_double("swap-interval", 1.0);
    poller = std::thread([&service, &poll_stop, dir, interval_s,
                          detector_config] {
      std::uint64_t seen = 0;
      while (!poll_stop.load(std::memory_order_acquire)) {
        try {
          model::ModelRegistry registry(dir);
          std::uint64_t newest = 0;
          cpps::FlowPair pair;
          for (const auto& entry : registry.entries()) {
            if (entry.generation >= newest) {
              newest = entry.generation;
              pair = entry.pair;
            }
          }
          if (newest > seen) {
            gan::Cgan swapped = registry.load_latest(pair);
            service.install_model(
                std::make_shared<const security::ScoringModel>(
                    swapped, detector_config));
            seen = newest;
          }
        } catch (const gansec::Error& e) {
          GANSEC_LOG_WARN("cli.serve.swap_failed", {"what", e.what()});
        }
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(interval_s));
        while (!poll_stop.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  std::cout << "online monitor: " << lg.streams << " streams x "
            << lg.windows_per_stream << " windows, "
            << service_config.workers << " workers, ring "
            << service_config.ring_capacity << ", "
            << (lg.rate_per_stream > 0.0
                    ? std::to_string(lg.rate_per_stream) + " windows/s"
                    : std::string("full rate (lossless)"))
            << "\nthreshold=" << detector.threshold
            << " availability_floor=" << detector.availability_floor << "\n";

  service.start();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> injected(lg.streams, 0);
  std::vector<std::thread> producers;
  producers.reserve(lg.streams);
  for (std::size_t s = 0; s < lg.streams; ++s) {
    producers.emplace_back([&service, &builder, &lg, &injected, s] {
      try {
        serve::StreamSource source(builder, lg, s);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t j = 0; j < lg.windows_per_stream; ++j) {
          if (lg.rate_per_stream > 0.0) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(j) /
                                lg.rate_per_stream)));
          }
          serve::StreamSource::Window w =
              source.next(service.acquire_buffer(s));
          if (lg.rate_per_stream > 0.0) {
            service.push(s, w.expected_label, std::move(w.samples));
          } else {
            service.push_blocking(s, w.expected_label,
                                  std::move(w.samples));
          }
        }
        injected[s] = source.attacks_injected();
      } catch (const gansec::Error& e) {
        GANSEC_LOG_ERROR("cli.serve.producer_failed", {"stream", s},
                         {"what", e.what()});
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.stop();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  poll_stop.store(true, std::memory_order_release);
  if (poller.joinable()) poller.join();

  std::printf(
      "\nstream   scored  dropped   benign    integ    avail injected  "
      "p50_us    p95_us    p99_us\n");
  std::uint64_t scored = 0;
  std::uint64_t dropped = 0;
  std::uint64_t alarms = 0;
  for (std::size_t s = 0; s < lg.streams; ++s) {
    const serve::StreamTotals totals = service.totals(s);
    scored += totals.scored;
    dropped += totals.dropped;
    alarms += totals.integrity + totals.availability;
    std::vector<double> latencies;
    latencies.reserve(service.results(s).size());
    for (const serve::WindowResult& r : service.results(s)) {
      latencies.push_back(r.latency_us);
    }
    const double p50 =
        latencies.empty() ? 0.0 : math::percentile(latencies, 50.0);
    const double p95 =
        latencies.empty() ? 0.0 : math::percentile(latencies, 95.0);
    const double p99 =
        latencies.empty() ? 0.0 : math::percentile(latencies, 99.0);
    std::printf(
        "%6zu %8llu %8llu %8llu %8llu %8llu %8llu %9.0f %9.0f %9.0f\n", s,
        static_cast<unsigned long long>(totals.scored),
        static_cast<unsigned long long>(totals.dropped),
        static_cast<unsigned long long>(totals.benign),
        static_cast<unsigned long long>(totals.integrity),
        static_cast<unsigned long long>(totals.availability),
        static_cast<unsigned long long>(injected[s]), p50, p95, p99);
  }
  const double windows_per_s =
      wall_s > 0.0 ? static_cast<double>(scored) / wall_s : 0.0;
  std::printf("total: %llu scored, %llu dropped, %.1f windows/s, %llu "
              "alarms, %llu model swaps\n",
              static_cast<unsigned long long>(scored),
              static_cast<unsigned long long>(dropped), windows_per_s,
              static_cast<unsigned long long>(alarms),
              static_cast<unsigned long long>(service.model_generation()));

  if (report != nullptr) {
    describe_common_config(args, *report);
    report->add_config("model", model_path);
    report->add_config("streams", static_cast<std::uint64_t>(lg.streams));
    report->add_config("workers",
                       static_cast<std::uint64_t>(service_config.workers));
    report->add_result("threshold", detector.threshold);
    report->add_result("windows_scored", static_cast<double>(scored));
    report->add_result("windows_dropped", static_cast<double>(dropped));
    report->add_result("windows_per_s", windows_per_s);
    report->add_result("alarms", static_cast<double>(alarms));
    report->add_result("model_swaps",
                       static_cast<double>(service.model_generation()));
  }
  return 0;
}

int cmd_sweep(const core::Args& args, obs::RunReport* report) {
  core::GanSecPipeline pipeline(config_from(args));
  const core::FlowPairSweep sweep = pipeline.run_flow_pairs();
  if (args.has("registry")) {
    model::ModelRegistry registry(args.get("registry", ""));
    const auto entries = core::GanSecPipeline::save_sweep(sweep, registry);
    for (const auto& e : entries) {
      std::cout << "stored " << e.file << " (generation " << e.generation
                << ")\n";
    }
    GANSEC_LOG_INFO("cli.sweep.registry",
                    {"dir", registry.directory().string()},
                    {"models", entries.size()});
  }
  if (report != nullptr) {
    pipeline.describe(*report);
    report->add_result("pairs",
                       static_cast<double>(sweep.outcomes.size()));
    report->add_result("most_leaky_pair",
                       static_cast<double>(sweep.most_leaky_pair()));
    for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
      const security::LikelihoodResult& lik = sweep.outcomes[i].likelihood;
      double margin = 0.0;
      for (std::size_t c = 0; c < lik.condition_count(); ++c) {
        margin += lik.mean_correct(c) - lik.mean_incorrect(c);
      }
      margin /= static_cast<double>(lik.condition_count());
      report->add_result("pair." + std::to_string(i) + ".margin", margin);
    }
  }
  std::cout << "flow-pair sweep: " << sweep.outcomes.size()
            << " cross-domain pairs, one CGAN each\n";
  std::cout << "pair  margin      Pr(F_j | F_i)\n";
  for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
    const core::FlowPairOutcome& out = sweep.outcomes[i];
    const security::LikelihoodResult& lik = out.likelihood;
    double margin = 0.0;
    for (std::size_t c = 0; c < lik.condition_count(); ++c) {
      margin += lik.mean_correct(c) - lik.mean_incorrect(c);
    }
    margin /= static_cast<double>(lik.condition_count());
    std::printf("%4zu  %+.6f   Pr(%s | %s)\n", i, margin,
                out.pair.second.c_str(), out.pair.first.c_str());
  }
  const std::size_t leaky = sweep.most_leaky_pair();
  std::cout << "most leaky pair: #" << leaky << " Pr("
            << sweep.outcomes[leaky].pair.second << " | "
            << sweep.outcomes[leaky].pair.first << ")\n";
  return 0;
}

int usage() {
  std::cout << "gansec " << kVersionString
            << " — CGAN-based CPPS security analysis\n"
               "usage: gansec "
               "<graph|train|analyze|detect|sweep|serve|loadgen> [flags]\n"
               "  graph                     print G_CPPS + flow pairs + DOT\n"
               "  train   --model out.gsm   train and persist the CGAN\n"
               "  analyze --model m.gsm     Algorithm 3 + confidentiality\n"
               "  detect  --model m.gsm     attack-detection evaluation\n"
               "  sweep                     one CGAN per Algorithm 1 pair,\n"
               "                            leakage margin table\n"
               "  serve   --model m.gsm     streaming online monitor: N\n"
               "                            synthetic printers scored live\n"
               "  loadgen                   synth-only traffic generator,\n"
               "                            prints per-stream fingerprints\n"
               "model files: gansec.model.v1 checkpoints whatever the\n"
               "  extension (default gansec-model.gsm)\n"
               "  sweep --registry DIR      store every pair's model in a\n"
               "                            versioned ModelRegistry\n"
               "flags: --samples N  --bins N  --window S  --iterations N\n"
               "       --seed N  --h W  --scaler PATH  --attack-fraction F\n"
               "       --threads N  (0 = all cores; results are identical\n"
               "                     at any thread count)\n"
               "streaming (serve / loadgen):\n"
               "       --streams N  --windows M  --workers K  --ring C\n"
               "       --rate R                  windows/s per stream with\n"
               "                                 drop-oldest backpressure\n"
               "                                 (0 = lossless full rate)\n"
               "       --attack-kind integrity|availability\n"
               "       --availability-floor F  --calibrate N\n"
               "       --swap-registry DIR --swap-interval S   poll a model\n"
               "                                 registry and hot-swap the\n"
               "                                 newest generation live\n"
               "observability:\n"
               "       --log-level trace|debug|info|warn|error|off\n"
               "       --log-json                JSON-lines logs on stderr\n"
               "       --trace-out trace.json    chrome://tracing spans\n"
               "       --metrics-out m.json      metrics registry snapshot\n"
               "       --report-out run.json     schema-versioned run report\n"
               "                                 (seeds, config, git SHA,\n"
               "                                 phase times, percentiles)\n"
               "       --progress S              progress log line every S\n"
               "                                 seconds during training\n"
               "live introspection:\n"
               "       --expose PORT             serve OpenMetrics on\n"
               "                                 127.0.0.1:PORT (/metrics,\n"
               "                                 /healthz, /profilez; 0 =\n"
               "                                 ephemeral) + /proc telemetry\n"
               "       --profile out.folded      sampling CPU profiler;\n"
               "                                 writes flamegraph.pl input\n"
               "                                 and out.folded.json\n"
               "                                 (gansec.profile.v1)\n"
               "       --profile-hz N            sampling rate (default 99)\n"
               "incident forensics (flight recorder is always on):\n"
               "       --incident-out b.json     crash-dump bundle path\n"
               "                                 (gansec.incident.v1; default\n"
               "                                 gansec-incident.json, \"\" to\n"
               "                                 disarm). /incidentz on the\n"
               "                                 --expose server serves live\n"
               "                                 bundles.\n"
               "       --incident-dump           also write a bundle after a\n"
               "                                 successful run\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const core::Args args(argc - 2, argv + 2, kFlags, kBoolFlags);
    apply_observability(args);
    LiveIntrospection live;
    live.start(args);

    const std::string report_path = args.get("report-out", "");
    std::unique_ptr<obs::RunReport> report;
    if (!report_path.empty()) {
      report = std::make_unique<obs::RunReport>(command);
      report->set_argv(argc - 1, argv + 1);
    }
    std::unique_ptr<obs::ProgressReporter> progress;
    if (args.has("progress")) {
      progress = std::make_unique<obs::ProgressReporter>(
          args.get_double("progress", 10.0));
    }

    int rc = 2;
    if (command == "graph") {
      rc = cmd_graph(report.get());
    } else if (command == "train") {
      rc = cmd_train(args, report.get());
    } else if (command == "analyze") {
      rc = cmd_analyze(args, report.get());
    } else if (command == "detect") {
      rc = cmd_detect(args, report.get());
    } else if (command == "sweep") {
      rc = cmd_sweep(args, report.get());
    } else if (command == "serve") {
      rc = cmd_serve(args, report.get());
    } else if (command == "loadgen") {
      rc = cmd_loadgen(args, report.get());
    } else {
      return usage();
    }
    progress.reset();
    // Stop the profiler and take the final resource sample before the
    // report captures metrics, so prof.samples / proc.* land in it.
    live.finish();
    if (report != nullptr) {
      report->capture_phases_from_trace();
      report->capture_metrics();
      report->write_file(report_path);
      GANSEC_LOG_INFO("report.written", {"path", report_path});
    }
    finish_observability(args);
    return rc;
  } catch (const gansec::Error& e) {
    GANSEC_LOG_ERROR("cli.fatal", {"what", e.what()});
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
