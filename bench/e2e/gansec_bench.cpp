// gansec_bench — end-to-end GAN-Sec benchmark program.
//
//   gansec_bench --workload {serve-saturate|serve-realtime|offline}
//                [--seed N] [--seconds S] [--trace FILE] [--out DIR]
//                [--smoke]
//
// Prints every metric as `name value unit` on stdout, followed by
// `attempted`, `failed` and `correct` lines; writes BENCH_e2e_<workload>.json
// (BENCH_e2e_<workload>_smoke.json with --smoke; gansec.bench.v1) into
// --out; exits 1 when a correctness check fails.
// With --trace it also replays each layer's public functions, writes the
// spans as a chrome trace to FILE and prints a self-time table on stderr.
// bench/e2e/README.md describes the workloads and metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <thread>

#include "gansec/core/execution.hpp"
#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/math/stats.hpp"
#include "gansec_bench.hpp"

namespace gansec::e2e {

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kServeSaturate: return "serve-saturate";
    case Workload::kServeRealtime: return "serve-realtime";
    case Workload::kOffline: return "offline";
  }
  return "unknown";
}

Scale make_scale(const Options& options) {
  Scale scale;
  if (options.smoke) {
    scale.samples_per_condition = 6;
    scale.setup_iterations = 10;
    scale.generator_samples = 32;
    scale.pool_per_stream = 2;
    scale.warmup_s = 0.2;
  }
  return scale;
}

Seeds make_seeds(std::uint64_t seed) {
  Seeds seeds;
  seeds.dataset = math::split_seed(seed, 1);
  seeds.model = math::split_seed(seed, 2);
  seeds.trainer = math::split_seed(seed, 3);
  seeds.scoring = math::split_seed(seed, 4);
  seeds.analyzer = math::split_seed(seed, 5);
  seeds.loadgen = math::split_seed(seed, 6);
  seeds.arrivals = math::split_seed(seed, 7);
  return seeds;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : math::median(std::move(xs));
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit, bench::Direction direction) {
  metrics_.push_back({name, value, unit, direction});
}

void Results::check(const std::string& name, bool pass) {
  checks_.emplace_back(name, pass);
  if (!pass) std::fprintf(stderr, "[e2e] CHECK FAILED: %s\n", name.c_str());
}

bool Results::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

void Results::print() const {
  for (const Metric& m : metrics_) {
    std::printf("%s %.12g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu count\n",
              static_cast<unsigned long long>(attempted_));
  std::printf("failed %llu count\n", static_cast<unsigned long long>(failed_));
  std::printf("correct %d bool\n", correct() ? 1 : 0);
  std::fflush(stdout);
}

void Results::fill(bench::BenchReporter& reporter) const {
  for (const Metric& m : metrics_) {
    reporter.add_metric(m.name, m.value, m.direction);
  }
  reporter.add_metric("attempted", static_cast<double>(attempted_),
                      bench::Direction::kTwoSided);
  reporter.add_metric("failed", static_cast<double>(failed_),
                      bench::Direction::kLowerIsBetter);
  for (const auto& [name, pass] : checks_) reporter.add_check(name, pass);
}

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "gansec_bench: %s\n"
               "usage: gansec_bench --workload "
               "{serve-saturate|serve-realtime|offline} [--seed N] "
               "[--seconds S] [--trace FILE] [--out DIR] [--smoke]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string_view w = value();
      have_workload = true;
      if (w == "serve-saturate") {
        options.workload = Workload::kServeSaturate;
      } else if (w == "serve-realtime") {
        options.workload = Workload::kServeRealtime;
      } else if (w == "offline") {
        options.workload = Workload::kOffline;
      } else {
        usage("unknown workload");
      }
    } else if (arg == "--seed") {
      char* end = nullptr;
      const char* text = value();
      options.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const char* text = value();
      options.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        usage("--seconds needs a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

/// Peak resident set of this process image (VmHWM, kB). getrusage's
/// ru_maxrss would do on a fresh process, but Linux carries it across exec,
/// so under a larger launcher it reports the launcher's peak instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw IoError("cannot read VmHWM from /proc/self/status");
}

void print_self_times(const SpanRecorder& spans) {
  std::fprintf(stderr, "[e2e] self time by span (%s)\n",
               spans.run_id().c_str());
  std::fprintf(stderr, "  %-32s %8s %12s %12s\n", "span", "count",
               "total_ms", "self_ms");
  for (const SpanRecorder::Summary& s : spans.summarize()) {
    std::fprintf(stderr, "  %-32s %8zu %12.3f %12.3f\n", s.name.c_str(),
                 s.count, s.total_ms, s.self_ms);
  }
}

int run_benchmark(const Options& options) {
  using bench::Direction;
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < 4) {
    std::fprintf(stderr,
                 "[e2e] warning: %u hardware threads; the workloads use 4, "
                 "so numbers are not comparable to a 4-thread host\n",
                 nproc);
  }
  const core::ScopedExecution execution(core::ExecutionConfig{4, false, true});
  // Constructed first: its wall clock covers the whole run. Smoke artifacts
  // get a name of their own, so none can pass for a full-size one.
  bench::BenchReporter reporter(std::string("e2e_") +
                                workload_name(options.workload) +
                                (options.smoke ? "_smoke" : ""));
  const std::string run_id = std::string(workload_name(options.workload)) +
                             "-seed" + std::to_string(options.seed);
  SpanRecorder spans(!options.trace_path.empty(), run_id);
  Results results;
  const Run run{options, make_scale(options), make_seeds(options.seed), spans,
                results};

  // Set-up, repeated: each repetition builds everything from scratch, and
  // setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (std::size_t r = 0; r < run.scale.setup_repeats; ++r) {
    setup.reset();
    const SpanRecorder::Span span(spans, "setup");
    const auto t0 = std::chrono::steady_clock::now();
    setup = build_setup(run);
    setup_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  results.metric("setup_s", median(setup_s), "s", Direction::kLowerIsBetter);
  results.check("setup.flow_pairs", setup->flow_pairs > 0);

  std::optional<double> stage_ms;
  if (spans.enabled()) {
    results.metric("cpps.algorithm1_ms",
                   median(spans.durations_ms("cpps.algorithm1")), "ms",
                   Direction::kLowerIsBetter);
    results.metric("am.dataset_build_s",
                   median(spans.durations_ms("am.dataset_build")) / 1e3, "s",
                   Direction::kLowerIsBetter);
    results.metric("gan.train_s", median(spans.durations_ms("gan.train")) / 1e3,
                   "s", Direction::kLowerIsBetter);
    const SpanRecorder::Span span(spans, "probes");
    stage_ms = run_layer_probes(run, *setup);
  }
  {
    const SpanRecorder::Span span(spans, "measure");
    if (run.serve()) {
      run_serve(run, *setup, stage_ms);
    } else {
      run_offline(run, *setup);
    }
  }
  results.metric("peak_rss_mb", peak_rss_mb(), "MB", Direction::kLowerIsBetter);

  if (spans.enabled()) {
    // Estimated cost of the spans themselves over the traced run.
    const double traced_ns = static_cast<double>(spans.now_ns());
    results.metric("trace.overhead_frac",
                   static_cast<double>(spans.records().size()) *
                       SpanRecorder::span_cost_ns() / traced_ns,
                   "ratio", Direction::kLowerIsBetter);
    spans.write_chrome_trace(options.trace_path);
    print_self_times(spans);
    std::fprintf(stderr, "[e2e] chrome trace written to %s\n",
                 options.trace_path.c_str());
  }

  results.metric("run.smoke", options.smoke ? 1.0 : 0.0, "flag",
                 Direction::kTwoSided);
  results.fill(reporter);
  reporter.add_metric("run.seed", static_cast<double>(options.seed),
                      Direction::kTwoSided);
  reporter.add_metric("run.nproc", nproc, Direction::kTwoSided);
  reporter.add_metric("run.seconds", options.seconds, Direction::kTwoSided);
  reporter.add_metric("run.traced", spans.enabled() ? 1.0 : 0.0,
                      Direction::kTwoSided);
  reporter.write();
  results.print();
  return results.correct() ? 0 : 1;
}

}  // namespace

}  // namespace gansec::e2e

int main(int argc, char** argv) {
  const gansec::e2e::Options options = gansec::e2e::parse(argc, argv);
  // bench/common.hpp reads its smoke switch and artifact directory from the
  // environment; set both before its first use.
  if (options.smoke) setenv("GANSEC_BENCH_SMOKE", "1", 1);
  setenv("GANSEC_BENCH_OUT", options.out_dir.c_str(), 1);
  try {
    return gansec::e2e::run_benchmark(options);
  } catch (const gansec::Error& e) {
    std::fprintf(stderr, "gansec_bench: %s\n", e.what());
    return 2;
  }
}
