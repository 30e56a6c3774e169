// Microbenchmarks of every substrate (google-benchmark).
//
// Not a paper figure: this measures the throughput of the building blocks
// so regressions in the numeric kernels are visible — GEMM, FFT, CWT,
// G-code parsing and kinematics, CGAN train step, Parzen KDE scoring, and
// Algorithm 1 on the case-study graph.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "gansec/am/acoustic.hpp"
#include "gansec/am/gcode.hpp"
#include "gansec/am/machine.hpp"
#include "gansec/am/printer_arch.hpp"
#include "gansec/core/execution.hpp"
#include "gansec/cpps/graph.hpp"
#include "gansec/dsp/binner.hpp"
#include "gansec/dsp/cwt.hpp"
#include "gansec/dsp/fft.hpp"
#include "gansec/gan/trainer.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/obs/flight_recorder.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/prof.hpp"
#include "gansec/obs/trace.hpp"
#include "gansec/security/analyzer.hpp"
#include "gansec/stats/kde.hpp"
#include "lint.hpp"

// Process-wide heap instrumentation for the allocation benchmarks below.
// Replacing the global operator new/delete pair lets BM_CganTrainStep
// report allocations per training iteration — the regression signal for
// the zero-allocation substrate (destination-passing kernels + workspace
// arenas). Relaxed atomics keep the probe cheap enough to leave on for
// every benchmark in this binary.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gansec;

void BM_MatrixMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  math::Rng rng(1);
  const math::Matrix a = rng.normal_matrix(n, n, 0.0F, 1.0F);
  const math::Matrix b = rng.normal_matrix(n, n, 0.0F, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Matrix::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatrixMatmul)->Arg(32)->Arg(128)->Arg(256);

// GEMM thread-scaling trajectory: same product at 1/2/4/8 configured
// threads. Results are bit-identical across the sweep (row-blocked
// chunks, fixed accumulation order); only the wall clock should move.
void BM_MatrixMatmulThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const core::ScopedExecution scoped(
      core::ExecutionConfig{.threads = threads});
  math::Rng rng(1);
  const math::Matrix a = rng.normal_matrix(n, n, 0.0F, 1.0F);
  const math::Matrix b = rng.normal_matrix(n, n, 0.0F, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Matrix::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatrixMatmulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8})
    ->UseRealTime();

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  math::Rng rng(2);
  std::vector<dsp::Complex> x(n);
  for (auto& c : x) c = dsp::Complex(rng.normal(), 0.0);
  for (auto _ : state) {
    std::vector<dsp::Complex> copy = x;
    dsp::fft_in_place(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CwtBandEnergies(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  math::Rng rng(3);
  std::vector<double> signal(4000);
  for (double& v : signal) v = rng.normal();
  const dsp::MorletCwt cwt(dsp::CwtConfig{16000.0, 6.0});
  const dsp::FrequencyBinner binner(50.0, 5000.0, bins);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cwt.band_energies(signal, binner.centers()));
  }
}
BENCHMARK(BM_CwtBandEnergies)->Arg(25)->Arg(100);

// What a served window pays: band energies on a prebuilt plan (the batch
// call above also builds the plan).
void BM_CwtWindowPlan(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  math::Rng rng(3);
  std::vector<double> signal(4000);
  for (double& v : signal) v = rng.normal();
  const dsp::MorletCwt cwt(dsp::CwtConfig{16000.0, 6.0});
  const dsp::FrequencyBinner binner(50.0, 5000.0, bins);
  dsp::CwtWindowPlan plan(cwt, signal.size(), binner.centers());
  std::vector<double> energies(bins);
  for (auto _ : state) {
    plan.band_energies_into(signal.data(), signal.size(), energies.data());
    benchmark::DoNotOptimize(energies.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CwtWindowPlan)->Arg(100);

void BM_GcodeParse(benchmark::State& state) {
  const std::string program =
      "G28\nG1 F1200 X10.5 Y-3.25 Z0.4 E1.2\nM104 S210 ; heat\n"
      "G1 X20 (fast) Y5\nG92 E0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(am::parse_gcode_program(program));
  }
}
BENCHMARK(BM_GcodeParse);

void BM_MachineKinematics(benchmark::State& state) {
  const auto program = am::parse_gcode_program(
      "G1 F1200 X10\nG1 Y10\nG1 F300 Z2\nG1 F1200 X0 Y0\n");
  for (auto _ : state) {
    am::MachineSimulator machine;
    benchmark::DoNotOptimize(machine.run_program(program));
  }
}
BENCHMARK(BM_MachineKinematics);

void BM_AcousticSynthesis(benchmark::State& state) {
  am::AcousticSimulator sim;
  am::MotionSegment seg;
  seg.step_rate[0] = 1600.0;
  seg.duration_s = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.synthesize_segment(seg));
  }
}
BENCHMARK(BM_AcousticSynthesis);

void BM_CganTrainStep(benchmark::State& state) {
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  gan::Cgan model(topo, 4);
  math::Rng rng(4);
  const math::Matrix data = rng.uniform_matrix(128, 100, 0.0F, 1.0F);
  math::Matrix conds(128, 3, 0.0F);
  for (std::size_t r = 0; r < 128; ++r) conds(r, r % 3) = 1.0F;
  gan::TrainConfig config;
  config.batch_size = 48;
  gan::CganTrainer trainer(model, config, 4);
  // Warm the per-thread workspace arenas and layer buffers so the timed
  // region measures the steady state the substrate guarantees, not the
  // first-pass growth.
  trainer.train_iterations(data, conds, 5);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before =
      g_heap_bytes.load(std::memory_order_relaxed);
  for (auto _ : state) {
    trainer.train_iterations(data, conds, 1);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      iters);
  state.counters["alloc_bytes_per_iter"] = benchmark::Counter(
      static_cast<double>(g_heap_bytes.load(std::memory_order_relaxed) -
                          bytes_before) /
      iters);
  // items/sec == training iterations per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CganTrainStep);

// BM_CganTrainStep with the flight recorder switched off — the control
// for the always-on black box. BM_CganTrainStep runs with the recorder
// at its default (enabled), so main() joins the two into
// `flight.overhead_ratio` (contract: recorder-on costs <= 2% at full
// scale; the trainer records one kTrainStep event per iteration).
void BM_CganTrainStepFlightOff(benchmark::State& state) {
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  gan::Cgan model(topo, 4);
  math::Rng rng(4);
  const math::Matrix data = rng.uniform_matrix(128, 100, 0.0F, 1.0F);
  math::Matrix conds(128, 3, 0.0F);
  for (std::size_t r = 0; r < 128; ++r) conds(r, r % 3) = 1.0F;
  gan::TrainConfig config;
  config.batch_size = 48;
  gan::CganTrainer trainer(model, config, 4);
  trainer.train_iterations(data, conds, 5);
  obs::flight::set_enabled(false);
  for (auto _ : state) {
    trainer.train_iterations(data, conds, 1);
  }
  obs::flight::set_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CganTrainStepFlightOff);

// BM_CganTrainStep with the sampling profiler armed at its default
// 99 Hz — the live-introspection overhead gate. main() joins this
// against the unprofiled run into `profiler.overhead_pct` (contract:
// <= 2% at full scale) and records how much of the profile the offline
// symbolizer resolved (contract: >= 80%).
void BM_CganTrainStepProfiled(benchmark::State& state) {
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  gan::Cgan model(topo, 4);
  math::Rng rng(4);
  const math::Matrix data = rng.uniform_matrix(128, 100, 0.0F, 1.0F);
  math::Matrix conds(128, 3, 0.0F);
  for (std::size_t r = 0; r < 128; ++r) conds(r, r % 3) = 1.0F;
  gan::TrainConfig config;
  config.batch_size = 48;
  gan::CganTrainer trainer(model, config, 4);
  trainer.train_iterations(data, conds, 5);

  obs::prof::SamplingProfiler& profiler =
      obs::prof::SamplingProfiler::instance();
  profiler.start(obs::prof::ProfileConfig{});  // 99 Hz, backtrace unwinder
  for (auto _ : state) {
    trainer.train_iterations(data, conds, 1);
  }
  const obs::prof::ProfileReport report = profiler.stop();
  state.counters["prof_samples"] =
      benchmark::Counter(static_cast<double>(report.samples));
  state.counters["prof_symbolized_fraction"] =
      benchmark::Counter(report.symbolized_fraction);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CganTrainStepProfiled);

void BM_ParzenScore(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  math::Rng rng(5);
  std::vector<double> xs(samples);
  for (double& x : xs) x = rng.uniform(0.0, 1.0);
  const stats::ParzenKde kde(std::move(xs), 0.2);
  double probe = 0.0;
  for (auto _ : state) {
    probe += 0.001;
    if (probe > 1.0) probe = 0.0;
    benchmark::DoNotOptimize(kde.log_density(probe));
  }
}
BENCHMARK(BM_ParzenScore)->Arg(100)->Arg(1000);

// gansec.model.v1 checkpoint throughput on a serving-sized CGAN. Save is
// serialize (meta render + payload copy + CRC) plus the atomic
// write-rename; Load is the full paranoid path — read, CRC sweep, meta
// parse, tensor directory validation, weight materialization. The
// bytes_per_second counter is the headline metric; the artifact tags it
// higher-is-better so gansec_benchdiff flags slowdowns directionally.

// PID-unique scratch path: parallel ctest can run several bench
// processes in smoke mode at once, and a shared fixed name would race
// (one process removes the file while another is still loading it).
std::filesystem::path checkpoint_scratch(const char* tag) {
  return std::filesystem::temp_directory_path() /
         ("gansec_bench_ckpt_" + std::string(tag) + "_" +
          std::to_string(::getpid()) + ".gsm");
}

void BM_CheckpointSave(benchmark::State& state) {
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  const gan::Cgan model(topo, 4);
  const std::filesystem::path path = checkpoint_scratch("save");
  for (auto _ : state) {
    model::save_cgan_checkpoint(model, path.string());
    benchmark::ClobberMemory();
  }
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}
BENCHMARK(BM_CheckpointSave);

void BM_CheckpointLoad(benchmark::State& state) {
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  const gan::Cgan model(topo, 4);
  const std::filesystem::path path = checkpoint_scratch("load");
  model::save_cgan_checkpoint(model, path.string());
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::load_cgan_checkpoint_file(path.string()));
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}
BENCHMARK(BM_CheckpointLoad);

// Algorithm 3 thread-scaling trajectory: the full analyze() pass (KDE fit
// + scoring for every condition x feature cell) at 1/2/4/8 threads. In
// deterministic mode the LikelihoodResult is bit-identical across the
// sweep. Uses an untrained CGAN — generator quality is irrelevant to the
// scoring throughput being measured.
void BM_Algorithm3Scoring(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const core::ScopedExecution scoped(
      core::ExecutionConfig{.threads = threads});
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  gan::Cgan model(topo, 6);
  math::Rng rng(7);
  am::LabeledDataset test;
  test.features = rng.uniform_matrix(240, 100, 0.0F, 1.0F);
  test.conditions = math::Matrix(240, 3, 0.0F);
  test.labels.resize(240);
  for (std::size_t r = 0; r < 240; ++r) {
    test.labels[r] = r % 3;
    test.conditions(r, r % 3) = 1.0F;
  }
  security::LikelihoodConfig config;
  config.generator_samples = 200;
  const security::LikelihoodAnalyzer analyzer(config, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(model, test));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(3 * 100 * 240));  // cond x feature x sample
}
BENCHMARK(BM_Algorithm3Scoring)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Observability disabled-path costs. The contract (DESIGN.md
// "Observability") is that instrumentation left in hot code costs a few
// nanoseconds when the level/switch gates it off: one relaxed atomic load
// plus a branch, with field expressions never evaluated.
void BM_ObsLogDisabled(benchmark::State& state) {
  const obs::LogLevel saved = obs::log_level();
  obs::set_log_level(obs::LogLevel::kOff);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    GANSEC_LOG_DEBUG("disabled hot-path statement", {"i", i},
                     {"ratio", 0.25});
    benchmark::DoNotOptimize(i);
  }
  obs::set_log_level(saved);
}
BENCHMARK(BM_ObsLogDisabled);

void BM_ObsSpanDisabled(benchmark::State& state) {
  const bool saved = obs::tracing_enabled();
  obs::set_tracing(false);
  for (auto _ : state) {
    GANSEC_SPAN("disabled span");
    benchmark::ClobberMemory();
  }
  obs::set_tracing(saved);
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsCounterAdd(benchmark::State& state) {
  // The always-on cost of a cached counter update (relaxed fetch_add).
  static obs::Counter& c = obs::counter("bench.counter_add");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Histogram& h =
      obs::histogram("bench.histogram_observe",
                     {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0});
  double x = 0.0;
  for (auto _ : state) {
    x += 0.37;
    if (x > 8.5) x = 0.0;
    h.observe(x);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsLogEnabledNullSink(benchmark::State& state) {
  // Upper bound on the formatting cost of an enabled record: full field
  // capture and dispatch into a sink that discards it.
  const obs::LogLevel saved_level = obs::log_level();
  const std::shared_ptr<obs::LogSink> saved_sink = obs::log_sink();
  obs::set_log_level(obs::LogLevel::kTrace);
  obs::set_log_sink(std::make_shared<obs::NullSink>());
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    GANSEC_LOG_DEBUG("enabled statement", {"i", i}, {"ratio", 0.25},
                     {"tag", "bench"});
  }
  obs::set_log_sink(saved_sink);
  obs::set_log_level(saved_level);
}
BENCHMARK(BM_ObsLogEnabledNullSink);

// Whole-repo gansec_lint wall time. The interprocedural upgrade re-lexes
// every translation unit, builds the call graph, and propagates hot-path
// and signal-context constraints, so lint cost is perf-gated like any
// kernel: main() turns this measurement into the lint.repo_under_5s
// check (the acceptance budget for the tier-1 gansec_lint_repo gate).
// Sources are read once up front; the loop times lexing + rules +
// propagation only.
void BM_LintRepo(benchmark::State& state) {
  namespace fs = std::filesystem;
  static const auto* sources = [] {
    auto* files = new std::vector<std::pair<std::string, std::string>>();
    const fs::path root(GANSEC_REPO_ROOT);
    for (const char* dir : {"include", "src"}) {
      for (const auto& entry :
           fs::recursive_directory_iterator(root / dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".hpp" && ext != ".h" && ext != ".cpp" && ext != ".cc") {
          continue;
        }
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        files->emplace_back(entry.path().generic_string(), buffer.str());
      }
    }
    std::sort(files->begin(), files->end());
    return files;
  }();
  std::size_t files_checked = 0;
  for (auto _ : state) {
    gansec::lint::Linter linter(gansec::lint::Options{
        std::string(GANSEC_REPO_ROOT) + "/tools/metrics_manifest.txt"});
    for (const auto& [path, source] : *sources) {
      linter.check_file(path, source);
    }
    linter.finish();
    files_checked = linter.files_checked();
    benchmark::DoNotOptimize(files_checked);
  }
  state.counters["lint_files"] =
      benchmark::Counter(static_cast<double>(files_checked));
}
BENCHMARK(BM_LintRepo)->Unit(benchmark::kMillisecond);

void BM_Algorithm1(benchmark::State& state) {
  const cpps::Architecture arch = am::make_printer_architecture();
  const cpps::HistoricalData data = am::make_printer_historical_data();
  for (auto _ : state) {
    const cpps::CppsGraph graph(arch);
    benchmark::DoNotOptimize(cpps::generate_flow_pairs(graph, data));
  }
}
BENCHMARK(BM_Algorithm1);

// Paired A/B measurement of the flight recorder's train-step cost. The
// BM_CganTrainStep* entries above time the modes in separate sequential
// runs, which on a busy 1-core VM drift by far more than the 2% being
// gated (the profiled run regularly beats the unprofiled one). Two
// things make this measurement gateable: alternating recorder-on /
// recorder-off rounds over one trainer cancels slow drift, and taking
// the per-mode MINIMUM round time discards host-steal spikes — VM noise
// only ever adds time, so the minima converge on the true costs.
double measured_flight_overhead_ratio() {
  using clock = std::chrono::steady_clock;
  gan::CganTopology topo;
  topo.data_dim = 100;
  topo.cond_dim = 3;
  topo.generator_hidden = {128, 128};
  topo.discriminator_hidden = {128, 128};
  gan::Cgan model(topo, 4);
  math::Rng rng(4);
  const math::Matrix data = rng.uniform_matrix(128, 100, 0.0F, 1.0F);
  math::Matrix conds(128, 3, 0.0F);
  for (std::size_t r = 0; r < 128; ++r) conds(r, r % 3) = 1.0F;
  gan::TrainConfig config;
  config.batch_size = 48;
  gan::CganTrainer trainer(model, config, 4);
  trainer.train_iterations(data, conds, 5);
  const std::size_t rounds = gansec::bench::smoke() ? 2 : 16;
  const std::size_t iters = gansec::bench::smoke() ? 1 : 2;
  double on_min_s = 0.0;
  double off_min_s = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    obs::flight::set_enabled(true);
    auto t0 = clock::now();
    trainer.train_iterations(data, conds, iters);
    const double on_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    obs::flight::set_enabled(false);
    t0 = clock::now();
    trainer.train_iterations(data, conds, iters);
    const double off_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (r == 0 || on_s < on_min_s) on_min_s = on_s;
    if (r == 0 || off_s < off_min_s) off_min_s = off_s;
  }
  obs::flight::set_enabled(true);
  return off_min_s > 0.0 ? on_min_s / off_min_s : 0.0;
}

// Console output plus a copy of every per-iteration run, so main() can
// export BENCH_perf_core.json after the suite finishes. Aggregate rows
// (mean/median/stddev of repetitions) are skipped — the artifact carries
// the plain measurement the diff tool expects.
class ArtifactCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        runs_.push_back(run);
      }
    }
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace

int main(int argc, char** argv) {
  gansec::bench::BenchReporter artifact("perf_core");

  std::vector<char*> args(argv, argv + argc);
  // Smoke mode trims to the fast microbenches at a tiny min_time so the
  // `bench-smoke` ctest finishes in seconds; explicit flags still win.
  std::string smoke_min_time = "--benchmark_min_time=0.01";
  std::string smoke_filter =
      "--benchmark_filter=^BM_(MatrixMatmul/32|Fft/1024|CwtBandEnergies/25|"
      "GcodeParse|MachineKinematics|AcousticSynthesis|CganTrainStep|"
      "CganTrainStepFlightOff|CganTrainStepProfiled|"
      "ParzenScore/100|CheckpointSave|CheckpointLoad|"
      "ObsLogDisabled|ObsSpanDisabled|ObsCounterAdd|"
      "ObsHistogramObserve|ObsLogEnabledNullSink|Algorithm1|LintRepo)$";
  if (gansec::bench::smoke()) {
    bool has_min_time = false;
    bool has_filter = false;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      has_min_time |= arg.rfind("--benchmark_min_time", 0) == 0;
      has_filter |= arg.rfind("--benchmark_filter", 0) == 0;
    }
    if (!has_min_time) args.push_back(smoke_min_time.data());
    if (!has_filter) args.push_back(smoke_filter.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }

  ArtifactCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  double base_ns = 0.0;
  double profiled_ns = 0.0;
  double lint_ns = 0.0;
  double symbolized_fraction = -1.0;
  for (const auto& run : reporter.runs()) {
    const std::string name = run.benchmark_name();
    const double ns_per_iter =
        run.real_accumulated_time / static_cast<double>(run.iterations) *
        1e9;
    artifact.add_metric(name + ".ns_per_iter", ns_per_iter,
                        gansec::bench::Direction::kLowerIsBetter);
    if (name == "BM_CganTrainStep") base_ns = ns_per_iter;
    if (name == "BM_CganTrainStepProfiled") profiled_ns = ns_per_iter;
    if (name == "BM_LintRepo") lint_ns = ns_per_iter;
    for (const auto& [counter_name, counter] : run.counters) {
      // prof_samples scales with run duration and prof_symbolized_fraction
      // is covered by the directional profiler.* metrics below; exporting
      // either per-benchmark would hand benchdiff a misleading direction.
      if (counter_name == "prof_samples" ||
          counter_name == "prof_symbolized_fraction") {
        if (name == "BM_CganTrainStepProfiled" &&
            counter_name == "prof_symbolized_fraction") {
          symbolized_fraction = static_cast<double>(counter.value);
        }
        continue;
      }
      const bool rate = counter_name.find("per_second") != std::string::npos;
      artifact.add_metric(name + "." + counter_name,
                          static_cast<double>(counter.value),
                          rate ? gansec::bench::Direction::kHigherIsBetter
                               : gansec::bench::Direction::kLowerIsBetter);
    }
  }

  // Live-introspection overhead gate: profiling a train step at 99 Hz
  // must cost <= 2% and the profile must be >= 80% symbolized. Smoke
  // runs are too short for either number to mean anything, so the gate
  // only trips at full scale; the artifact records the measurement in
  // both modes.
  bool gate_failed = false;
  if (base_ns > 0.0 && profiled_ns > 0.0) {
    const double overhead_pct = 100.0 * (profiled_ns - base_ns) / base_ns;
    // The diffable metric is the ratio (~1.0), not the percentage: a
    // near-zero percentage makes every relative comparison explode.
    artifact.add_metric("profiler.overhead_ratio", profiled_ns / base_ns,
                        gansec::bench::Direction::kLowerIsBetter);
    artifact.add_metric("profiler.symbolized_fraction", symbolized_fraction,
                        gansec::bench::Direction::kHigherIsBetter);
    const bool overhead_ok = gansec::bench::smoke() || overhead_pct <= 2.0;
    const bool symbolized_ok =
        gansec::bench::smoke() || symbolized_fraction >= 0.8;
    artifact.add_check("profiler.overhead_within_2pct", overhead_ok);
    artifact.add_check("profiler.symbolized_at_least_80pct", symbolized_ok);
    if (!overhead_ok || !symbolized_ok) {
      std::fprintf(stderr,
                   "[bench] FAIL: profiler gate (overhead %.2f%%, "
                   "symbolized %.2f)\n",
                   overhead_pct, symbolized_fraction);
      gate_failed = true;
    }
  }
  // Flight-recorder overhead gate: the always-on black box must cost
  // <= 2% of a train step at full scale, measured with the interleaved
  // pairing above. Smoke rounds are too short to gate on but still
  // record the ratio.
  {
    const double ratio = measured_flight_overhead_ratio();
    const double overhead_pct = 100.0 * (ratio - 1.0);
    artifact.add_metric("flight.overhead_ratio", ratio,
                        gansec::bench::Direction::kLowerIsBetter);
    const bool flight_ok = gansec::bench::smoke() || overhead_pct <= 2.0;
    artifact.add_check("flight.overhead_within_2pct", flight_ok);
    if (!flight_ok) {
      std::fprintf(stderr,
                   "[bench] FAIL: flight recorder gate (overhead %.2f%%)\n",
                   overhead_pct);
      gate_failed = true;
    }
  }
  // Whole-repo lint budget gate: the acceptance criterion for the
  // interprocedural linter is < 5 s per full run on the CI machine.
  // Cheap enough to gate even in smoke mode.
  if (lint_ns > 0.0) {
    const bool lint_ok = lint_ns <= 5e9;
    artifact.add_check("lint.repo_under_5s", lint_ok);
    if (!lint_ok) {
      std::fprintf(stderr, "[bench] FAIL: lint gate (%.0f ms per repo run)\n",
                   lint_ns / 1e6);
      gate_failed = true;
    }
  }
  artifact.write();
  return gate_failed ? 1 : 0;
}
