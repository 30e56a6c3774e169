// Run-report, JSON-parser, percentile, ring-buffer, and exit-flush tests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/obs/json.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/report.hpp"
#include "gansec/obs/trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gansec;

fs::path scratch_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("gansec-report-test-" + std::to_string(::getpid()) + "-" + name);
}

// ---------------------------------------------------------------------------
// JSON DOM parser.

TEST(JsonParse, ScalarsAndNesting) {
  const auto root = obs::parse_json(
      R"({"a":1.5,"b":"x\ny","c":[true,false,null],"d":{"e":-2e3}})");
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.find("a")->as_number(), 1.5);
  EXPECT_EQ(root.find("b")->as_string(), "x\ny");
  const auto& arr = root.find("c")->as_array();
  ASSERT_EQ(arr.size(), 3U);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_DOUBLE_EQ(root.find_path({"d", "e"})->as_number(), -2000.0);
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_EQ(root.find_path({"d", "missing"}), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  const auto root = obs::parse_json(R"(["Aé", "😀"])");
  const auto& arr = root.as_array();
  EXPECT_EQ(arr[0].as_string(), "A\xC3\xA9");
  EXPECT_EQ(arr[1].as_string(), "\xF0\x9F\x98\x80");  // 😀 via surrogates
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":1} trailing", "01",
                          "\"unterminated", "nul"}) {
    EXPECT_THROW(obs::parse_json(bad), ParseError) << bad;
    std::string error;
    EXPECT_FALSE(obs::json_valid(bad, &error)) << bad;
    EXPECT_NE(error.find("at byte"), std::string::npos) << bad << ": " << error;
  }
}

TEST(JsonParse, TypeMismatchThrows) {
  const auto root = obs::parse_json("{\"a\":1}");
  EXPECT_THROW(root.find("a")->as_string(), InvalidArgumentError);
  EXPECT_THROW(root.as_array(), InvalidArgumentError);
}

TEST(JsonParse, RoundTripsEveryValidatorAcceptedArtifact) {
  // Whatever the writer side emits, the parser must accept.
  const std::string metrics = obs::MetricsRegistry::instance().to_json();
  EXPECT_NO_THROW(obs::parse_json(metrics));
}

// ---------------------------------------------------------------------------
// Histogram percentiles vs a sorted-vector oracle.

TEST(HistogramPercentile, MatchesSortedOracleWithinBucketWidth) {
  // Fine uniform buckets over [0, 10); the estimate must agree with the
  // exact order statistic to within one bucket width.
  std::vector<double> bounds;
  for (double b = 0.1; b < 10.0; b += 0.1) bounds.push_back(b);
  obs::Histogram& h = obs::histogram("test.report.pctl", bounds);
  h.reset();

  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(0.0, 10.0);
  std::vector<double> values(5000);
  for (double& v : values) {
    v = dist(rng);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());

  const auto snap = h.snapshot();
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double est = obs::histogram_percentile(snap, q);
    const auto rank = static_cast<std::size_t>(std::min<double>(
        q * static_cast<double>(values.size() - 1),
        static_cast<double>(values.size() - 1)));
    const double oracle = values[rank];
    EXPECT_NEAR(est, oracle, 0.11) << "q=" << q;
  }
  EXPECT_THROW(obs::histogram_percentile(snap, -0.1), InvalidArgumentError);
  EXPECT_THROW(obs::histogram_percentile(snap, 1.1), InvalidArgumentError);
}

TEST(HistogramPercentile, ClampsToObservedRangeAndHandlesEmpty) {
  obs::Histogram& h = obs::histogram("test.report.pctl2", {1.0, 2.0, 4.0});
  h.reset();
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(h.snapshot(), 0.5), 0.0);
  h.observe(1.5);
  h.observe(1.6);
  const auto snap = h.snapshot();
  EXPECT_GE(obs::histogram_percentile(snap, 0.0), 1.5);
  EXPECT_LE(obs::histogram_percentile(snap, 1.0), 1.6);

  const obs::HistogramSummary s = obs::summarize(snap);
  EXPECT_EQ(s.count, 2U);
  EXPECT_DOUBLE_EQ(s.min, 1.5);
  EXPECT_DOUBLE_EQ(s.max, 1.6);
  EXPECT_NEAR(s.mean, 1.55, 1e-12);
  EXPECT_GE(s.p50, 1.5);
  EXPECT_LE(s.p99, 1.6);
}

TEST(HistogramPercentile, SingleBucketInterpolatesInsideObservedRange) {
  obs::Histogram& h = obs::histogram("test.report.pctl3", {10.0});
  h.reset();
  h.observe(3.0);
  h.observe(7.0);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(snap, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(snap, 1.0), 7.0);
  const double p50 = obs::histogram_percentile(snap, 0.5);
  EXPECT_GE(p50, 3.0);
  EXPECT_LE(p50, 7.0);
}

TEST(HistogramPercentile, AllOverflowClampsToObservedRange) {
  // Every observation above the last bound: the open-ended overflow
  // bucket must still yield finite estimates inside [min, max].
  obs::Histogram& h = obs::histogram("test.report.pctl4", {1.0, 2.0});
  h.reset();
  h.observe(100.0);
  h.observe(150.0);
  h.observe(200.0);
  const auto snap = h.snapshot();
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double est = obs::histogram_percentile(snap, q);
    EXPECT_GE(est, 100.0) << "q=" << q;
    EXPECT_LE(est, 200.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(snap, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(snap, 1.0), 200.0);
}

TEST(HistogramPercentile, SummarizeEmptySnapshotIsAllZeros) {
  obs::Histogram& h = obs::histogram("test.report.pctl5", {1.0});
  h.reset();
  const obs::HistogramSummary s = obs::summarize(h.snapshot());
  EXPECT_EQ(s.count, 0U);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

// ---------------------------------------------------------------------------
// Ring-buffer series.

TEST(SeriesRing, CapsMemoryAndCountsDrops) {
  obs::Series& s = obs::series("test.report.ring");
  s.reset();
  s.set_capacity(4);
  obs::Counter& dropped = obs::counter("obs.series.dropped_points");
  const std::uint64_t dropped_before = dropped.value();

  for (int i = 0; i < 10; ++i) {
    s.append(static_cast<double>(i), static_cast<double>(i) * 2.0);
  }
  EXPECT_EQ(s.size(), 4U);
  EXPECT_EQ(s.dropped(), 6U);
  EXPECT_EQ(dropped.value() - dropped_before, 6U);

  // Oldest-first producer order: the survivors are steps 6..9.
  const auto points = s.points();
  ASSERT_EQ(points.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(points[i].first, static_cast<double>(i + 6));
    EXPECT_DOUBLE_EQ(points[i].second, static_cast<double>(i + 6) * 2.0);
  }
}

TEST(SeriesRing, ShrinkDropsOldest) {
  obs::Series& s = obs::series("test.report.ring2");
  s.reset();
  s.set_capacity(8);
  for (int i = 0; i < 6; ++i) s.append(i, i);
  s.set_capacity(2);
  const auto points = s.points();
  ASSERT_EQ(points.size(), 2U);
  EXPECT_DOUBLE_EQ(points[0].first, 4.0);
  EXPECT_DOUBLE_EQ(points[1].first, 5.0);
  EXPECT_EQ(s.dropped(), 4U);
  EXPECT_THROW(s.set_capacity(0), InvalidArgumentError);
}

TEST(SeriesRing, DefaultCapacityIsConfigurable) {
  const std::size_t saved = obs::default_series_capacity();
  obs::set_default_series_capacity(3);
  obs::Series& s = obs::series("test.report.ring3");
  EXPECT_EQ(s.capacity(), 3U);
  for (int i = 0; i < 5; ++i) s.append(i, i);
  EXPECT_EQ(s.size(), 3U);
  obs::set_default_series_capacity(saved);
  EXPECT_THROW(obs::set_default_series_capacity(0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// RunReport.

TEST(RunReport, EmitsValidSchemaVersionedJson) {
  obs::set_tracing(true);
  obs::clear_trace();
  {
    GANSEC_SPAN("report_test.phase_a");
    GANSEC_SPAN("report_test.phase_b");
  }
  {
    GANSEC_SPAN("report_test.phase_a");
  }
  obs::set_tracing(false);

  obs::RunReport report("unit-test");
  const char* argv[] = {"gansec", "train", "--seed", "7"};
  report.set_argv(4, argv);
  report.add_config("iterations", std::int64_t{1500});
  report.add_config("window_s", 0.25);
  report.add_config("deterministic", true);
  report.add_config("mode", std::string_view("train"));
  report.add_seed("pipeline", 2019);
  report.add_seed("dataset", 7);
  report.add_result("likelihood.margin", 0.125);
  report.add_result_json("per_condition", "[0.1,0.2,0.3]");
  EXPECT_THROW(report.add_result_json("bad", "{not json"),
               InvalidArgumentError);
  report.capture_phases_from_trace();
  report.capture_metrics();

  const std::string json = report.to_json();
  std::string error;
  ASSERT_TRUE(obs::json_valid(json, &error)) << error;

  const auto root = obs::parse_json(json);
  EXPECT_EQ(root.find("schema")->as_string(), "gansec.run_report.v1");
  EXPECT_EQ(root.find("command")->as_string(), "unit-test");
  EXPECT_EQ(root.find("argv")->as_array().size(), 4U);
  EXPECT_TRUE(root.find_path({"build", "git_sha"})->is_string());
  EXPECT_FALSE(root.find_path({"build", "version"})->as_string().empty());
  EXPECT_TRUE(root.find_path({"host", "os"})->is_string());
  EXPECT_DOUBLE_EQ(root.find_path({"config", "window_s"})->as_number(),
                   0.25);
  EXPECT_TRUE(root.find_path({"config", "deterministic"})->as_bool());
  EXPECT_DOUBLE_EQ(root.find_path({"seeds", "pipeline"})->as_number(),
                   2019.0);
  EXPECT_DOUBLE_EQ(
      root.find_path({"results", "likelihood.margin"})->as_number(), 0.125);
  EXPECT_EQ(root.find_path({"results", "per_condition"})->as_array().size(),
            3U);
  EXPECT_TRUE(root.find("metrics")->is_object());
  // The summary block surfaces series-ring data loss even to readers
  // that never open the metrics object.
  EXPECT_GE(root.find_path({"summary", "series_dropped_points"})->as_number(),
            0.0);

  // Phase aggregation: phase_a ran twice, phase_b once.
  const auto& phases = root.find("phases")->as_array();
  bool saw_a = false;
  bool saw_b = false;
  for (const auto& phase : phases) {
    const std::string name = phase.find("name")->as_string();
    if (name == "report_test.phase_a") {
      saw_a = true;
      EXPECT_DOUBLE_EQ(phase.find("count")->as_number(), 2.0);
      EXPECT_GE(phase.find("total_ms")->as_number(), 0.0);
      EXPECT_GE(phase.find("mean_ms")->as_number(), 0.0);
    }
    if (name == "report_test.phase_b") saw_b = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(RunReport, WriteFileRoundTrips) {
  obs::RunReport report("roundtrip");
  report.add_seed("s", 1);
  const fs::path path = scratch_file("report.json");
  report.write_file(path.string());
  const auto root = obs::parse_json_file(path.string());
  EXPECT_EQ(root.find("command")->as_string(), "roundtrip");
  fs::remove(path);
  EXPECT_THROW(report.write_file("/nonexistent-dir-xyz/report.json"),
               IoError);
}

// ---------------------------------------------------------------------------
// Exit flush.

TEST(ArtifactFlush, FlushWritesRegisteredFilesOnce) {
  const fs::path trace_path = scratch_file("flush-trace.json");
  const fs::path metrics_path = scratch_file("flush-metrics.json");
  obs::register_artifact_flush(
      {trace_path.string(), metrics_path.string()});
  EXPECT_TRUE(obs::flush_artifacts_now());
  EXPECT_TRUE(fs::exists(trace_path));
  EXPECT_TRUE(fs::exists(metrics_path));
  // Both artifacts are valid JSON.
  EXPECT_NO_THROW(obs::parse_json_file(trace_path.string()));
  EXPECT_NO_THROW(obs::parse_json_file(metrics_path.string()));
  // Second flush is a no-op (already flushed).
  EXPECT_FALSE(obs::flush_artifacts_now());
  fs::remove(trace_path);
  fs::remove(metrics_path);
}

TEST(ArtifactFlush, MarkFlushedSuppressesTheExitWrite) {
  const fs::path trace_path = scratch_file("suppressed-trace.json");
  obs::register_artifact_flush({trace_path.string(), ""});
  obs::mark_artifacts_flushed();
  EXPECT_FALSE(obs::flush_artifacts_now());
  EXPECT_FALSE(fs::exists(trace_path));
}

TEST(ArtifactFlush, ClaimIsExactlyOncePerRegistration) {
  // Regression for the signal-then-exit double flush: whichever path
  // (normal exit, atexit, signal handler) claims first wins, every later
  // claim and flush must be a no-op.
  const fs::path trace_path = scratch_file("claim-trace.json");
  obs::register_artifact_flush({trace_path.string(), ""});
  EXPECT_TRUE(obs::claim_artifact_flush());
  EXPECT_FALSE(obs::claim_artifact_flush());
  // The claim holder writes; everyone else (including a concurrent
  // flush_artifacts_now) must not re-enter.
  EXPECT_FALSE(obs::flush_artifacts_now());
  EXPECT_FALSE(fs::exists(trace_path));

  // A fresh registration re-arms exactly one claim.
  obs::register_artifact_flush({trace_path.string(), ""});
  EXPECT_TRUE(obs::flush_artifacts_now());
  EXPECT_TRUE(fs::exists(trace_path));
  EXPECT_FALSE(obs::claim_artifact_flush());
  fs::remove(trace_path);
}

// ---------------------------------------------------------------------------
// Build/host info.

TEST(BuildInfo, CarriesVersionAndSerializes) {
  const obs::BuildInfo& info = obs::build_info();
  EXPECT_FALSE(info.version.empty());
  EXPECT_FALSE(info.git_sha.empty());
  const auto root = obs::parse_json(obs::build_info_json(info));
  EXPECT_EQ(root.find("version")->as_string(), info.version);
  EXPECT_EQ(root.find("git_sha")->as_string(), info.git_sha);
}

TEST(HostInfo, ReportsPlatform) {
  const obs::HostInfo host = obs::host_info();
  EXPECT_FALSE(host.os.empty());
}

}  // namespace
