// Tier-1 smoke tests: drive the real gansec CLI binary with the full
// observability flag set and validate every emitted artifact — JSON-lines
// logs on stderr, a chrome://tracing span file, and a metrics snapshot —
// and run train followed by analyze/detect on the persisted checkpoint.
//
// The binary path is injected at configure time via GANSEC_CLI_PATH so the
// test works from any build directory.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gansec/obs/json.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_path(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

TEST(CliSmoke, SweepWithFullObservability) {
  const std::string trace_path = temp_path("gansec_smoke_trace.json");
  const std::string metrics_path = temp_path("gansec_smoke_metrics.json");
  const std::string log_path = temp_path("gansec_smoke_log.jsonl");
  const std::string out_path = temp_path("gansec_smoke_stdout.txt");

  // Tiny configuration: 5 flow pairs x 4 iterations finishes in seconds.
  const std::string command = std::string(GANSEC_CLI_PATH) +
                              " sweep --samples 6 --bins 8 --window 0.05"
                              " --iterations 4 --threads 2"
                              " --log-level debug --log-json"
                              " --trace-out " + trace_path +
                              " --metrics-out " + metrics_path + " > " +
                              out_path + " 2> " + log_path;
  const int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << command;

  // stdout: the human-facing margin table.
  const std::string stdout_text = read_file(out_path);
  EXPECT_NE(stdout_text.find("flow-pair sweep:"), std::string::npos);
  EXPECT_NE(stdout_text.find("most leaky pair:"), std::string::npos);

  // stderr: every line is a self-contained JSON object.
  const auto log_lines = lines_of(read_file(log_path));
  ASSERT_FALSE(log_lines.empty());
  for (const auto& line : log_lines) {
    std::string error;
    EXPECT_TRUE(gansec::obs::json_valid(line, &error))
        << line << ": " << error;
  }
  const std::string all_logs = read_file(log_path);
  EXPECT_NE(all_logs.find("\"msg\":\"pipeline.flow_pair_sweep.start\""),
            std::string::npos);
  EXPECT_NE(all_logs.find("\"msg\":\"gan.train.done\""), std::string::npos);

  // Trace file: valid JSON containing the expected nested spans.
  const std::string trace = read_file(trace_path);
  std::string error;
  ASSERT_TRUE(gansec::obs::json_valid(trace, &error)) << error;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* span :
       {"pipeline.flow_pair_sweep", "pipeline.flow_pair", "gan.train",
        "gan.iteration", "alg3.analyze", "am.dataset.build"}) {
    EXPECT_NE(trace.find(std::string("\"") + span + "\""), std::string::npos)
        << "missing span " << span;
  }

  // Metrics snapshot: valid JSON with the cross-layer metric names.
  const std::string metrics = read_file(metrics_path);
  ASSERT_TRUE(gansec::obs::json_valid(metrics, &error)) << error;
  for (const char* name :
       {"pipeline.pairs_trained", "gan.train.iterations", "gan.train.d_loss",
        "gan.train.pair0.g_loss", "alg3.likelihood.correct",
        "alg3.likelihood.incorrect", "pool.tasks_executed",
        "am.dataset.observations"}) {
    EXPECT_NE(metrics.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "missing metric " << name;
  }

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove(log_path.c_str());
  std::remove(out_path.c_str());
}

TEST(CliSmoke, TrainWritesCheckpointThatAnalyzeAndDetectLoad) {
  namespace fs = std::filesystem;
  const fs::path dir = temp_path("gansec_smoke_persist");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cli = GANSEC_CLI_PATH;
  const std::string model = (dir / "m.cgan").string();
  const std::string quiet = " > /dev/null 2>&1";

  // The extension does not matter: every model is a gansec.model.v1
  // checkpoint.
  const std::string train = cli +
                            " train --samples 6 --bins 8 --window 0.05"
                            " --iterations 4 --model " + model + quiet;
  ASSERT_EQ(std::system(train.c_str()), 0) << train;
  EXPECT_EQ(read_file(model).substr(0, 8), "GANSECM1");

  const std::string reuse = " --model " + model + " --samples 6 --window 0.05";
  const std::string analyze = cli + " analyze" + reuse + quiet;
  EXPECT_EQ(std::system(analyze.c_str()), 0) << analyze;
  const std::string detect_out = (dir / "detect.txt").string();
  const std::string detect = cli + " detect" + reuse + " > " + detect_out +
                             " 2> /dev/null";
  EXPECT_EQ(std::system(detect.c_str()), 0) << detect;
  EXPECT_NE(read_file(detect_out).find("integrity attacks:"),
            std::string::npos);

  // A text file is not a model: the checkpoint reader rejects it.
  const std::string text_model = (dir / "text.cgan").string();
  {
    std::ofstream os(text_model);
    os << "gansec-cgan 2\n8 3 16 0.2 0 0\n2 32 32\n2 32 32\n"
          "gansec-mlp 1\nlayers 0\nend\n";
  }
  const std::string err_path = (dir / "err.txt").string();
  const std::string rejected = cli + " detect --model " + text_model +
                               " > /dev/null 2> " + err_path;
  const int rc = std::system(rejected.c_str());
  ASSERT_TRUE(WIFEXITED(rc)) << rejected;
  EXPECT_EQ(WEXITSTATUS(rc), 1) << rejected;
  EXPECT_NE(read_file(err_path).find("checkpoint: bad magic"),
            std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
