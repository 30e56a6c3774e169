// Smoke tests for the checkpoint toolbox: drives the real gansec_ckpt
// binary (inspect / verify, including registry directories and the
// gansec.ckpt.v1 artifact) and cross-checks the artifact with the real
// gansec_benchdiff binary. Binary paths are injected at configure time.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gansec/gan/cgan.hpp"
#include "gansec/model/registry.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/obs/json.hpp"

namespace gansec::model {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir() {
  const fs::path dir = fs::path(::testing::TempDir()) / "gansec_ckpt_tool";
  fs::create_directories(dir);
  return dir;
}

/// std::system exit code (portable enough for the POSIX CI hosts).
int run(const std::string& command) {
  const int rc = std::system(command.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

gan::CganTopology tiny_topology() {
  gan::CganTopology t;
  t.data_dim = 4;
  t.cond_dim = 2;
  t.noise_dim = 3;
  t.generator_hidden = {8};
  t.discriminator_hidden = {8};
  return t;
}

TEST(CkptTool, InspectPrintsHeaderAndTensors) {
  const fs::path dir = temp_dir();
  const fs::path ckpt = dir / "inspect_me.gsm";
  gan::Cgan model(tiny_topology(), 3);
  save_cgan_checkpoint(model, ckpt.string());

  const fs::path out = dir / "inspect.txt";
  ASSERT_EQ(run(std::string(GANSEC_CKPT_PATH) + " inspect " + ckpt.string() +
                " > " + out.string()),
            0);
  const std::string text = read_file(out);
  EXPECT_NE(text.find("gansec.model.v1"), std::string::npos);
  EXPECT_NE(text.find("kind:    cgan"), std::string::npos);
  EXPECT_NE(text.find("g.l0.weight"), std::string::npos);
  EXPECT_NE(text.find("d.l0.weight"), std::string::npos);
}

TEST(CkptTool, VerifyCleanAndCorruptFiles) {
  const fs::path dir = temp_dir();
  const fs::path good = dir / "good.gsm";
  gan::Cgan model(tiny_topology(), 3);
  save_cgan_checkpoint(model, good.string());
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " verify " + good.string() +
                " > /dev/null"),
            0);

  // A corrupt file makes verify exit 1 (failures found), not 2 (crash).
  const fs::path bad = dir / "bad.gsm";
  fs::copy_file(good, bad, fs::copy_options::overwrite_existing);
  fs::resize_file(bad, fs::file_size(bad) - 7);
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " verify " + bad.string() +
                " > /dev/null"),
            1);
  // Mixed arguments: one failure still means exit 1.
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " verify " + good.string() +
                ' ' + bad.string() + " > /dev/null"),
            1);
}

TEST(CkptTool, VerifyRegistryDirectoryAndArtifact) {
  const fs::path dir = temp_dir() / "registry";
  fs::remove_all(dir);
  ModelRegistry registry(dir);
  gan::Cgan model(tiny_topology(), 3);
  registry.save({"F1", "F16"}, model);
  registry.save({"F1", "F17"}, model);

  const fs::path artifact = temp_dir() / "ckpt_artifact.json";
  ASSERT_EQ(run(std::string(GANSEC_CKPT_PATH) + " verify --json " +
                artifact.string() + ' ' + dir.string() + " > /dev/null"),
            0);

  // The artifact is valid JSON with the documented schema and metrics.
  const obs::JsonValue root = obs::parse_json_file(artifact.string());
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("schema")->as_string(), "gansec.ckpt.v1");
  EXPECT_EQ(root.find_path({"metrics", "ckpt.files", "value"})->as_number(),
            2.0);
  EXPECT_EQ(
      root.find_path({"metrics", "ckpt.failures", "value"})->as_number(),
      0.0);
  EXPECT_TRUE(root.find_path({"checks", "clean"})->as_bool());

  // gansec_benchdiff accepts it for --check and for self-diff.
  ASSERT_EQ(run(std::string(GANSEC_BENCHDIFF_PATH) + " --check " +
                artifact.string() + " > /dev/null"),
            0);
  EXPECT_EQ(run(std::string(GANSEC_BENCHDIFF_PATH) + ' ' + artifact.string() +
                ' ' + artifact.string() + " > /dev/null"),
            0);
}

TEST(CkptTool, UsageErrorsExitTwo) {
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " 2> /dev/null"), 2);
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " frobnicate 2> /dev/null"),
            2);
  // One model format: there is no other format to convert to.
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) + " convert a.gsm b.txt" +
                " 2> /dev/null"),
            2);
  EXPECT_EQ(run(std::string(GANSEC_CKPT_PATH) +
                " inspect /nonexistent.gsm 2> /dev/null"),
            2);
}

}  // namespace
}  // namespace gansec::model
