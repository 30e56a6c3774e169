// gansec_ckpt — inspect and verify gansec.model.v1 checkpoints.
//
// Usage:
//   gansec_ckpt inspect <file.gsm>
//   gansec_ckpt verify [--json OUT] <file.gsm | registry-dir>...
//
// `inspect` prints the header fields, provenance, attrs and the tensor
// directory of one checkpoint. `verify` validates every argument — a
// checkpoint file runs the full structural/CRC validation; a directory is
// treated as a ModelRegistry and every manifest entry is checked against
// its recorded size and CRC — and with --json writes a schema-versioned
// "gansec.ckpt.v1" artifact (same provenance + metric shape as bench/lint
// artifacts, so gansec_benchdiff --check validates and diffs it).
//
// Exit codes: 0 = ok/clean, 1 = verification failures, 2 = usage/IO error.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/model/checkpoint.hpp"
#include "gansec/model/registry.hpp"
#include "gansec/obs/json.hpp"
#include "gansec/obs/report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gansec;

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "gansec_ckpt: %s\n"
               "usage: gansec_ckpt inspect <file.gsm>\n"
               "       gansec_ckpt verify [--json OUT] "
               "<file.gsm | registry-dir>...\n",
               message);
  std::exit(2);
}

void print_json(const obs::JsonValue& value, int indent);

void print_json(const obs::JsonValue& value, int indent) {
  switch (value.kind()) {
    case obs::JsonValue::Kind::kNull:
      std::printf("null");
      break;
    case obs::JsonValue::Kind::kBool:
      std::printf("%s", value.as_bool() ? "true" : "false");
      break;
    case obs::JsonValue::Kind::kNumber:
      std::printf("%s", obs::json_number(value.as_number()).c_str());
      break;
    case obs::JsonValue::Kind::kString:
      std::printf("\"%s\"", value.as_string().c_str());
      break;
    case obs::JsonValue::Kind::kArray:
      std::printf("[%zu items]", value.as_array().size());
      break;
    case obs::JsonValue::Kind::kObject:
      std::printf("\n");
      for (const auto& [key, member] : value.as_object()) {
        std::printf("%*s%s: ", indent + 2, "", key.c_str());
        print_json(member, indent + 2);
        if (!member.is_object()) std::printf("\n");
      }
      break;
  }
}

int cmd_inspect(const std::string& path) {
  const model::CheckpointReader reader =
      model::CheckpointReader::from_file(path);
  std::printf("%s: %s v%u\n", path.c_str(), model::kCheckpointSchema,
              reader.version());
  std::printf("  kind:    %s\n", reader.kind().c_str());
  std::printf("  size:    %llu bytes (meta %llu, payload %llu)\n",
              static_cast<unsigned long long>(reader.file_bytes()),
              static_cast<unsigned long long>(reader.meta_bytes()),
              static_cast<unsigned long long>(reader.payload_bytes()));
  std::printf("  crc32:   %08x\n", reader.crc());
  if (const obs::JsonValue* prov = reader.provenance()) {
    std::printf("  provenance:");
    print_json(*prov, 2);
  }
  if (const obs::JsonValue* attrs = reader.attrs()) {
    std::printf("  attrs:");
    print_json(*attrs, 2);
  }
  std::printf("  tensors: %zu\n", reader.tensors().size());
  for (const model::TensorInfo& t : reader.tensors()) {
    std::printf("    %-24s %-4s %6llu x %-6llu @%-8llu %llu bytes\n",
                t.name.c_str(),
                std::string(model::dtype_name(t.dtype)).c_str(),
                static_cast<unsigned long long>(t.rows),
                static_cast<unsigned long long>(t.cols),
                static_cast<unsigned long long>(t.offset),
                static_cast<unsigned long long>(t.bytes));
  }
  return 0;
}

struct VerifyStats {
  std::size_t files = 0;
  std::size_t failures = 0;
  std::uint64_t bytes = 0;
};

void verify_file(const std::string& path, VerifyStats& stats) {
  ++stats.files;
  try {
    const model::CheckpointReader reader =
        model::CheckpointReader::from_file(path);
    stats.bytes += reader.file_bytes();
    std::printf("  ok    %s (%s, %llu bytes, crc %08x)\n", path.c_str(),
                reader.kind().c_str(),
                static_cast<unsigned long long>(reader.file_bytes()),
                reader.crc());
  } catch (const Error& e) {
    ++stats.failures;
    std::printf("  FAIL  %s: %s\n", path.c_str(), e.what());
  }
}

void verify_registry(const std::string& dir, VerifyStats& stats) {
  const model::ModelRegistry registry(dir);
  const auto entries = registry.entries();
  std::printf("registry %s: %zu entr%s\n", dir.c_str(), entries.size(),
              entries.size() == 1 ? "y" : "ies");
  for (const auto& entry : entries) {
    ++stats.files;
    const std::string path = (fs::path(dir) / entry.file).string();
    try {
      const model::CheckpointReader reader =
          model::CheckpointReader::from_file(path);
      if (reader.file_bytes() != entry.bytes ||
          reader.crc() != entry.crc32) {
        throw ParseError("checkpoint does not match its manifest record");
      }
      stats.bytes += reader.file_bytes();
      std::printf("  ok    %s (generation %llu, crc %08x)\n",
                  entry.file.c_str(),
                  static_cast<unsigned long long>(entry.generation),
                  reader.crc());
    } catch (const Error& e) {
      ++stats.failures;
      std::printf("  FAIL  %s: %s\n", entry.file.c_str(), e.what());
    }
  }
}

std::string artifact_json(const VerifyStats& stats, double wall_ms) {
  using obs::json_escape;
  using obs::json_number;
  const auto unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string json = "{\"schema\":\"gansec.ckpt.v1\"";
  json += ",\"name\":\"gansec_ckpt\"";
  json += ",\"created_unix_ms\":" + std::to_string(unix_ms);
  json += ",\"build\":" + obs::build_info_json(obs::build_info());
  const obs::HostInfo host = obs::host_info();
  json += ",\"host\":{\"hostname\":\"" + json_escape(host.hostname) +
          "\",\"os\":\"" + json_escape(host.os) +
          "\",\"hardware_concurrency\":" +
          std::to_string(host.hardware_concurrency) + '}';
  json += ",\"wall_ms\":" + json_number(wall_ms);
  json += ",\"metrics\":{";
  json += "\"ckpt.files\":{\"value\":" + std::to_string(stats.files) +
          ",\"direction\":\"two_sided\"}";
  json += ",\"ckpt.failures\":{\"value\":" + std::to_string(stats.failures) +
          ",\"direction\":\"lower_is_better\"}";
  json += ",\"ckpt.bytes\":{\"value\":" + std::to_string(stats.bytes) +
          ",\"direction\":\"two_sided\"}";
  json += "},\"checks\":{\"clean\":";
  json += stats.failures == 0 ? "true" : "false";
  json += "}}";
  std::string error;
  if (!obs::json_valid(json, &error)) {
    throw InvalidArgumentError("gansec_ckpt: artifact is not valid JSON: " +
                               error);
  }
  return json;
}

int cmd_verify(const std::vector<std::string>& paths,
               const std::string& json_path) {
  const auto start = std::chrono::steady_clock::now();
  VerifyStats stats;
  for (const std::string& path : paths) {
    if (fs::is_directory(path)) {
      verify_registry(path, stats);
    } else {
      verify_file(path, stats);
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("gansec_ckpt: %zu file(s), %zu failure(s)\n", stats.files,
              stats.failures);
  if (!json_path.empty()) {
    const fs::path out(json_path);
    if (out.has_parent_path()) fs::create_directories(out.parent_path());
    std::ofstream file(out);
    if (!file) throw IoError("gansec_ckpt: cannot write " + json_path);
    file << artifact_json(stats, wall_ms) << '\n';
  }
  return stats.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_error("expected a subcommand");
  const std::string command = argv[1];
  std::string json_path;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json") {
      if (i + 1 >= argc) usage_error("--json needs a file");
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown flag");
    } else {
      paths.push_back(arg);
    }
  }

  try {
    if (command == "inspect") {
      if (paths.size() != 1) usage_error("inspect takes exactly one file");
      return cmd_inspect(paths[0]);
    }
    if (command == "verify") {
      if (paths.empty()) usage_error("verify needs at least one path");
      return cmd_verify(paths, json_path);
    }
    usage_error("unknown subcommand");
  } catch (const Error& e) {
    std::fprintf(stderr, "gansec_ckpt: %s\n", e.what());
    return 2;
  }
}
