// gansec_lint rule-engine tests, driven by the checked-in fixture corpus
// under tests/lint/fixtures/: every rule has a clean snippet that must
// produce no diagnostics and at least one bad snippet whose exact rule id,
// file, and line the linter must report. A final set of tests drives the
// real gansec_lint binary (GANSEC_LINT_PATH) and validates its
// gansec.lint.v1 JSON artifact with gansec_benchdiff --check.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gansec/obs/json.hpp"
#include "lint.hpp"

namespace {

using gansec::lint::Diagnostic;
using gansec::lint::Linter;
using gansec::lint::Options;

std::string fixture_path(const std::string& relative) {
  return std::string(GANSEC_LINT_FIXTURES) + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Lints the given fixture files (relative to the corpus root) in one
/// Linter instance and returns it with finish() already applied.
Linter lint_fixtures(const std::vector<std::string>& relatives,
                     const std::string& manifest_relative = "") {
  Options options;
  if (!manifest_relative.empty()) {
    options.manifest_path = fixture_path(manifest_relative);
  }
  Linter linter(options);
  for (const std::string& rel : relatives) {
    const std::string path = fixture_path(rel);
    linter.check_file(path, read_file(path));
  }
  linter.finish();
  return linter;
}

struct ExpectedDiag {
  std::string rule;
  std::size_t line;
};

/// Asserts the diagnostics are exactly `expected`, in order, all
/// attributed to a file whose path ends with `file_suffix`.
void expect_exact(const Linter& linter,
                  const std::vector<ExpectedDiag>& expected,
                  const std::string& file_suffix) {
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), expected.size()) << [&] {
    std::ostringstream os;
    for (const Diagnostic& d : diags) {
      os << "\n  " << d.file << ":" << d.line << ": [" << d.rule << "] "
         << d.message;
    }
    return os.str();
  }();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(diags[i].rule, expected[i].rule) << "diagnostic " << i;
    EXPECT_EQ(diags[i].line, expected[i].line) << "diagnostic " << i;
    EXPECT_TRUE(diags[i].file.size() >= file_suffix.size() &&
                diags[i].file.compare(diags[i].file.size() -
                                          file_suffix.size(),
                                      file_suffix.size(), file_suffix) == 0)
        << diags[i].file << " does not end with " << file_suffix;
  }
}

// ---- Layering ---------------------------------------------------------------

TEST(LintLayering, DownwardIncludeIsClean) {
  const Linter linter = lint_fixtures({"good/src/nn/layering_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintLayering, UpwardIncludeIsFlagged) {
  const Linter linter = lint_fixtures({"bad/src/nn/layering_upward.cpp"});
  expect_exact(linter, {{"layering", 3}}, "layering_upward.cpp");
}

TEST(LintLayering, LateralIncludeIsFlagged) {
  const Linter linter = lint_fixtures({"bad/src/stats/layering_lateral.cpp"});
  expect_exact(linter, {{"layering", 3}}, "layering_lateral.cpp");
}

TEST(LintLayering, ModuleCycleIsDetected) {
  const Linter linter =
      lint_fixtures({"cycle/src/alpha/a.cpp", "cycle/src/beta/b.cpp"});
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].rule, "layer-cycle");
  EXPECT_NE(diags[0].message.find("alpha"), std::string::npos);
  EXPECT_NE(diags[0].message.find("beta"), std::string::npos);
}

TEST(LintLayering, AcyclicUnknownModulesAreClean) {
  // alpha -> beta alone (no reverse edge) must not report a cycle.
  const Linter linter = lint_fixtures({"cycle/src/alpha/a.cpp"});
  expect_exact(linter, {}, "");
}

// ---- Hot-path allocation discipline -----------------------------------------

TEST(LintHotPath, CompliantRegionIsClean) {
  const Linter linter = lint_fixtures({"good/hotpath_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintHotPath, AllocationsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/hotpath_alloc.cpp"});
  expect_exact(linter,
               {{"hotpath-alloc", 10},
                {"hotpath-alloc", 11},
                {"hotpath-alloc", 12},
                {"hotpath-alloc", 13}},
               "hotpath_alloc.cpp");
}

TEST(LintHotPath, StdFunctionIsFlagged) {
  const Linter linter = lint_fixtures({"bad/hotpath_function.cpp"});
  expect_exact(linter, {{"hotpath-function", 8}}, "hotpath_function.cpp");
}

TEST(LintHotPath, ValueKernelCallsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/hotpath_kernel.cpp"});
  expect_exact(linter, {{"hotpath-kernel", 9}, {"hotpath-kernel", 10}},
               "hotpath_kernel.cpp");
}

TEST(LintHotPath, ServeRingShapeIsClean) {
  // The streaming runtime's per-window path (atomic sequence handshakes +
  // moves into preallocated ring slots) must lint clean as written.
  const Linter linter = lint_fixtures({"good/serve_hotpath_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintHotPath, ServeRingAllocationsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/serve_hotpath_ring.cpp"});
  expect_exact(linter, {{"hotpath-alloc", 12}, {"hotpath-alloc", 13}},
               "serve_hotpath_ring.cpp");
}

// ---- Determinism ------------------------------------------------------------

TEST(LintDeterminism, SeededRngIsClean) {
  const Linter linter = lint_fixtures({"good/determinism_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintDeterminism, BannedEntropySourcesAreFlagged) {
  const Linter linter = lint_fixtures({"bad/determinism_rng.cpp"});
  expect_exact(linter,
               {{"determinism-rng", 10},
                {"determinism-rng", 11},
                {"determinism-rng", 12},
                {"determinism-rng", 13}},
               "determinism_rng.cpp");
}

TEST(LintDeterminism, UnorderedIterationIsFlagged) {
  const Linter linter = lint_fixtures({"bad/determinism_unordered.cpp"});
  expect_exact(linter,
               {{"determinism-unordered", 11}, {"determinism-unordered", 14}},
               "determinism_unordered.cpp");
}

// ---- Observability hygiene --------------------------------------------------

TEST(LintObs, LiteralNamesListedInManifestAreClean) {
  const Linter linter =
      lint_fixtures({"good/obs_ok.cpp"}, "manifest_good.txt");
  expect_exact(linter, {}, "");
}

TEST(LintObs, DynamicNameIsFlagged) {
  const Linter linter = lint_fixtures({"bad/obs_literal.cpp"});
  expect_exact(linter, {{"obs-name-literal", 8}}, "obs_literal.cpp");
}

TEST(LintObs, MalformedNamesAreFlagged) {
  const Linter linter = lint_fixtures({"bad/obs_format.cpp"});
  expect_exact(linter, {{"obs-name-format", 8}, {"obs-name-format", 9}},
               "obs_format.cpp");
}

TEST(LintObs, UnlistedRegistrationIsFlagged) {
  const Linter linter = lint_fixtures(
      {"good/obs_ok.cpp", "bad/obs_manifest.cpp"}, "manifest_good.txt");
  expect_exact(linter, {{"obs-manifest", 8}}, "obs_manifest.cpp");
}

TEST(LintObs, StaleManifestEntryIsFlagged) {
  const Linter linter =
      lint_fixtures({"good/obs_ok.cpp"}, "manifest_stale.txt");
  expect_exact(linter, {{"obs-manifest", 4}}, "manifest_stale.txt");
}

TEST(LintObs, MalformedManifestIsFlagged) {
  const Linter linter =
      lint_fixtures({"good/obs_ok.cpp"}, "manifest_bad.txt");
  // Lines 3 and 4 are malformed; with no valid entries left, both of
  // obs_ok.cpp's registrations are unlisted.
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 4U);
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "obs-manifest");
  EXPECT_EQ(diags[0].line, 3U);
  EXPECT_EQ(diags[1].line, 4U);
}

// ---- Signal-context async-signal-safety -------------------------------------

TEST(LintSignal, CompliantHandlerIsClean) {
  const Linter linter = lint_fixtures({"good/signal_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintSignal, UnsafeConstructsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/signal_unsafe.cpp"});
  expect_exact(linter,
               {{"signal-unsafe", 14},
                {"signal-unsafe", 15},
                {"signal-unsafe", 16},
                {"signal-unsafe", 17},
                {"signal-unsafe", 18},
                {"signal-unsafe", 19},
                {"signal-unsafe", 20},
                {"signal-unsafe", 21}},
               "signal_unsafe.cpp");
}

TEST(LintSignal, IncidentDumpPatternIsClean) {
  // The obs/incident.cpp crash path: preallocated buffers, atomics,
  // manual formatting, raw write(2) — nothing for the rule to flag.
  const Linter linter = lint_fixtures({"good/incident_dump_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintSignal, NaiveIncidentDumpIsFlagged) {
  // A crash dump written the obvious way: std::string for the path, a
  // lock around the file, stdio to format — every line is a bug in a
  // signal context and every line must be flagged.
  const Linter linter = lint_fixtures({"bad/incident_dump_unsafe.cpp"});
  expect_exact(linter,
               {{"signal-unsafe", 13},
                {"signal-unsafe", 14},
                {"signal-unsafe", 15},
                {"signal-unsafe", 16},
                {"signal-unsafe", 17},
                {"signal-unsafe", 18},
                {"signal-unsafe", 19}},
               "incident_dump_unsafe.cpp");
}

TEST(LintSignal, SameConstructOutsideRegionIsClean) {
  Linter linter(Options{});
  // Allocation is only a violation between the region markers.
  linter.check_file("src/obs/sample.cpp",
                    "inline int* before() { return new int(1); }\n"
                    "// gansec-lint: signal-context\n"
                    "inline void handler(int) {}\n"
                    "// gansec-lint: end-signal-context\n"
                    "inline int* after() { return new int(2); }\n");
  linter.finish();
  EXPECT_TRUE(linter.diagnostics().empty());
}

TEST(LintSignal, UnclosedRegionIsFlagged) {
  Linter linter(Options{});
  linter.check_file("src/obs/sample.cpp",
                    "// gansec-lint: signal-context\n"
                    "inline void handler(int) {}\n");
  linter.finish();
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].rule, "lint-directive");
  EXPECT_NE(diags[0].message.find("never closed"), std::string::npos);
}

TEST(LintSignal, AllowSuppressesInsideRegion) {
  Linter linter(Options{});
  linter.check_file(
      "src/obs/sample.cpp",
      "// gansec-lint: signal-context\n"
      "inline void handler(int) {\n"
      "  // gansec-lint: allow(signal-unsafe)\n"
      "  int* p = new int(1);\n"
      "  static_cast<void>(p);\n"
      "}\n"
      "// gansec-lint: end-signal-context\n");
  linter.finish();
  EXPECT_TRUE(linter.diagnostics().empty());
  EXPECT_EQ(linter.suppressions_used(), 1U);
}

// ---- Error discipline -------------------------------------------------------

TEST(LintErrors, RethrowingCatchAllIsClean) {
  const Linter linter = lint_fixtures({"good/error_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintErrors, SwallowedCatchAllIsFlagged) {
  const Linter linter = lint_fixtures({"bad/error_swallow.cpp"});
  expect_exact(linter, {{"error-swallow", 10}}, "error_swallow.cpp");
}

TEST(LintErrors, ForeignThrowTypesAreFlagged) {
  const Linter linter = lint_fixtures({"bad/error_type.cpp"});
  expect_exact(linter, {{"error-type", 8}, {"error-type", 9}},
               "error_type.cpp");
}

// ---- Directives and suppression ---------------------------------------------

TEST(LintDirectives, AllowSuppressesSameAndPrecedingLine) {
  const Linter linter = lint_fixtures({"good/directive_ok.cpp"});
  expect_exact(linter, {}, "");
  EXPECT_EQ(linter.suppressions_used(), 2U);
}

TEST(LintDirectives, MalformedDirectivesAreFlagged) {
  const Linter linter = lint_fixtures({"bad/directive_unknown.cpp"});
  expect_exact(linter,
               {{"lint-directive", 7},
                {"lint-directive", 9},
                {"lint-directive", 11},
                {"lint-directive", 13}},
               "directive_unknown.cpp");
}

TEST(LintDirectives, DirectiveInsideStringLiteralIsIgnored) {
  Linter linter(Options{});
  // The marker only counts inside comments; string content is inert.
  linter.check_file("tools/sample.cpp",
                    "const char* s = \"// gansec-lint: hot-path\";\n"
                    "int* leak = new int(3);\n");
  linter.finish();
  EXPECT_TRUE(linter.diagnostics().empty());
}

// ---- Lexer regressions ------------------------------------------------------

TEST(LintLexer, PrefixedRawStringLexesAsOneLiteral) {
  const auto tokens = gansec::lint::tokenize(
      "const char* k = u8R\"(new int inside \" quotes)\";");
  std::size_t strings = 0;
  for (const auto& t : tokens) {
    if (t.kind == gansec::lint::TokKind::kString) ++strings;
    EXPECT_NE(t.text, "new") << "raw-string body leaked into the stream";
  }
  EXPECT_EQ(strings, 1U);
}

TEST(LintLexer, DigitSeparatorsStayInOneNumber) {
  const auto tokens = gansec::lint::tokenize("const long n = 1'000'000;");
  bool found = false;
  for (const auto& t : tokens) {
    if (t.kind == gansec::lint::TokKind::kNumber && t.text == "1'000'000") {
      found = true;
    }
    EXPECT_NE(t.kind, gansec::lint::TokKind::kChar)
        << "separator swallowed as a char literal: " << t.text;
  }
  EXPECT_TRUE(found);
}

TEST(LintLexer, SplicedLineCommentSwallowsNextLine) {
  const auto tokens = gansec::lint::tokenize(
      "int a = 1; // spliced \\\nint* leak = new int(3);\nint c = 2;");
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "new") << "spliced comment line reached the rules";
    EXPECT_NE(t.text, "leak");
  }
}

TEST(LintLexer, HotPathRuleIgnoresRawStringContents) {
  Linter linter{Options{}};
  linter.check_file("src/nn/raw.cpp",
                    "// gansec-lint: hot-path\n"
                    "const char* k = R\"(v.push_back(new int))\";\n"
                    "// gansec-lint: end-hot-path\n");
  linter.finish();
  EXPECT_TRUE(linter.diagnostics().empty());
}

// ---- Interprocedural call-graph propagation ---------------------------------

TEST(LintCallGraph, DirectCalleeViolationCarriesChain) {
  const Linter linter = lint_fixtures({"callgraph/direct.cpp"});
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].rule, "hotpath-alloc");
  EXPECT_EQ(diags[0].line, 9U);
  ASSERT_EQ(diags[0].chain.size(), 2U);
  EXPECT_NE(diags[0].chain[0].find("fx::driver"), std::string::npos);
  EXPECT_NE(diags[0].chain[0].find(":14"), std::string::npos);
  EXPECT_NE(diags[0].chain[1].find("fx::helper"), std::string::npos);
  EXPECT_NE(diags[0].message.find("call chain: fx::driver"),
            std::string::npos);
}

TEST(LintCallGraph, TwoHopChainNamesEveryHop) {
  const Linter linter = lint_fixtures({"callgraph/transitive.cpp"});
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].rule, "hotpath-alloc");
  EXPECT_EQ(diags[0].line, 6U);
  ASSERT_EQ(diags[0].chain.size(), 3U);
  EXPECT_NE(diags[0].chain[0].find("fx::driver"), std::string::npos);
  EXPECT_NE(diags[0].chain[0].find(":15"), std::string::npos);
  EXPECT_NE(diags[0].chain[1].find("fx::middle"), std::string::npos);
  EXPECT_NE(diags[0].chain[1].find(":10"), std::string::npos);
  EXPECT_NE(diags[0].chain[2].find("fx::leaf"), std::string::npos);
}

TEST(LintCallGraph, VirtualEdgeIsOpaqueAndNotTraversed) {
  const Linter linter = lint_fixtures({"callgraph/opaque_virtual.cpp"});
  expect_exact(linter, {}, "");
  bool recorded = false;
  for (const auto& e : linter.call_edges()) {
    if (e.callee == "fx::Buffering::consume" && e.opaque &&
        e.opaque_reason == "virtual") {
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded) << "virtual edge missing from evidence";
}

TEST(LintCallGraph, FunctionObjectEdgeIsOpaqueAndNotTraversed) {
  const Linter linter = lint_fixtures({"callgraph/opaque_function.cpp"});
  expect_exact(linter, {}, "");
  bool recorded = false;
  for (const auto& e : linter.call_edges()) {
    if (e.caller == "fx::driver" && e.callee == "thunk" && e.opaque &&
        e.opaque_reason == "std::function") {
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded) << "std::function edge missing from evidence";
}

TEST(LintCallGraph, SignalContextPropagatesWithChains) {
  const Linter linter = lint_fixtures({"callgraph/signal_transitive.cpp"});
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 2U);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "signal-unsafe");
    ASSERT_EQ(d.chain.size(), 2U);
    EXPECT_NE(d.chain[0].find("fx::handler"), std::string::npos);
    EXPECT_NE(d.chain[0].find(":19"), std::string::npos);
    EXPECT_NE(d.chain[1].find("fx::log_state"), std::string::npos);
  }
  EXPECT_EQ(diags[0].line, 12U);
  EXPECT_EQ(diags[1].line, 14U);
}

TEST(LintCallGraph, TemplateQualifiedCallsResolvePastTheirArguments) {
  const Linter linter = lint_fixtures({"callgraph/template_qualified.cpp"});
  const auto& diags = linter.diagnostics();
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].rule, "hotpath-alloc");
  EXPECT_EQ(diags[0].line, 21U);
  ASSERT_EQ(diags[0].chain.size(), 2U);
  EXPECT_NE(diags[0].chain[1].find("fx::Box::make"), std::string::npos);
  bool boxed = false;
  for (const auto& e : linter.call_edges()) {
    EXPECT_NE(e.callee, "fx::Grid::max") << "std:: call resolved into fx";
    if (e.caller == "fx::root" && e.callee == "fx::Box::make") boxed = true;
  }
  EXPECT_TRUE(boxed) << "template-qualified edge missing";
}

TEST(LintCallGraph, ReachabilityEvidenceIsExported) {
  const Linter linter = lint_fixtures({"callgraph/direct.cpp"});
  bool reached = false;
  for (const auto& r : linter.reachability()) {
    if (r.constraint == "hot-path" && r.function == "fx::helper") {
      reached = true;
      ASSERT_EQ(r.chain.size(), 1U);
      EXPECT_NE(r.chain[0].find("fx::driver"), std::string::npos);
    }
  }
  EXPECT_TRUE(reached);
  bool helper_hot = false;
  for (const auto& f : linter.functions()) {
    if (f.qualified == "fx::helper") helper_hot = f.hot;
  }
  EXPECT_TRUE(helper_hot);
}

// ---- view-lifetime ----------------------------------------------------------

TEST(LintViewLifetime, CompliantShapesAreClean) {
  const Linter linter = lint_fixtures({"good/view_lifetime_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintViewLifetime, EscapingViewsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/view_lifetime.cpp"});
  expect_exact(linter,
               {{"view-lifetime", 22},
                {"view-lifetime", 28},
                {"view-lifetime", 34}},
               "view_lifetime.cpp");
}

// ---- atomics-ordering -------------------------------------------------------

TEST(LintAtomics, CompliantSeqlockIsClean) {
  const Linter linter = lint_fixtures({"good/atomics_ok.cpp"});
  expect_exact(linter, {}, "");
}

TEST(LintAtomics, OrderingViolationsAreFlagged) {
  const Linter linter = lint_fixtures({"bad/atomics_order.cpp"});
  expect_exact(linter,
               {{"atomics-ordering", 14},
                {"atomics-ordering", 19},
                {"atomics-ordering", 29}},
               "atomics_order.cpp");
}

// ---- unused-allow -----------------------------------------------------------

TEST(LintUnusedAllow, StaleSuppressionIsFlagged) {
  const Linter linter = lint_fixtures({"bad/unused_allow.cpp"});
  expect_exact(linter, {{"unused-allow", 5}}, "unused_allow.cpp");
}

TEST(LintUnusedAllow, EarnedSuppressionIsNotFlagged) {
  Linter linter{Options{}};
  linter.check_file("src/nn/allowed.cpp",
                    "// gansec-lint: hot-path\n"
                    "// gansec-lint: allow(hotpath-alloc)\n"
                    "int* keep = new int(1);\n"
                    "// gansec-lint: end-hot-path\n");
  linter.finish();
  EXPECT_TRUE(linter.diagnostics().empty());
  EXPECT_EQ(linter.suppressions_used(), 1U);
}

// ---- CLI + artifact round trip ----------------------------------------------

std::string temp_path(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

int exit_code(int system_status) {
#if defined(_WIN32)
  return system_status;
#else
  return (system_status >> 8) & 0xFF;
#endif
}

TEST(LintCli, CleanCorpusProducesValidArtifact) {
  const std::string artifact = temp_path("gansec_lint_fixture_artifact.json");
  const std::string command = std::string(GANSEC_LINT_PATH) + " --manifest " +
                              fixture_path("manifest_good.txt") + " --json " +
                              artifact + " --quiet " + fixture_path("good");
  ASSERT_EQ(exit_code(std::system(command.c_str())), 0)
      << "command failed: " << command;

  // The artifact is schema-valid JSON with bench-style provenance...
  const gansec::obs::JsonValue root = gansec::obs::parse_json_file(artifact);
  ASSERT_TRUE(root.is_object());
  const auto* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "gansec.lint.v1");
  const auto* violations =
      root.find_path({"metrics", "lint.violations", "value"});
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->as_number(), 0.0);
  const auto* sha = root.find_path({"build", "git_sha"});
  ASSERT_NE(sha, nullptr);
  EXPECT_TRUE(sha->is_string());

  // ...that the perf-gate tool accepts as-is.
  const std::string check =
      std::string(GANSEC_BENCHDIFF_PATH) + " --check " + artifact;
  EXPECT_EQ(exit_code(std::system(check.c_str())), 0)
      << "command failed: " << check;
}

TEST(LintCli, BadCorpusExitsOne) {
  const std::string out = temp_path("gansec_lint_fixture_bad.txt");
  const std::string command = std::string(GANSEC_LINT_PATH) + " " +
                              fixture_path("bad") + " > " + out;
  ASSERT_EQ(exit_code(std::system(command.c_str())), 1)
      << "command: " << command;
  const std::string text = read_file(out);
  for (const char* rule :
       {"hotpath-alloc", "determinism-rng", "error-type", "layering"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
