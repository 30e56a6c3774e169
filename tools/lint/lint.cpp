#include "lint.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lexer.hpp"

namespace gansec::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// ---- Layering DAG ----------------------------------------------------------
//
// The declared module DAG (DESIGN.md "Static analysis & invariants"):
//
//   obs -> exec -> math -> {nn, stats, dsp} -> {gan, cpps, am}
//       -> {security, baseline, model} -> {core, serve}
//
// A module may include its own headers and any strictly lower layer.
// Lateral includes (same layer, different module) and upward includes are
// violations. `exec` is a virtual module: the execution substrate
// (core/execution.hpp, core/thread_pool.hpp and their sources) lives under
// the core/ directory because its types are in namespace gansec::core, but
// the build layers it *below* math so the GEMM kernels can dispatch
// through it (see src/core/CMakeLists.txt).
struct LayerEntry {
  const char* module;
  int layer;
};

constexpr LayerEntry kLayers[] = {
    {"obs", 0},     {"exec", 1},     {"math", 2},     {"nn", 3},
    {"stats", 3},   {"dsp", 3},      {"gan", 4},      {"cpps", 4},
    {"am", 4},      {"security", 5}, {"baseline", 5}, {"model", 5},
    {"core", 6},    {"serve", 6},
};

// Declared intra-layer edges the DAG text above cannot express. am -> cpps
// mirrors gansec_am's PUBLIC link on gansec_cpps: the AM substrate builds
// the cpps::Architecture that Algorithm 1 consumes.
constexpr std::pair<const char*, const char*> kExtraEdges[] = {
    {"am", "cpps"},
};

int layer_of(std::string_view module) {
  for (const LayerEntry& e : kLayers) {
    if (module == e.module) return e.layer;
  }
  return -1;  // unknown module: exempt from the DAG, still cycle-checked
}

bool extra_edge_allowed(std::string_view from, std::string_view to) {
  for (const auto& [f, t] : kExtraEdges) {
    if (from == f && to == t) return true;
  }
  return false;
}

// Headers physically under core/ that belong to the virtual exec module.
bool is_exec_path(std::string_view path) {
  for (const char* stem :
       {"core/execution.hpp", "core/thread_pool.hpp", "core/execution.cpp",
        "core/thread_pool.cpp"}) {
    if (path.size() >= std::string_view(stem).size() &&
        path.substr(path.size() - std::string_view(stem).size()) == stem) {
      return true;
    }
  }
  return false;
}

/// Module of a scanned file: the component after "include/gansec/" or
/// "src/", empty for unlayered files (top-level headers, tools, tests).
std::string module_of_source(std::string_view path) {
  if (is_exec_path(path)) return "exec";
  const auto component_after = [&](std::string_view marker) -> std::string {
    const std::size_t at = path.rfind(marker);
    if (at == std::string_view::npos) return "";
    const std::size_t start = at + marker.size();
    const std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) return "";  // top-level file
    return std::string(path.substr(start, slash - start));
  };
  std::string mod = component_after("include/gansec/");
  if (!mod.empty()) return mod;
  return component_after("src/");
}

/// Module of an include target ("gansec/math/matrix.hpp" -> "math");
/// empty for top-level headers (gansec/error.hpp) which any layer may use.
std::string module_of_target(std::string_view include_path) {
  if (is_exec_path(include_path)) return "exec";
  constexpr std::string_view prefix = "gansec/";
  if (include_path.substr(0, prefix.size()) != prefix) return "";
  const std::string_view rest = include_path.substr(prefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(rest.substr(0, slash));
}

// ---- Token-set tables ------------------------------------------------------

const std::set<std::string_view> kOwningContainers = {
    "vector", "string", "wstring", "basic_string", "map", "multimap",
    "set", "multiset", "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "deque", "list", "forward_list", "stringstream",
    "ostringstream", "istringstream", "valarray",
};

const std::set<std::string_view> kAllocCalls = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared",
};

const std::set<std::string_view> kGrowthCalls = {"push_back", "emplace_back"};

// Matrix value-API members with destination-passing `_into` siblings (or a
// zero-allocation equivalent); calling them on a hot path re-allocates the
// result every iteration.
const std::set<std::string_view> kValueKernels = {
    "matmul", "matmul_transposed_a", "matmul_transposed_b", "hadamard",
    "hstack", "vstack", "map", "apply", "transposed", "slice_cols",
    "slice_rows", "gather_rows", "col_sums", "row_sums", "row", "from_rows",
    "identity",
};

const std::set<std::string_view> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

const std::set<std::string_view> kMetricFns = {"counter", "gauge",
                                               "histogram", "series"};

// Calls that are not async-signal-safe (POSIX signal-safety(7)): heap
// allocation, stdio, and lock acquisition. Banned inside
// `// gansec-lint: signal-context` regions (the SIGPROF handler path).
const std::set<std::string_view> kSignalUnsafeCalls = {
    "malloc",   "calloc",  "realloc",     "free",    "aligned_alloc",
    "strdup",   "make_unique", "make_shared",
    "printf",   "fprintf", "sprintf",     "snprintf", "vsnprintf",
    "puts",     "fputs",   "fwrite",      "fopen",   "fclose",
};

// Lock/stream/owning std:: types whose mere use in a signal context is a
// bug: taking a lock can deadlock against the interrupted thread, and
// stream/string/container operations allocate.
const std::set<std::string_view> kSignalUnsafeStdTypes = {
    "mutex",         "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard",    "unique_lock",     "scoped_lock",  "shared_lock",
    "condition_variable", "condition_variable_any",
    "cout",          "cerr",            "clog",
    "string",        "ostringstream",   "stringstream", "vector",
    "function",
};

// Keywords and operators that can never name a function definition or a
// call target; keeps the symbol scanner from recording `if (...)` or
// `sizeof (...)` as calls.
const std::set<std::string_view> kNotCallable = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "noexcept", "assert", "defined", "throw",
    "do", "else", "case", "goto", "new", "delete", "operator", "requires",
    "alignas", "typeid", "co_await", "co_return", "co_yield", "using",
    "typedef", "template", "typename",
};

// std container/atomic/thread member names that the call-graph resolver
// never links to repo functions: resolving `.size()` or `.store()` by last
// name alone would fabricate edges to every repo function sharing the
// name. Repo-specific member calls (`.forward(...)`, `.acquire(...)`) are
// not on this list and resolve normally.
const std::set<std::string_view> kStdMemberNames = {
    "push_back", "emplace_back", "pop_back", "c_str", "str", "substr",
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set", "notify_one", "notify_all", "wait", "wait_for",
    "join", "detach", "joinable", "lock", "unlock", "try_lock",
    "begin", "end", "cbegin", "cend", "rbegin", "rend",
    "size", "empty", "data", "get", "count", "find", "insert", "erase",
    "at", "front", "back", "top", "pop", "push", "append", "capacity",
    "has_value", "value_or", "length", "swap",
};

const char* const kKnownRules[] = {
    "layering",        "layer-cycle",      "hotpath-alloc",
    "hotpath-function", "hotpath-kernel",  "determinism-rng",
    "determinism-unordered", "obs-name-literal", "obs-name-format",
    "obs-manifest",    "error-swallow",    "error-type",
    "signal-unsafe",   "view-lifetime",    "atomics-ordering",
    "unused-allow",    "lint-directive",
};

/// Dot-namespaced lowercase: [a-z0-9_]+(\.[a-z0-9_]+)+ — at least two
/// segments so every name carries its subsystem namespace.
bool valid_metric_name(std::string_view name) {
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  return segments + 1 >= 2;
}

std::string strip_quotes(std::string_view literal) {
  if (literal.size() >= 2 && literal.front() == '"' &&
      literal.back() == '"') {
    return std::string(literal.substr(1, literal.size() - 2));
  }
  return std::string(literal);
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// ---- Significant-token stream helpers --------------------------------------

std::string_view tok_text(const std::vector<Token>& sig, std::size_t i) {
  return i < sig.size() ? std::string_view(sig[i].text) : std::string_view();
}

TokKind tok_kind(const std::vector<Token>& sig, std::size_t i) {
  return i < sig.size() ? sig[i].kind : TokKind::kPunct;
}

std::string_view tok_prev(const std::vector<Token>& sig, std::size_t i) {
  return i == 0 ? std::string_view() : std::string_view(sig[i - 1].text);
}

/// Skips a balanced template argument list starting at `i` (which must be
/// '<'); returns the index one past the closing '>'. Unbalanced input
/// returns the end of the stream.
std::size_t skip_template_args(const std::vector<Token>& sig, std::size_t i) {
  std::size_t depth = 0;
  while (i < sig.size()) {
    if (tok_text(sig, i) == "<") ++depth;
    if (tok_text(sig, i) == ">") {
      if (--depth == 0) return i + 1;
    }
    if (tok_text(sig, i) == ";") return i;  // not a template list after all
    ++i;
  }
  return i;
}

/// Returns the index of the '<' that opens the template argument list
/// closed by the '>' at `close`, or sig.size() when there is none.
std::size_t template_args_open(const std::vector<Token>& sig,
                               std::size_t close) {
  std::size_t depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    const std::string_view t = tok_text(sig, i);
    if (t == ">") ++depth;
    if (t == "<" && --depth == 0) return i;
    if (t == ";" || t == "{" || t == "}") break;
  }
  return sig.size();
}

/// Returns the index one past the ')' matching the '(' at `i`.
std::size_t skip_parens(const std::vector<Token>& sig, std::size_t i) {
  std::size_t depth = 0;
  for (; i < sig.size(); ++i) {
    if (tok_text(sig, i) == "(") ++depth;
    if (tok_text(sig, i) == ")" && --depth == 0) return i + 1;
  }
  return i;
}

/// Returns the sig index of the '}' matching the '{' at `open`.
std::size_t match_brace(const std::vector<Token>& sig, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t j = open; j < sig.size(); ++j) {
    if (tok_text(sig, j) == "{") ++depth;
    else if (tok_text(sig, j) == "}" && --depth == 0) return j;
  }
  return sig.size();
}

// ---- Hot-path / signal-context token checks --------------------------------
//
// Shared between the lexical region pass (pass 3 of check_file, `ctx` =
// "inside a hot-path region") and the transitive body re-scan in finish()
// (`ctx` = "in hot-path-reachable function '...'"). Each runs the checks
// for the token at `i` and returns the index the caller should resume
// from (the caller's ++i still applies).

template <typename Emit>
std::size_t check_hot_token(const std::vector<Token>& sig, std::size_t i,
                            const std::string& ctx, const Emit& emit) {
  const Token& tok = sig[i];
  if (tok.kind != TokKind::kIdentifier) return i;
  const std::string_view id = tok.text;
  const std::string_view prev = tok_prev(sig, i);
  const std::string_view next = tok_text(sig, i + 1);
  // Error-path exemption: an allocation lexically inside a `throw`
  // statement only executes once the invariant is already broken, so it
  // never costs the hot path anything (building the what() message must
  // allocate anyway).
  if (id != "throw") {
    for (std::size_t b = i; b > 0; --b) {
      const std::string_view t = tok_text(sig, b - 1);
      if (t == ";" || t == "{" || t == "}") break;
      if (t == "throw") return i;
    }
  }
  if (id == "new" && prev != "operator") {
    // Any expression-context `new` allocates; only `operator new`
    // declarations (none expected on hot paths) are exempt.
    emit("hotpath-alloc", tok.line, "operator new " + ctx);
  } else if (kAllocCalls.count(id) != 0 && (next == "(" || next == "<")) {
    emit("hotpath-alloc", tok.line,
         "allocating call '" + std::string(id) + "' " + ctx);
  } else if (kGrowthCalls.count(id) != 0 && (prev == "." || prev == "->") &&
             next == "(") {
    emit("hotpath-alloc", tok.line,
         "container growth '" + std::string(id) + "' " + ctx +
             " (acquire workspace capacity up front)");
  } else if (id == "std" && next == "::" &&
             tok_text(sig, i + 2) == "function") {
    emit("hotpath-function", tok.line,
         "std::function " + ctx +
             " (type-erased calls allocate and cannot inline; take a "
             "template parameter)");
  } else if (id == "std" && next == "::" &&
             kOwningContainers.count(tok_text(sig, i + 2)) != 0) {
    std::size_t j = i + 3;
    if (tok_text(sig, j) == "<") j = skip_template_args(sig, j);
    if (tok_text(sig, j) != "&" && tok_text(sig, j) != "&&" &&
        tok_text(sig, j) != "*") {
      emit("hotpath-alloc", tok.line,
           "owning std::" + std::string(tok_text(sig, i + 2)) +
               " constructed " + ctx);
    }
    return j - 1;  // do not re-scan the template arguments
  } else if (kValueKernels.count(id) != 0 &&
             (prev == "." || prev == "->" || prev == "::") && next == "(") {
    emit("hotpath-kernel", tok.line,
         "allocating Matrix value call '" + std::string(id) + "' " + ctx +
             " (use the '_into' kernel)");
  }
  return i;
}

template <typename Emit>
std::size_t check_signal_token(const std::vector<Token>& sig, std::size_t i,
                               const std::string& ctx, const Emit& emit) {
  const Token& tok = sig[i];
  if (tok.kind != TokKind::kIdentifier) return i;
  const std::string_view id = tok.text;
  const std::string_view prev = tok_prev(sig, i);
  const std::string_view next = tok_text(sig, i + 1);
  if (id == "new" && prev != "operator") {
    emit("signal-unsafe", tok.line,
         "operator new " + ctx + " (allocation is not async-signal-safe)");
  } else if (id == "throw") {
    emit("signal-unsafe", tok.line,
         "throwing " + ctx +
             " (unwinding through a signal frame is undefined)");
  } else if (kSignalUnsafeCalls.count(id) != 0 &&
             (next == "(" || next == "<")) {
    emit("signal-unsafe", tok.line,
         "call '" + std::string(id) + "' " + ctx +
             " is not async-signal-safe");
  } else if ((id == "lock" || id == "unlock" || id == "try_lock") &&
             (prev == "." || prev == "->") && next == "(") {
    emit("signal-unsafe", tok.line,
         "lock operation '" + std::string(id) + "' " + ctx +
             " can deadlock against the interrupted thread");
  } else if (id == "std" && next == "::" &&
             kSignalUnsafeStdTypes.count(tok_text(sig, i + 2)) != 0) {
    emit("signal-unsafe", tok.line,
         "std::" + std::string(tok_text(sig, i + 2)) + " " + ctx +
             " is not async-signal-safe");
  } else if (id.size() > 10 && id.substr(0, 11) == "GANSEC_LOG_") {
    emit("signal-unsafe", tok.line,
         "logging " + ctx + " (sinks allocate and take locks)");
  }
  return i;
}

}  // namespace

Linter::Linter(Options options) : options_(std::move(options)) {}

bool Linter::known_rule(std::string_view rule) {
  for (const char* r : kKnownRules) {
    if (rule == r) return true;
  }
  return false;
}

void Linter::check_file(const std::string& path, std::string_view source) {
  ++files_checked_;
  const std::vector<Token> tokens = tokenize(source);
  files_.push_back({});
  const std::size_t file_index = files_.size() - 1;
  FileState& state = files_[file_index];
  state.path = path;

  std::vector<Diagnostic> pending;
  const auto emit = [&](const char* rule, std::size_t line,
                        std::string message) {
    pending.push_back({rule, path, line, std::move(message), {}});
  };

  // ---- Pass 0: directives (allow map, hot/signal/seqlock regions) ----------
  std::vector<SeqRegion> seq_regions;
  bool region_open = false;
  bool signal_open = false;
  bool seq_open = false;
  for (const Token& tok : tokens) {
    if (tok.kind != TokKind::kComment) continue;
    const std::size_t at = tok.text.find("gansec-lint:");
    if (at == std::string::npos) continue;
    std::string body = trim(std::string_view(tok.text).substr(
        at + std::string_view("gansec-lint:").size()));
    // Block comments carry a trailing delimiter; line comments do not.
    if (body.size() >= 2 && body.substr(body.size() - 2) == "*/") {
      body = trim(std::string_view(body).substr(0, body.size() - 2));
    }
    if (body == "hot-path") {
      if (region_open) {
        emit("lint-directive", tok.line,
             "hot-path region opened while the previous one is still open");
      } else {
        state.hot_regions.push_back({tok.line, kNpos});
        region_open = true;
      }
    } else if (body == "end-hot-path") {
      if (!region_open) {
        emit("lint-directive", tok.line,
             "end-hot-path without a matching hot-path");
      } else {
        state.hot_regions.back().end_line = tok.line;
        region_open = false;
      }
    } else if (body == "signal-context") {
      if (signal_open) {
        emit("lint-directive", tok.line,
             "signal-context region opened while the previous one is still "
             "open");
      } else {
        state.signal_regions.push_back({tok.line, kNpos});
        signal_open = true;
      }
    } else if (body == "end-signal-context") {
      if (!signal_open) {
        emit("lint-directive", tok.line,
             "end-signal-context without a matching signal-context");
      } else {
        state.signal_regions.back().end_line = tok.line;
        signal_open = false;
      }
    } else if (body == "seqlock(writer)" || body == "seqlock(reader)") {
      if (seq_open) {
        emit("lint-directive", tok.line,
             "seqlock region opened while the previous one is still open");
      } else {
        seq_regions.push_back({tok.line, kNpos, body == "seqlock(writer)"});
        seq_open = true;
      }
    } else if (body == "end-seqlock") {
      if (!seq_open) {
        emit("lint-directive", tok.line,
             "end-seqlock without a matching seqlock(writer|reader)");
      } else {
        seq_regions.back().end_line = tok.line;
        seq_open = false;
      }
    } else if (body.size() > 8 && body.substr(0, 8) == "seqlock(" &&
               body.back() == ')') {
      emit("lint-directive", tok.line,
           "seqlock role must be 'writer' or 'reader', got '" +
               body.substr(8, body.size() - 9) + "'");
    } else if (body.size() > 7 && body.substr(0, 6) == "allow(" &&
               body.back() == ')') {
      std::stringstream list(body.substr(6, body.size() - 7));
      std::string rule;
      while (std::getline(list, rule, ',')) {
        rule = trim(rule);
        if (!known_rule(rule)) {
          emit("lint-directive", tok.line,
               "allow() names unknown rule '" + rule + "'");
          continue;
        }
        state.allows[tok.line][rule] = false;  // false = not yet used
      }
    } else {
      emit("lint-directive", tok.line,
           "unknown gansec-lint directive '" + body + "'");
    }
  }
  if (region_open) {
    emit("lint-directive", state.hot_regions.back().begin_line,
         "hot-path region is never closed (missing end-hot-path)");
  }
  if (signal_open) {
    emit("lint-directive", state.signal_regions.back().begin_line,
         "signal-context region is never closed (missing "
         "end-signal-context)");
  }
  if (seq_open) {
    emit("lint-directive", seq_regions.back().begin_line,
         "seqlock region is never closed (missing end-seqlock)");
  }
  const auto in_hot_region = [&](std::size_t line) {
    for (const Region& r : state.hot_regions) {
      if (line >= r.begin_line && line <= r.end_line) return true;
    }
    return false;
  };
  const auto in_signal_region = [&](std::size_t line) {
    for (const Region& r : state.signal_regions) {
      if (line >= r.begin_line && line <= r.end_line) return true;
    }
    return false;
  };

  // ---- Pass 1: layering (preprocessor tokens) ------------------------------
  const std::string source_module = module_of_source(path);
  for (const Token& tok : tokens) {
    if (tok.kind != TokKind::kPreprocessor) continue;
    const std::size_t quote = tok.text.find("#include \"");
    if (quote == std::string::npos) continue;
    const std::size_t begin = quote + std::string_view("#include \"").size();
    const std::size_t end = tok.text.find('"', begin);
    if (end == std::string::npos) continue;
    const std::string target_path = tok.text.substr(begin, end - begin);
    const std::string target = module_of_target(target_path);
    if (target.empty() || source_module.empty() || target == source_module) {
      continue;
    }
    // Record the first site of each module edge for cycle detection.
    const bool seen = std::any_of(
        edges_.begin(), edges_.end(), [&](const IncludeEdge& e) {
          return e.from == source_module && e.to == target;
        });
    if (!seen) edges_.push_back({source_module, target, path, tok.line});

    const int from_layer = layer_of(source_module);
    const int to_layer = layer_of(target);
    if (from_layer < 0 || to_layer < 0) continue;  // cycle check only
    if (to_layer < from_layer) continue;           // downward: allowed
    if (extra_edge_allowed(source_module, target)) continue;
    emit("layering", tok.line,
         "module '" + source_module + "' (layer " +
             std::to_string(from_layer) + ") must not include '" +
             target_path + "' from module '" + target + "' (layer " +
             std::to_string(to_layer) + "): " +
             (to_layer == from_layer ? "lateral" : "upward") +
             " edge violates the declared DAG");
  }

  // ---- Significant-token stream for the remaining rules --------------------
  state.sig.reserve(tokens.size());
  for (const Token& tok : tokens) {
    if (tok.kind == TokKind::kComment ||
        tok.kind == TokKind::kPreprocessor) {
      continue;
    }
    state.sig.push_back(tok);
  }
  const std::vector<Token>& sig = state.sig;
  const auto text = [&](std::size_t i) { return tok_text(sig, i); };
  const auto kind = [&](std::size_t i) { return tok_kind(sig, i); };
  const auto prev_text = [&](std::size_t i) { return tok_prev(sig, i); };

  // ---- Pass 2: unordered-container declarations ----------------------------
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (kind(i) != TokKind::kIdentifier ||
        kUnorderedTypes.count(text(i)) == 0 || prev_text(i) != "::") {
      continue;
    }
    std::size_t j = i + 1;
    if (text(j) == "<") j = skip_template_args(sig, j);
    while (text(j) == "&" || text(j) == "&&" || text(j) == "*" ||
           text(j) == "const") {
      ++j;
    }
    if (kind(j) == TokKind::kIdentifier) {
      unordered_vars.insert(std::string(text(j)));
    }
  }

  // ---- Pass 3: token rules -------------------------------------------------
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const Token& tok = sig[i];
    if (tok.kind != TokKind::kIdentifier) continue;
    const std::string_view id = tok.text;
    const std::string_view prev = prev_text(i);
    const std::string_view next = text(i + 1);

    // Hot-path allocation discipline (lexical regions; reachable callees
    // are handled transitively in finish()).
    if (in_hot_region(tok.line)) {
      i = check_hot_token(sig, i, "inside a hot-path region", emit);
    }

    // Async-signal-safety: a signal-context region (the profiler's
    // SIGPROF path) may only touch preallocated memory, atomics, and
    // the signal-safe libc subset — no allocation, stdio, locks,
    // exceptions, or logging.
    if (in_signal_region(tok.line)) {
      i = check_signal_token(sig, i, "inside a signal-context region", emit);
    }

    // Determinism: banned randomness/time sources, anywhere in the file.
    if (id == "random_device") {
      emit("determinism-rng", tok.line,
           "std::random_device is nondeterministic; derive streams from "
           "the run seed via math::Rng");
    } else if ((id == "rand" || id == "srand" || id == "time") &&
               next == "(" && prev != "." && prev != "->" &&
               (prev != "::" || (i >= 2 && text(i - 2) == "std"))) {
      emit("determinism-rng", tok.line,
           "'" + std::string(id) +
               "()' breaks reproducibility; derive values from the run "
               "seed (math::Rng) or the trace clock (obs)");
    }

    // Determinism: unordered-container iteration.
    if (id == "for" && next == "(") {
      std::size_t depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < sig.size(); ++j) {
        if (text(j) == "(") ++depth;
        if (text(j) == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (text(j) == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon != 0 && close > colon) {
        std::string_view range_var;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (kind(j) == TokKind::kIdentifier) range_var = text(j);
        }
        if (!range_var.empty() &&
            unordered_vars.count(std::string(range_var)) != 0) {
          emit("determinism-unordered", tok.line,
               "iteration over unordered container '" +
                   std::string(range_var) +
                   "': order is implementation-defined and must not reach "
                   "serialized output or metrics dumps");
        }
      }
    } else if (unordered_vars.count(std::string(id)) != 0 &&
               (next == "." || next == "->") &&
               (text(i + 2) == "begin" || text(i + 2) == "cbegin" ||
                text(i + 2) == "rbegin")) {
      emit("determinism-unordered", tok.line,
           "iterator over unordered container '" + std::string(id) +
               "': order is implementation-defined and must not reach "
               "serialized output or metrics dumps");
    }

    // Observability hygiene: obs::{counter,gauge,histogram,series}("...")
    // and obs::Span / GANSEC_SPAN names.
    std::size_t name_at = 0;  // significant index of the name argument
    std::string kind_name;
    if (id == "obs" && next == "::" && prev != "." && prev != "->") {
      const std::string_view fn = text(i + 2);
      if (kMetricFns.count(fn) != 0 && text(i + 3) == "(") {
        name_at = i + 4;
        kind_name = std::string(fn);
      } else if (fn == "Span") {
        std::size_t j = i + 3;
        if (kind(j) == TokKind::kIdentifier) ++j;  // variable name
        if (text(j) == "(") {
          name_at = j + 1;
          kind_name = "span";
        }
      }
    } else if (id == "GANSEC_SPAN" && next == "(") {
      name_at = i + 2;
      kind_name = "span";
    }
    if (name_at != 0) {
      if (kind(name_at) != TokKind::kString) {
        emit("obs-name-literal", tok.line,
             kind_name + " name must be a string literal so the manifest "
                         "cross-check can see it");
      } else {
        const std::string name = strip_quotes(text(name_at));
        if (!valid_metric_name(name)) {
          emit("obs-name-format", tok.line,
               kind_name + " name '" + name +
                   "' must be dot-namespaced lowercase "
                   "([a-z0-9_]+(.[a-z0-9_]+)+)");
        }
        registrations_.push_back({kind_name, name, path, tok.line});
      }
    }

    // Error discipline.
    if (id == "catch" && next == "(" && text(i + 2) == "...") {
      std::size_t j = i + 3;
      while (j < sig.size() && text(j) != "{") ++j;
      std::size_t depth = 0;
      bool handles = false;
      for (; j < sig.size(); ++j) {
        if (text(j) == "{") ++depth;
        if (text(j) == "}" && --depth == 0) break;
        if (text(j) == "throw" || text(j) == "current_exception") {
          handles = true;
        }
      }
      if (!handles) {
        emit("error-swallow", tok.line,
             "catch (...) swallows the error: rethrow, capture "
             "std::current_exception, or suppress with a comment "
             "explaining why losing it is safe");
      }
    } else if (id == "throw") {
      if (next == "std" && text(i + 2) == "::") {
        emit("error-type", tok.line,
             "library code must throw gansec::Error subclasses, not "
             "std::" + std::string(text(i + 3)));
      } else if (kind(i + 1) == TokKind::kString ||
                 kind(i + 1) == TokKind::kChar ||
                 kind(i + 1) == TokKind::kNumber) {
        emit("error-type", tok.line,
             "library code must throw gansec::Error subclasses, not "
             "literals");
      }
    }
  }

  // ---- Pass 4: symbol table, call sites, view-lifetime ---------------------
  scan_symbols(file_index, pending);

  // ---- Pass 5: seqlock acquire/release pairings ----------------------------
  check_atomics(file_index, seq_regions, pending);

  // ---- Apply suppressions --------------------------------------------------
  for (Diagnostic& d : pending) {
    if (!apply_suppression(state, d)) {
      diagnostics_.push_back(std::move(d));
    }
  }
}

bool Linter::apply_suppression(FileState& state, Diagnostic& d) {
  for (std::size_t line : {d.line, d.line == 0 ? d.line : d.line - 1}) {
    const auto it = state.allows.find(line);
    if (it == state.allows.end()) continue;
    const auto rule_it = it->second.find(d.rule);
    if (rule_it != it->second.end()) {
      rule_it->second = true;  // this allow earned its keep
      ++suppressions_used_;
      return true;
    }
  }
  return false;
}

namespace {

// ---- view-lifetime ---------------------------------------------------------
//
// A `*_view` producer returns a non-owning borrow of storage owned by its
// receiver. Returning such a view out of the function whose *locals* own
// the storage (a body-declared object, a by-value parameter, or a
// Workspace::Scope about to pop) hands the caller a dangling reference.
// Producers themselves (functions named `*_view`) are exempt: returning a
// borrow is their contract, and their storage outlives the call by
// convention (valid until the next mutating call on the same object).

bool is_view_producer(const std::vector<Token>& sig, std::size_t i) {
  if (tok_kind(sig, i) != TokKind::kIdentifier) return false;
  const std::string_view id = tok_text(sig, i);
  if (!ends_with(id, "_view") || id == "string_view" ||
      id == "basic_string_view") {
    return false;
  }
  if (tok_text(sig, i + 1) != "(") return false;
  // std::-qualified view types (std::string_view(...)) are not producers.
  if (tok_prev(sig, i) == "::" && i >= 2 && tok_text(sig, i - 2) == "std") {
    return false;
  }
  return true;
}

template <typename Emit>
void check_view_lifetime_fn(const std::vector<Token>& sig,
                            std::size_t params_open, std::size_t params_end,
                            std::size_t body_begin, std::size_t body_end,
                            const std::string& qualified, const Emit& emit) {
  const auto text = [&](std::size_t i) { return tok_text(sig, i); };
  const auto kind = [&](std::size_t i) { return tok_kind(sig, i); };

  // Locals that own storage: by-value parameters ...
  std::set<std::string> owners;
  {
    std::size_t depth = 0;
    bool by_ref = false;
    std::string last_ident;
    for (std::size_t j = params_open; j <= params_end && j < sig.size();
         ++j) {
      const std::string_view t = text(j);
      if (t == "(") {
        ++depth;
        continue;
      }
      if (t == ")") {
        if (--depth == 0) {
          if (!by_ref && !last_ident.empty()) owners.insert(last_ident);
          break;
        }
        continue;
      }
      if (t == "<") {
        j = skip_template_args(sig, j) - 1;
        continue;
      }
      if (depth != 1) continue;
      if (t == ",") {
        if (!by_ref && !last_ident.empty()) owners.insert(last_ident);
        by_ref = false;
        last_ident.clear();
        continue;
      }
      if (t == "&" || t == "&&" || t == "*") by_ref = true;
      if (kind(j) == TokKind::kIdentifier && t != "const") {
        last_ident = std::string(t);
      }
    }
  }
  // ... and body-declared objects (`Type name`; reference/pointer locals
  // never match the two-identifier pattern because & or * intervenes).
  bool has_scope = false;
  std::size_t scope_line = 0;
  for (std::size_t j = body_begin; j < body_end && j + 1 < sig.size(); ++j) {
    if (kind(j) != TokKind::kIdentifier ||
        kind(j + 1) != TokKind::kIdentifier) {
      continue;
    }
    const std::string_view a = text(j);
    if (kNotCallable.count(a) != 0 || a == "const" || a == "struct" ||
        a == "class" || a == "enum") {
      continue;
    }
    const std::string_view after = text(j + 2);
    if (after != "=" && after != ";" && after != "(" && after != "{") {
      continue;
    }
    if (a == "Scope") {
      has_scope = true;
      if (scope_line == 0) scope_line = sig[j].line;
    } else {
      owners.insert(std::string(text(j + 1)));
    }
  }
  // Variables bound from a producer call, split by receiver locality.
  std::set<std::string> view_vars_local;  // receiver is a local owner
  std::set<std::string> view_vars_any;
  for (std::size_t j = body_begin; j < body_end; ++j) {
    if (text(j) != "=" || kind(j - 1) != TokKind::kIdentifier) continue;
    const std::string var(text(j - 1));
    for (std::size_t m = j + 1; m < body_end && text(m) != ";"; ++m) {
      if (!is_view_producer(sig, m)) continue;
      view_vars_any.insert(var);
      if ((tok_prev(sig, m) == "." || tok_prev(sig, m) == "->") && m >= 2 &&
          owners.count(std::string(text(m - 2))) != 0) {
        view_vars_local.insert(var);
      }
      break;
    }
  }
  // Return statements handing any of those out.
  for (std::size_t j = body_begin; j < body_end; ++j) {
    if (text(j) != "return" || kind(j) != TokKind::kIdentifier) continue;
    std::size_t stmt_end = j + 1;
    while (stmt_end < body_end && text(stmt_end) != ";") ++stmt_end;
    bool flagged = false;
    for (std::size_t m = j + 1; m < stmt_end && !flagged; ++m) {
      if (is_view_producer(sig, m)) {
        const bool member =
            tok_prev(sig, m) == "." || tok_prev(sig, m) == "->";
        const std::string recv =
            member && m >= 2 ? std::string(text(m - 2)) : "";
        if (!recv.empty() && owners.count(recv) != 0) {
          emit("view-lifetime", sig[m].line,
               "'" + qualified + "' returns the view produced by '" +
                   std::string(text(m)) + "' on local '" + recv +
                   "', whose storage dies when this function returns");
          flagged = true;
        } else if (has_scope) {
          emit("view-lifetime", sig[m].line,
               "'" + qualified + "' returns the view produced by '" +
                   std::string(text(m)) +
                   "' past the Workspace::Scope (line " +
                   std::to_string(scope_line) + ") that owns its storage");
          flagged = true;
        }
      } else if (kind(m) == TokKind::kIdentifier) {
        const std::string v(text(m));
        if (view_vars_local.count(v) != 0) {
          emit("view-lifetime", sig[m].line,
               "'" + qualified + "' returns view variable '" + v +
                   "' whose backing local dies when this function returns");
          flagged = true;
        } else if (has_scope && view_vars_any.count(v) != 0) {
          emit("view-lifetime", sig[m].line,
               "'" + qualified + "' returns view variable '" + v +
                   "' past the Workspace::Scope (line " +
                   std::to_string(scope_line) + ") that owns its storage");
          flagged = true;
        }
      }
    }
  }
}

}  // namespace

void Linter::scan_symbols(std::size_t file_index,
                          std::vector<Diagnostic>& pending) {
  FileState& state = files_[file_index];
  const std::vector<Token>& sig = state.sig;
  const std::string& path = state.path;
  const auto text = [&](std::size_t i) { return tok_text(sig, i); };
  const auto kind = [&](std::size_t i) { return tok_kind(sig, i); };
  const auto prev_text = [&](std::size_t i) { return tok_prev(sig, i); };
  const auto emit = [&](const char* rule, std::size_t line,
                        std::string message) {
    pending.push_back({rule, path, line, std::move(message), {}});
  };

  // std::function-typed names: calls through them are opaque edges.
  std::set<std::string> fn_vars;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (kind(i) != TokKind::kIdentifier || text(i) != "function" ||
        prev_text(i) != "::") {
      continue;
    }
    std::size_t j = i + 1;
    if (text(j) == "<") j = skip_template_args(sig, j);
    while (text(j) == "&" || text(j) == "&&" || text(j) == "*" ||
           text(j) == "const") {
      ++j;
    }
    if (kind(j) == TokKind::kIdentifier) fn_vars.insert(std::string(text(j)));
  }

  // Declared-type map: `T name`, `T& name`, `T* name` (locals, params, and
  // data members alike) record name -> T so member-call resolution can
  // bind `clamps.add()` to Counter::add instead of every `add` in the
  // repo. unique_ptr/shared_ptr record their pointee instead, so
  // `gen_->forward(...)` through a smart pointer still resolves. A
  // file-wide heuristic: name collisions across functions keep the first
  // sighting, and unknown receivers fall back to name-only resolution.
  std::map<std::string, std::string> var_types;
  for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
    if (kind(i) != TokKind::kIdentifier) continue;
    std::string type_name(text(i));
    if (kNotCallable.count(type_name) != 0 || type_name == "const" ||
        type_name == "struct" || type_name == "class" ||
        type_name == "enum" || type_name == "auto") {
      continue;
    }
    std::size_t j = i + 1;
    if (type_name == "unique_ptr" || type_name == "shared_ptr") {
      if (text(j) != "<") continue;
      const std::size_t close = skip_template_args(sig, j) - 1;
      type_name.clear();
      for (std::size_t m = j + 1; m < close; ++m) {
        if (kind(m) == TokKind::kIdentifier) type_name = std::string(text(m));
      }
      if (type_name.empty()) continue;
      j = close + 1;
    } else if (text(j) == "<") {
      j = skip_template_args(sig, j);
    }
    while (text(j) == "&" || text(j) == "&&" || text(j) == "*" ||
           text(j) == "const") {
      ++j;
    }
    if (kind(j) != TokKind::kIdentifier) continue;
    const std::string_view after = text(j + 1);
    if (after != "=" && after != ";" && after != "(" && after != "{" &&
        after != "," && after != ")") {
      continue;
    }
    var_types.emplace(std::string(text(j)), type_name);
  }

  enum FrameKind { kNs, kCls, kBlk };
  struct Frame {
    FrameKind fkind;
    std::string name;
    std::size_t func;  // kBlk only: function whose body this brace opens
  };
  std::vector<Frame> stack;
  std::map<std::size_t, std::size_t> body_open;  // '{' index -> func index
  bool pending_virtual = false;

  const auto qualified_prefix = [&]() {
    std::string q;
    for (const Frame& f : stack) {
      if (f.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += f.name;
    }
    return q;
  };
  const auto enclosing_function = [&]() -> std::size_t {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->func != kNpos) return it->func;
    }
    return kNpos;
  };

  for (std::size_t i = 0; i < sig.size(); ++i) {
    const std::string_view id = text(i);
    if (id == "{") {
      const auto it = body_open.find(i);
      stack.push_back({kBlk, "", it == body_open.end() ? kNpos : it->second});
      pending_virtual = false;
      continue;
    }
    if (id == "}") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (id == ";") {
      pending_virtual = false;
      continue;
    }
    if (kind(i) != TokKind::kIdentifier) continue;
    const bool at_scope = stack.empty() || stack.back().fkind != kBlk;

    if (id == "virtual") {
      pending_virtual = true;
      continue;
    }
    if (id == "namespace" && at_scope) {
      std::size_t j = i + 1;
      std::string name;
      while (kind(j) == TokKind::kIdentifier || text(j) == "::") {
        if (text(j) != "::") {
          if (!name.empty()) name += "::";
          name += text(j);
        }
        ++j;
      }
      if (text(j) == "{") {
        stack.push_back({kNs, name, kNpos});
        i = j;  // frame pushed here; skip the '{' handler
      } else if (text(j) == "=") {  // namespace alias
        while (j < sig.size() && text(j) != ";") ++j;
        i = j;
      }
      continue;
    }
    if (id == "enum" && at_scope) {
      std::size_t j = i + 1;
      while (j < sig.size() && text(j) != "{" && text(j) != ";") ++j;
      if (text(j) == "{") j = match_brace(sig, j);
      i = j;  // enumerators never define functions
      continue;
    }
    if ((id == "class" || id == "struct" || id == "union") && at_scope) {
      std::size_t j = i + 1;
      std::string name;
      if (kind(j) == TokKind::kIdentifier) {
        name = std::string(text(j));
        ++j;
      }
      if (text(j) == "<") j = skip_template_args(sig, j);
      if (text(j) == "final") ++j;
      if (text(j) == ":") {  // base clause
        while (j < sig.size() && text(j) != "{" && text(j) != ";") {
          if (text(j) == "<") {
            j = skip_template_args(sig, j);
            continue;
          }
          ++j;
        }
      }
      if (!name.empty()) class_names_.insert(name);
      if (text(j) == "{" && !name.empty()) {
        stack.push_back({kCls, name, kNpos});
        i = j;
      }
      continue;  // elaborated specifier / forward declaration otherwise
    }

    if (text(i + 1) != "(" || kNotCallable.count(id) != 0) continue;
    const std::string_view prev = prev_text(i);
    if (prev == "~") continue;  // destructors: not named calls, not needed

    if (at_scope) {
      // ---- candidate function declarator at namespace/class scope --------
      if (prev == "." || prev == "->" || prev == "(" || prev == "," ||
          prev == "=" || prev == "return" || prev == "new" || prev == "!" ||
          prev == "&&" || prev == "+" || prev == "-" || prev == "?") {
        continue;
      }
      // Out-of-line qualifiers: `Type Foo::bar(` — walk `ident ::` back.
      std::string explicit_scope;
      std::size_t name_begin = i;
      while (name_begin >= 2 && text(name_begin - 1) == "::" &&
             kind(name_begin - 2) == TokKind::kIdentifier) {
        explicit_scope =
            std::string(text(name_begin - 2)) +
            (explicit_scope.empty() ? "" : "::") + explicit_scope;
        name_begin -= 2;
      }
      const std::size_t params_open = i + 1;
      std::size_t j = skip_parens(sig, params_open);  // one past ')'
      const std::size_t params_end = j - 1;
      while (j < sig.size()) {
        const std::string_view t = text(j);
        if (t == "const" || t == "override" || t == "final" || t == "&" ||
            t == "&&" || t == "mutable" || t == "constexpr") {
          ++j;
          continue;
        }
        if (t == "noexcept") {
          ++j;
          if (text(j) == "(") j = skip_parens(sig, j);
          continue;
        }
        if (t == "->") {  // trailing return type
          ++j;
          while (j < sig.size() && text(j) != "{" && text(j) != ";" &&
                 text(j) != "=") {
            if (text(j) == "<") {
              j = skip_template_args(sig, j);
              continue;
            }
            if (text(j) == "(") {
              j = skip_parens(sig, j);
              continue;
            }
            ++j;
          }
          continue;
        }
        break;
      }
      std::size_t body = kNpos;
      if (text(j) == "{") {
        body = j;
      } else if (text(j) == ":") {  // constructor initializer list
        std::size_t m = j + 1;
        while (m < sig.size()) {
          while (kind(m) == TokKind::kIdentifier || text(m) == "::") ++m;
          if (text(m) == "<") m = skip_template_args(sig, m);
          if (text(m) == "(") {
            m = skip_parens(sig, m);
          } else if (text(m) == "{") {
            m = match_brace(sig, m) + 1;
          } else {
            break;
          }
          if (text(m) == "...") ++m;  // pack-expanded base initializer
          if (text(m) == ",") {
            ++m;
            continue;
          }
          if (text(m) == "{") body = m;
          break;
        }
      } else if (text(j) == "=" || text(j) == ";") {
        // Declaration only: `= 0`, `= default`, `= delete`, or plain `;`.
        if (pending_virtual || text(j + 1) == "0") {
          virtual_names_.insert(std::string(id));
        }
        pending_virtual = false;
        i = j;
        continue;
      } else {
        continue;  // macro invocation / initializer — not a declarator
      }
      if (body == kNpos) continue;

      FunctionDef def;
      def.name = std::string(id);
      def.qualified = qualified_prefix();
      if (!explicit_scope.empty()) {
        def.qualified +=
            def.qualified.empty() ? explicit_scope : "::" + explicit_scope;
      }
      def.qualified += def.qualified.empty() ? def.name : "::" + def.name;
      def.file_index = file_index;
      def.line = sig[i].line;
      def.body_begin = body;
      def.body_end = match_brace(sig, body);
      def.is_virtual = pending_virtual;
      // Return type carrying & or * means the function hands out a borrow.
      for (std::size_t b = name_begin; b > 0;) {
        const std::string_view t = text(--b);
        if (t == ";" || t == "{" || t == "}" || t == "public" ||
            t == "private" || t == "protected" || t == ":" ||
            name_begin - b > 24) {
          break;
        }
        if (t == "&" || t == "*" || t == "&&") def.returns_indirection = true;
        if (t == "noreturn") def.is_noreturn = true;  // [[noreturn]]
      }
      if (pending_virtual) virtual_names_.insert(def.name);
      pending_virtual = false;
      body_open[body] = functions_.size();
      functions_.push_back(def);
      if (def.returns_indirection && !ends_with(def.name, "_view")) {
        check_view_lifetime_fn(sig, params_open, params_end, body,
                               def.body_end, def.qualified, emit);
      }
      i = body - 1;  // skip params/init-list; the body '{' pushes the frame
      continue;
    }

    // ---- call site inside a function body --------------------------------
    const bool member = prev == "." || prev == "->";
    if (!member) {
      if (prev == "new") continue;  // ctor via new: allocation rules own it
      // `throw Error(...)`: the exceptional path is exempt from
      // propagation — dimension checks throw from hot code by design,
      // and walking into exception constructors would ban that.
      if (prev == "throw") continue;
      if (prev == ">") continue;  // `vector<int> v(...)` is a declaration
      if (kind(i - 1) == TokKind::kIdentifier && prev != "return" &&
          prev != "else" && prev != "do" && prev != "co_return") {
        continue;  // `Type name(...)` is a declaration, not a call
      }
    }
    std::string callee(id);
    if (!member) {
      // Prepend the qualifiers, stepping over template arguments:
      // `std::numeric_limits<double>::max(` is recorded as
      // std::numeric_limits::max, so the std:: skip below sees it.
      std::size_t b = i;
      while (b >= 2 && text(b - 1) == "::") {
        std::size_t q = b - 2;
        if (text(q) == ">") {
          q = template_args_open(sig, q);
          if (q == 0 || q >= sig.size()) break;
          --q;
        }
        if (kind(q) != TokKind::kIdentifier) break;
        callee = std::string(text(q)) + "::" + callee;
        b = q;
      }
    }
    if (callee.rfind("std::", 0) == 0) continue;
    if (member && kStdMemberNames.count(id) != 0) continue;
    // Receiver type for member calls (`x.f(` / `p->f(`): a plain
    // identifier receiver with a known declared type narrows resolution.
    std::string receiver_type;
    if (member && i >= 2 && kind(i - 2) == TokKind::kIdentifier) {
      const auto rt = var_types.find(std::string(text(i - 2)));
      if (rt != var_types.end()) receiver_type = rt->second;
    }
    // `static X& x = f(...)` initializers run once per process.
    bool in_static_init = false;
    for (std::size_t b = i; b > 0; --b) {
      const std::string_view t = text(b - 1);
      if (t == ";" || t == "{" || t == "}") break;
      if (t == "static" || t == "thread_local") {
        in_static_init = true;
        break;
      }
    }
    calls_.push_back({enclosing_function(), callee, file_index, sig[i].line,
                      fn_vars.count(callee) != 0, receiver_type,
                      in_static_init, member});
  }
}

void Linter::check_atomics(std::size_t file_index,
                           const std::vector<SeqRegion>& seq_regions,
                           std::vector<Diagnostic>& pending) {
  FileState& state = files_[file_index];
  const std::vector<Token>& sig = state.sig;
  const auto text = [&](std::size_t i) { return tok_text(sig, i); };
  const auto emit = [&](std::size_t line, std::string message) {
    pending.push_back(
        {"atomics-ordering", state.path, line, std::move(message), {}});
  };
  for (const SeqRegion& r : seq_regions) {
    bool have_store = false;
    bool last_store_relaxed = false;
    std::size_t last_store_line = 0;
    bool have_release = false;
    bool have_acquire = false;
    for (std::size_t i = 0; i < sig.size(); ++i) {
      const std::size_t line = sig[i].line;
      if (line < r.begin_line || line > r.end_line) continue;
      if (tok_kind(sig, i) != TokKind::kIdentifier) continue;
      const std::string_view id = text(i);
      if (id == "memory_order_consume") {
        emit(line,
             "memory_order_consume inside a seqlock region (no mainstream "
             "compiler implements consume; it silently promotes to acquire "
             "— say what you mean)");
        continue;
      }
      const std::string_view prev = tok_prev(sig, i);
      const bool member = prev == "." || prev == "->";
      if (text(i + 1) != "(") continue;
      // Collect the memory_order arguments of this call; no explicit
      // order means the seq_cst default, which is release- and
      // acquire-strength.
      bool relaxed = false;
      bool acquire = false;
      bool release = false;
      bool explicit_order = false;
      const std::size_t close = skip_parens(sig, i + 1);
      for (std::size_t m = i + 2; m + 1 < close; ++m) {
        const std::string_view a = text(m);
        if (a == "memory_order_relaxed") {
          relaxed = true;
          explicit_order = true;
        } else if (a == "memory_order_acquire") {
          acquire = true;
          explicit_order = true;
        } else if (a == "memory_order_release") {
          release = true;
          explicit_order = true;
        } else if (a == "memory_order_acq_rel" ||
                   a == "memory_order_seq_cst") {
          acquire = release = true;
          explicit_order = true;
        }
      }
      if (!explicit_order) acquire = release = true;
      if (member && id == "store") {
        have_store = true;
        last_store_relaxed = relaxed && !release;
        last_store_line = line;
        if (release) have_release = true;
      } else if (member && id == "load") {
        if (acquire) have_acquire = true;
      } else if (id == "atomic_thread_fence") {
        if (release) have_release = true;
        if (acquire) have_acquire = true;
      }
    }
    if (r.writer) {
      if (!have_store) {
        emit(r.begin_line,
             "seqlock(writer) region performs no atomic store; the "
             "annotation documents a publish protocol that is not here");
      } else if (last_store_relaxed) {
        emit(last_store_line,
             "commit store of a seqlock(writer) region uses "
             "memory_order_relaxed; the final (publishing) store must be "
             "memory_order_release or stronger, or readers can observe the "
             "even stamp before the payload");
      }
      if (have_store && !have_release) {
        emit(r.begin_line,
             "seqlock(writer) region never releases: at least one store or "
             "fence must be memory_order_release or stronger");
      }
    } else if (!have_acquire) {
      emit(r.begin_line,
           "seqlock(reader) region never acquires: the stamp load (or a "
           "fence) must be memory_order_acquire or stronger, or payload "
           "reads can be hoisted above it");
    }
  }
}

void Linter::finish() {
  propagate_constraints();
  emit_unused_allows();
  check_cycles();
  check_manifest();
}

void Linter::propagate_constraints() {
  // ---- Resolve call sites against the repo-wide symbol table ---------------
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t idx = 0; idx < functions_.size(); ++idx) {
    by_name[functions_[idx].name].push_back(idx);
  }
  // Suffix resolution: "a::B::f" matches any definition whose qualified
  // name ends in those segments. A known receiver type narrows a member
  // call to `Type::name` (and resolves to nothing when no repo class of
  // that name defines it — the receiver is std:: or external); an unknown
  // receiver falls back to every definition with the same last name.
  const auto resolve_qualified =
      [&](const std::string& callee) -> std::vector<std::size_t> {
    std::vector<std::size_t> out;
    const std::size_t pos = callee.rfind("::");
    const std::string last =
        pos == std::string::npos ? callee : callee.substr(pos + 2);
    const auto it = by_name.find(last);
    if (it == by_name.end()) return out;
    if (pos == std::string::npos) return it->second;
    for (std::size_t idx : it->second) {
      const std::string& q = functions_[idx].qualified;
      if (q == callee) {
        out.push_back(idx);
      } else if (q.size() > callee.size() + 2 &&
                 q.compare(q.size() - callee.size(), callee.size(),
                           callee) == 0 &&
                 q.compare(q.size() - callee.size() - 2, 2, "::") == 0) {
        out.push_back(idx);  // segment-aligned suffix: a::B::f matches B::f
      }
    }
    return out;
  };
  const auto resolve = [&](const CallSite& site) {
    if (!site.receiver_type.empty()) {
      return resolve_qualified(site.receiver_type + "::" + site.callee_text);
    }
    return resolve_qualified(site.callee_text);
  };
  // Resolve every site once. A member call with an unknown receiver that
  // lands in more than one class is ambiguous: the scanner cannot tell
  // which class's method runs, so the edge is recorded opaque instead of
  // fanning the constraint out to every same-named method in the repo.
  struct SiteResolution {
    std::vector<std::size_t> targets;
    bool ambiguous = false;
  };
  std::vector<SiteResolution> site_res(calls_.size());
  for (std::size_t s = 0; s < calls_.size(); ++s) {
    const CallSite& site = calls_[s];
    if (site.via_function_object) continue;
    SiteResolution& r = site_res[s];
    r.targets = resolve(site);
    if (site.member_call && site.receiver_type.empty()) {
      // `x.f(` runs a member function: candidates defined at namespace
      // scope cannot be the target, so drop them before deciding whether
      // the remaining set is ambiguous.
      std::vector<std::size_t> members;
      std::set<std::string> scopes;
      for (std::size_t t : r.targets) {
        const std::string& q = functions_[t].qualified;
        const std::size_t end = q.rfind("::");
        if (end == std::string::npos) continue;
        const std::size_t begin = q.rfind("::", end - 1);
        const std::string parent =
            q.substr(begin == std::string::npos ? 0 : begin + 2,
                     end - (begin == std::string::npos ? 0 : begin + 2));
        if (class_names_.count(parent) == 0) continue;
        members.push_back(t);
        scopes.insert(q.substr(0, end));
      }
      r.targets = std::move(members);
      r.ambiguous = scopes.size() > 1;
    }
  }

  struct Hop {
    std::size_t target;
    std::size_t site;
  };
  std::vector<std::vector<Hop>> adj(functions_.size());
  for (std::size_t s = 0; s < calls_.size(); ++s) {
    const CallSite& site = calls_[s];
    const std::string caller_name =
        site.caller == kNpos ? "<file-scope>"
                             : functions_[site.caller].qualified;
    const std::string& site_file = files_[site.file_index].path;
    if (site.via_function_object) {
      call_edge_infos_.push_back({caller_name, site.callee_text, site_file,
                                  site.line, true, "std::function"});
      continue;
    }
    for (std::size_t t : site_res[s].targets) {
      const FunctionDef& callee = functions_[t];
      const bool virt =
          callee.is_virtual || virtual_names_.count(callee.name) != 0;
      const bool opaque = virt || site_res[s].ambiguous;
      call_edge_infos_.push_back(
          {caller_name, callee.qualified, site_file, site.line, opaque,
           opaque ? (virt ? "virtual" : "ambiguous receiver") : ""});
      if (!opaque && site.caller != kNpos) adj[site.caller].push_back({t, s});
    }
  }

  const auto in_regions = [](const std::vector<Region>& rs,
                             std::size_t line) {
    for (const Region& r : rs) {
      if (line >= r.begin_line && line <= r.end_line) return true;
    }
    return false;
  };
  const auto site_label = [&](std::size_t caller, std::size_t site_idx) {
    const CallSite& s = calls_[site_idx];
    return (caller == kNpos ? std::string("<file-scope>")
                            : functions_[caller].qualified) +
           " (" + files_[s.file_index].path + ":" + std::to_string(s.line) +
           ")";
  };

  // ---- BFS from annotated regions over non-opaque edges --------------------
  const auto propagate = [&](bool hot) {
    std::map<std::size_t, std::vector<std::string>> chains;
    std::deque<std::size_t> queue;
    for (std::size_t s = 0; s < calls_.size(); ++s) {
      const CallSite& site = calls_[s];
      const FileState& st = files_[site.file_index];
      if (!in_regions(hot ? st.hot_regions : st.signal_regions, site.line)) {
        continue;
      }
      if (site.via_function_object) continue;
      if (hot && site.in_static_init) continue;  // runs once, not per-pass
      if (site_res[s].ambiguous) continue;
      for (std::size_t t : site_res[s].targets) {
        const FunctionDef& callee = functions_[t];
        if (callee.is_virtual || virtual_names_.count(callee.name) != 0) {
          continue;  // opaque: in the edge list as evidence, not traversed
        }
        if (hot && callee.is_noreturn) continue;  // error path by decl
        if (chains.count(t) != 0) continue;
        chains[t] = {site_label(site.caller, s)};
        queue.push_back(t);
      }
    }
    while (!queue.empty()) {
      const std::size_t f = queue.front();
      queue.pop_front();
      for (const Hop& hop : adj[f]) {
        if (chains.count(hop.target) != 0) continue;
        if (hot && calls_[hop.site].in_static_init) continue;
        if (hot && functions_[hop.target].is_noreturn) continue;
        std::vector<std::string> chain = chains[f];
        chain.push_back(site_label(f, hop.site));
        chains[hop.target] = std::move(chain);
        queue.push_back(hop.target);
      }
    }
    return chains;
  };
  const auto hot_chains = propagate(true);
  const auto signal_chains = propagate(false);

  // ---- Re-scan constrained bodies with the region checks -------------------
  const auto scan_constrained = [&](bool hot, std::size_t func_idx,
                                    const std::vector<std::string>& chain) {
    const FunctionDef& f = functions_[func_idx];
    FileState& st = files_[f.file_index];
    const std::vector<Token>& sig = st.sig;
    std::string chain_text;
    for (const std::string& hop : chain) chain_text += hop + " -> ";
    chain_text += f.qualified;
    const std::string ctx =
        std::string(hot ? "in hot-path-reachable function '"
                        : "in signal-context-reachable function '") +
        f.qualified + "'";
    const auto emit = [&](const char* rule, std::size_t line,
                          std::string message) {
      Diagnostic d{rule, st.path, line,
                   std::move(message) + "; call chain: " + chain_text,
                   chain};
      d.chain.push_back(f.qualified + " (" + st.path + ":" +
                        std::to_string(line) + ")");
      if (!apply_suppression(st, d)) diagnostics_.push_back(std::move(d));
    };
    // Lines inside a lexical region of the same kind are already checked
    // by pass 3; re-flagging them here would double-report.
    const std::vector<Region>& covered =
        hot ? st.hot_regions : st.signal_regions;
    for (std::size_t i = f.body_begin; i <= f.body_end && i < sig.size();
         ++i) {
      if (in_regions(covered, sig[i].line)) continue;
      i = hot ? check_hot_token(sig, i, ctx, emit)
              : check_signal_token(sig, i, ctx, emit);
    }
  };
  for (const auto& [func_idx, chain] : hot_chains) {
    scan_constrained(true, func_idx, chain);
    reach_entries_.push_back(
        {"hot-path", functions_[func_idx].qualified, chain});
  }
  for (const auto& [func_idx, chain] : signal_chains) {
    scan_constrained(false, func_idx, chain);
    reach_entries_.push_back(
        {"signal-context", functions_[func_idx].qualified, chain});
  }

  // ---- Export the symbol table for the lintdb artifact ---------------------
  for (std::size_t idx = 0; idx < functions_.size(); ++idx) {
    const FunctionDef& f = functions_[idx];
    const FileState& st = files_[f.file_index];
    const auto overlaps = [&](const std::vector<Region>& rs) {
      if (f.body_begin >= st.sig.size()) return false;
      const std::size_t lo = st.sig[f.body_begin].line;
      const std::size_t hi =
          f.body_end < st.sig.size() ? st.sig[f.body_end].line : lo;
      for (const Region& r : rs) {
        if (r.begin_line <= hi && r.end_line >= lo) return true;
      }
      return false;
    };
    function_infos_.push_back(
        {f.qualified, st.path, f.line,
         f.is_virtual || virtual_names_.count(f.name) != 0,
         hot_chains.count(idx) != 0 || overlaps(st.hot_regions),
         signal_chains.count(idx) != 0 || overlaps(st.signal_regions)});
  }
}

void Linter::emit_unused_allows() {
  for (const FileState& st : files_) {
    for (const auto& [line, rules] : st.allows) {
      for (const auto& [rule, used] : rules) {
        if (used) continue;
        diagnostics_.push_back(
            {"unused-allow", st.path, line,
             "allow(" + rule +
                 ") suppresses nothing (stale suppression: remove it, or "
                 "fix the rule name)",
             {}});
      }
    }
  }
}

void Linter::check_cycles() {
  // ---- Module-cycle detection over the observed include edges --------------
  std::set<std::string> modules;
  for (const IncludeEdge& e : edges_) {
    modules.insert(e.from);
    modules.insert(e.to);
  }
  // Iterative grey/black DFS; module graphs are tiny. One diagnostic per
  // detected back edge, attributed to the include site that closed the
  // cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  const IncludeEdge* back_edge = nullptr;
  std::string cycle_text;
  for (const std::string& root : modules) {
    if (color[root] != 0 || back_edge != nullptr) continue;
    // Each frame: (node, index of the next outgoing edge to try).
    std::vector<std::pair<std::string, std::size_t>> stack;
    stack.emplace_back(root, 0);
    color[root] = 1;
    while (!stack.empty() && back_edge == nullptr) {
      auto& [node, next_edge] = stack.back();
      bool descended = false;
      for (std::size_t k = next_edge; k < edges_.size(); ++k) {
        const IncludeEdge& e = edges_[k];
        if (e.from != node) continue;
        if (color[e.to] == 1) {
          back_edge = &e;
          cycle_text = e.to;
          bool in_cycle = false;
          for (const auto& [name, unused] : stack) {
            (void)unused;
            if (name == e.to) in_cycle = true;
            if (in_cycle && name != e.to) cycle_text += " -> " + name;
          }
          cycle_text += " -> " + e.to;
          break;
        }
        if (color[e.to] == 0) {
          next_edge = k + 1;
          color[e.to] = 1;
          stack.emplace_back(e.to, 0);
          descended = true;
          break;
        }
      }
      if (back_edge != nullptr) break;
      if (!descended) {
        color[node] = 2;
        stack.pop_back();
      }
    }
  }
  if (back_edge != nullptr) {
    diagnostics_.push_back(
        {"layer-cycle", back_edge->file, back_edge->line,
         "module include cycle: " + cycle_text, {}});
  }
}

void Linter::check_manifest() {
  if (options_.manifest_path.empty()) return;
  std::ifstream in(options_.manifest_path);
  if (!in) {
    diagnostics_.push_back({"obs-manifest", options_.manifest_path, 0,
                            "manifest file cannot be opened", {}});
    return;
  }
  struct ManifestEntry {
    std::string kind;
    std::string name;
    std::size_t line;
    bool seen = false;
  };
  std::vector<ManifestEntry> manifest;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::stringstream fields(raw);
    std::string kind_field;
    std::string name_field;
    std::string extra;
    if (!(fields >> kind_field)) continue;  // blank/comment line
    if (!(fields >> name_field) || (fields >> extra)) {
      diagnostics_.push_back(
          {"obs-manifest", options_.manifest_path, line_no,
           "manifest line must be '<kind> <name>'", {}});
      continue;
    }
    if (kind_field != "counter" && kind_field != "gauge" &&
        kind_field != "histogram" && kind_field != "series" &&
        kind_field != "span") {
      diagnostics_.push_back(
          {"obs-manifest", options_.manifest_path, line_no,
           "unknown metric kind '" + kind_field + "'", {}});
      continue;
    }
    manifest.push_back({kind_field, name_field, line_no});
  }
  for (const Registration& reg : registrations_) {
    bool found = false;
    for (ManifestEntry& entry : manifest) {
      if (entry.kind == reg.kind && entry.name == reg.name) {
        entry.seen = true;
        found = true;
      }
    }
    if (!found) {
      diagnostics_.push_back(
          {"obs-manifest", reg.file, reg.line,
           reg.kind + " '" + reg.name +
               "' is not in the metrics manifest (add it to keep the "
               "dashboard namespace reviewed)", {}});
    }
  }
  for (const ManifestEntry& entry : manifest) {
    if (!entry.seen) {
      diagnostics_.push_back(
          {"obs-manifest", options_.manifest_path, entry.line,
           entry.kind + " '" + entry.name +
               "' is in the manifest but no scanned source registers it "
               "(stale entry?)", {}});
    }
  }
}

}  // namespace gansec::lint
