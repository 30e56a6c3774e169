// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// The benchmark times calls into the library's public functions from the
// outside: every span is opened and closed by gansec_bench around one call
// (or one phase), never inside src/. A span records its name, start, end,
// the span that was open on the same thread when it began (its parent) and
// the run it belongs to. Spans stay in memory until exit, when gansec_bench
// writes them as a chrome-trace file and prints a self-time table (span
// time minus the time its child spans cover).
//
// A disabled recorder makes Span a no-op: no clock reads, no locking, so
// the untraced runs that produce the end-to-end metrics pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gansec::e2e {

class SpanRecorder {
 public:
  struct Record {
    const char* name = nullptr;  ///< string literal
    std::uint64_t start_ns = 0;  ///< since the recorder was created
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;        ///< 1-based; 0 means "no span"
    std::uint32_t parent = 0;
    std::uint32_t thread = 0;    ///< small per-thread index
  };

  /// Per-name totals for the self-time table.
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  SpanRecorder(bool enabled, std::string run_id);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  const std::string& run_id() const { return run_id_; }

  /// Nanoseconds since construction (steady clock).
  std::uint64_t now_ns() const;

  /// Recorded spans in completion order. Call only after every thread
  /// that records has been joined.
  const std::vector<Record>& records() const { return records_; }

  /// Durations (ms) of every span with this name, in completion order.
  std::vector<double> durations_ms(const char* name) const;

  /// Self time per span name, sorted by descending self time.
  std::vector<Summary> summarize() const;

  /// Writes {"traceEvents":[...]} (chrome://tracing / Perfetto). Throws
  /// gansec::IoError when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

  /// Mean cost (ns) of opening and closing one span on this host, measured
  /// on a scratch recorder; used to estimate the tracing overhead.
  static double span_cost_ns();

  /// RAII span. Opening pushes it on the calling thread's stack so spans
  /// opened inside it record it as their parent.
  class Span {
   public:
    Span(SpanRecorder& recorder, const char* name);
    ~Span() { end(); }

    /// Closes the span early. Idempotent.
    void end();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;  ///< null when disabled or ended
    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
  };

 private:
  std::uint32_t open_span(std::uint32_t* parent);
  void close_span(const Record& record);

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;  ///< guards records_ and next_id_
  std::vector<Record> records_;
  std::uint32_t next_id_ = 1;
};

}  // namespace gansec::e2e
