// Process-wide metrics registry: counters, gauges, fixed-bucket
// histograms, and append-only series.
//
// Hot-path contract: after a one-time registry lookup (mutex + map, done
// once per call site — cache the returned reference), every update is
// lock-free: counters and histogram buckets are relaxed atomic adds,
// gauges and floating-point accumulators are CAS loops. Snapshots taken
// after the writing threads quiesce observe exact totals; snapshots taken
// mid-flight observe a consistent-enough view for monitoring (each cell
// individually atomic).
//
// Series are the exception: they hold (step, value) pairs behind a mutex,
// intended for low-frequency appends (one per training iteration). Give
// each concurrent producer its own series name (the flow-pair sweep
// derives one scope per pair) so appends never contend and the per-series
// order is the producer's program order.
//
// Registered objects live for the life of the process; references handed
// out by the registry never dangle (the registry is intentionally leaked
// so instrumented code in static destructors — e.g. the global thread
// pool joining its workers — can still update metrics safely).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gansec::obs {

/// Monotonic event count. add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-observed value. set() is an atomic store; add() and set_max()
/// are CAS loops.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  /// Monotonic high-water update: raises the gauge to `candidate` if (and
  /// only if) it exceeds the current value; safe from concurrent writers.
  void set_max(double candidate);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper edges; an implicit
/// overflow bucket catches everything above the last edge. observe() is a
/// binary search plus relaxed atomic adds (bucket, count) and CAS loops
/// (sum, min, max) — no locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 cells
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
  };
  Snapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Percentile roll-up of one histogram snapshot — what run reports and
/// bench artifacts export instead of raw buckets. All fields are 0 when
/// the histogram is empty.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Prometheus-style quantile estimate from bucket counts: locates the
/// bucket containing rank q*count and interpolates linearly inside it,
/// clamping the first/last buckets to the observed min/max. `q` must be
/// in [0, 1]; the estimate's error is bounded by the bucket width.
double histogram_percentile(const Histogram::Snapshot& snapshot, double q);

HistogramSummary summarize(const Histogram::Snapshot& snapshot);

/// (step, value) time series (e.g. per-iteration losses). Mutex-guarded:
/// intended for one producer at low frequency.
///
/// Memory is bounded: each series is a ring buffer of at most
/// `capacity()` points (default `default_series_capacity()`, settable
/// per series). When full, appends overwrite the oldest point; every
/// overwritten point is counted in `dropped()` and in the process-wide
/// `obs.series.dropped_points` counter, so long sweeps cannot grow the
/// registry without bound — and the loss is observable, never silent.
class Series {
 public:
  Series();

  void append(double step, double value);
  /// Retained points, oldest first (producer order).
  std::vector<std::pair<double, double>> points() const;
  std::size_t size() const;
  /// Points overwritten by the ring since construction / reset().
  std::uint64_t dropped() const;

  /// Registration name, set once by the registry so diagnostics (the
  /// first-drop warning) can say which series started losing points.
  void set_name(std::string name);
  const std::string& name() const { return name_; }

  std::size_t capacity() const;
  /// Re-caps the ring (0 is invalid). Shrinking drops the oldest points,
  /// counting them as dropped.
  void set_capacity(std::size_t capacity);

  void reset();

 private:
  /// Rotates points_ so index 0 is the oldest point (head_ becomes 0).
  void linearize_locked();

  mutable std::mutex mu_;
  std::string name_;
  /// Chunked storage: an append never copies the points already held, so
  /// a long training run leaves no doubled-and-freed buffers in the heap.
  std::deque<std::pair<double, double>> points_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest point once the ring wraps
  std::uint64_t dropped_ = 0;
  bool drop_warned_ = false;  ///< first-drop warning already emitted
};

/// Process-wide default ring capacity for newly created Series (initial
/// value 65536 points ≈ 1 MiB per series). Thread-safe; affects only
/// series created after the call.
void set_default_series_capacity(std::size_t capacity);
std::size_t default_series_capacity();

/// Point-in-time copy of every registered metric, in registration order.
/// Series are exported as their retained points; exposition formats that
/// have no series notion (OpenMetrics) simply skip them.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
      series;
};

/// Name-keyed registry. Lookups register on first use and always return
/// the same object for the same name; a histogram re-registered with
/// different bounds keeps the first registration's bounds.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  Series& series(std::string_view name);

  /// Consistent-enough copy of every metric (each cell individually
  /// atomic) — the input to render_openmetrics() and anything else that
  /// wants the whole registry without holding its lock.
  RegistrySnapshot snapshot() const;

  /// Full snapshot as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...},"series":{...}}.
  /// Always valid JSON (non-finite numbers become null).
  std::string to_json() const;

  /// Zeroes every registered metric in place. Registrations (and any
  /// cached references) stay valid. Test isolation only.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // Insertion-ordered name->metric maps. The metric objects are owned via
  // unique_ptr, so handed-out references survive vector growth; linear
  // lookup is fine because call sites cache the reference.
  template <typename T>
  using NameMap = std::vector<std::pair<std::string, std::unique_ptr<T>>>;
  NameMap<Counter> counters_;
  NameMap<Gauge> gauges_;
  NameMap<Histogram> histograms_;
  NameMap<Series> series_;

  template <typename T, typename... Args>
  T& find_or_add(NameMap<T>& map, std::string_view name, Args&&... args);
};

/// Registry shorthands. Call once per call site and cache the reference:
///   static obs::Counter& hits = obs::counter("cache.hits");
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::vector<double> bounds);
Series& series(std::string_view name);

/// MetricsRegistry::instance().to_json() written to a file; throws IoError
/// when the path cannot be opened.
void write_metrics_json_file(const std::string& path);

}  // namespace gansec::obs
