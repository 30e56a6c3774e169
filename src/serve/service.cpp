#include "gansec/serve/service.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "gansec/error.hpp"
#include "gansec/obs/flight_recorder.hpp"
#include "gansec/obs/incident.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::serve {

namespace {

std::vector<double> latency_bounds() {
  return {50.0,     100.0,    200.0,    500.0,     1000.0,
          2000.0,   5000.0,   10000.0,  20000.0,   50000.0,
          100000.0, 200000.0, 500000.0, 1000000.0, 5000000.0};
}

obs::Counter& ingested_counter() {
  static obs::Counter& c = obs::counter("serve.windows_ingested");
  return c;
}

obs::Counter& scored_counter() {
  static obs::Counter& c = obs::counter("serve.windows_scored");
  return c;
}

obs::Counter& dropped_counter() {
  static obs::Counter& c = obs::counter("serve.windows_dropped");
  return c;
}

obs::Counter& swaps_counter() {
  static obs::Counter& c = obs::counter("serve.model_swaps");
  return c;
}

obs::Counter& verdict_counter(security::StreamVerdict verdict) {
  static obs::Counter& benign = obs::counter("serve.verdict.benign");
  static obs::Counter& integrity = obs::counter("serve.verdict.integrity");
  static obs::Counter& availability =
      obs::counter("serve.verdict.availability");
  switch (verdict) {
    case security::StreamVerdict::kIntegrity: return integrity;
    case security::StreamVerdict::kAvailability: return availability;
    case security::StreamVerdict::kBenign: break;
  }
  return benign;
}

obs::Histogram& latency_histogram() {
  static obs::Histogram& h =
      obs::histogram("serve.latency_us", latency_bounds());
  return h;
}

}  // namespace

/// Everything one stream owns. Rings and totals are shared between the
/// ingest thread and the owning shard; detector/results/model_gen are
/// touched only by the owning shard.
struct DetectorService::StreamState {
  StreamState(std::size_t ring_capacity,
              std::shared_ptr<const security::ScoringModel> model,
              const security::StreamDetectorConfig& detector_config)
      : ring(ring_capacity),
        recycle(ring_capacity),
        detector(std::move(model), detector_config) {}

  SpscRing<StreamWindow> ring;
  SpscRing<std::vector<double>> recycle;
  security::StreamDetector detector;
  std::size_t index = 0;            ///< stream id, for flight events
  std::uint64_t next_sequence = 0;  ///< ingest thread only
  std::uint64_t model_gen = 0;      ///< owning shard only
  bool has_verdict = false;         ///< owning shard only
  security::StreamVerdict last_verdict =
      security::StreamVerdict::kBenign;  ///< owning shard only
  std::atomic<bool> drop_warned{false};
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> scored{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> benign{0};
  std::atomic<std::uint64_t> integrity{0};
  std::atomic<std::uint64_t> availability{0};
  obs::Histogram* latency = nullptr;
  obs::Counter* windows = nullptr;
  std::vector<WindowResult> results;
};

/// Per-shard scratch: the precomputed CWT plan plus feature buffers, so
/// the per-window path allocates nothing.
struct DetectorService::ShardContext {
  ShardContext(const dsp::MorletCwt& cwt, std::size_t window_length,
               std::vector<double> frequencies)
      : plan(cwt, window_length, std::move(frequencies)),
        energies(plan.frequencies().size()),
        raw(plan.frequencies().size()),
        scaled(plan.frequencies().size()) {}

  dsp::CwtWindowPlan plan;
  std::vector<double> energies;
  std::vector<float> raw;
  std::vector<float> scaled;
};

DetectorService::DetectorService(
    std::shared_ptr<const security::ScoringModel> model,
    const am::DatasetBuilder& builder, Config config)
    : config_(config), scaler_(builder.scaler()), model_(std::move(model)) {
  if (!model_) {
    throw InvalidArgumentError("DetectorService: null scoring model");
  }
  if (config_.streams == 0) {
    throw InvalidArgumentError("DetectorService: streams must be positive");
  }
  if (config_.workers == 0) {
    throw InvalidArgumentError("DetectorService: workers must be positive");
  }
  if (config_.window_length == 0) {
    throw InvalidArgumentError(
        "DetectorService: window_length must be positive");
  }
  if (config_.ring_capacity == 0) {
    throw InvalidArgumentError(
        "DetectorService: ring_capacity must be positive");
  }
  if (builder.config().feature_method != am::FeatureMethod::kCwt) {
    throw InvalidArgumentError(
        "DetectorService: streaming scoring supports the CWT feature path");
  }
  if (model_->data_dim() != builder.binner().size()) {
    throw DimensionError(
        "DetectorService: model data_dim does not match the feature grid");
  }
  // More shards than streams would just idle; clamp.
  if (config_.workers > config_.streams) config_.workers = config_.streams;

  shards_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    shards_.push_back(std::make_unique<ShardContext>(
        builder.cwt(), config_.window_length, builder.binner().centers()));
  }

  states_.reserve(config_.streams);
  for (std::size_t i = 0; i < config_.streams; ++i) {
    auto state = std::make_unique<StreamState>(config_.ring_capacity, model_,
                                               config_.detector);
    state->index = i;
    const std::string scope = "serve.stream." + std::to_string(i);
    // Per-stream metric names are derived from the stream index; each
    // stream has exactly one scoring shard, so writes never contend
    // (see tools/metrics_manifest.txt, "documented exception").
    // gansec-lint: allow(obs-name-literal)
    state->latency = &obs::histogram(scope + ".latency_us", latency_bounds());
    // gansec-lint: allow(obs-name-literal)
    state->windows = &obs::counter(scope + ".windows");
    if (config_.keep_results && config_.expected_windows > 0) {
      state->results.reserve(config_.expected_windows);
    }
    states_.push_back(std::move(state));
  }

  static obs::Gauge& streams_gauge = obs::gauge("serve.streams");
  static obs::Gauge& workers_gauge = obs::gauge("serve.workers");
  streams_gauge.set(static_cast<double>(config_.streams));
  workers_gauge.set(static_cast<double>(config_.workers));
}

DetectorService::~DetectorService() { stop(); }

DetectorService::StreamState& DetectorService::stream_at(std::size_t stream) {
  if (stream >= states_.size()) {
    throw InvalidArgumentError("DetectorService: stream index out of range");
  }
  return *states_[stream];
}

const DetectorService::StreamState& DetectorService::stream_at(
    std::size_t stream) const {
  if (stream >= states_.size()) {
    throw InvalidArgumentError("DetectorService: stream index out of range");
  }
  return *states_[stream];
}

void DetectorService::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    throw InvalidArgumentError("DetectorService::start: already running");
  }
  stopping_.store(false, std::memory_order_release);
  live_shards_.store(config_.workers, std::memory_order_release);
  pool_ = std::make_unique<core::ThreadPool>(config_.workers);
  for (std::size_t shard = 0; shard < config_.workers; ++shard) {
    pool_->submit([this, shard] { shard_loop(shard); });
  }
  GANSEC_LOG_INFO("serve.start", {"streams", config_.streams},
                  {"workers", config_.workers},
                  {"ring_capacity", config_.ring_capacity},
                  {"window_length", config_.window_length});
}

void DetectorService::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  while (live_shards_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  pool_.reset();  // joins the (now idle) workers
  running_.store(false, std::memory_order_release);
}

std::vector<double> DetectorService::acquire_buffer(std::size_t stream) {
  std::vector<double> buffer;
  stream_at(stream).recycle.try_pop(buffer);
  return buffer;
}

std::size_t DetectorService::push(std::size_t stream,
                                  std::size_t expected_label,
                                  std::vector<double>&& samples) {
  StreamState& st = stream_at(stream);
  if (samples.size() != config_.window_length) {
    throw DimensionError(
        "DetectorService::push: window length does not match the plan");
  }
  if (expected_label >= model_->condition_count()) {
    throw InvalidArgumentError("DetectorService::push: label out of range");
  }
  StreamWindow w;
  w.sequence = st.next_sequence++;
  w.expected_label = expected_label;
  w.enqueued_us = obs::trace_now_us();
  w.samples = std::move(samples);
  const std::uint64_t sequence = w.sequence;
  const std::size_t dropped = st.ring.push_overwrite(std::move(w));
  st.ingested.fetch_add(1, std::memory_order_relaxed);
  ingested_counter().add(1);
  // Black-box queue-depth sample every 64 windows: cheap enough for the
  // ingest path, dense enough to reconstruct the backlog after the fact.
  if ((sequence & 63U) == 0) {
    obs::flight::record(obs::flight::EventKind::kQueueDepth, "serve.ring",
                        sequence, stream,
                        static_cast<double>(st.ring.size_estimate()),
                        static_cast<double>(st.ring.capacity()));
  }
  if (dropped > 0) {
    st.dropped.fetch_add(dropped, std::memory_order_relaxed);
    dropped_counter().add(dropped);
    obs::flight::record(obs::flight::EventKind::kWindowDropped, "serve.ring",
                        sequence, stream, static_cast<double>(dropped),
                        static_cast<double>(st.ring.capacity()));
    // First-drop warning per stream (mirrors the Series ring policy):
    // the counter carries the ongoing loss, the log carries the event.
    if (!st.drop_warned.exchange(true, std::memory_order_relaxed)) {
      GANSEC_LOG_WARN("serve.stream.backpressure", {"stream", stream},
                      {"ring_capacity", st.ring.capacity()},
                      {"policy", "drop-oldest"});
    }
  }
  return dropped;
}

void DetectorService::push_blocking(std::size_t stream,
                                    std::size_t expected_label,
                                    std::vector<double>&& samples) {
  StreamState& st = stream_at(stream);
  if (samples.size() != config_.window_length) {
    throw DimensionError(
        "DetectorService::push_blocking: window length does not match the "
        "plan");
  }
  if (expected_label >= model_->condition_count()) {
    throw InvalidArgumentError(
        "DetectorService::push_blocking: label out of range");
  }
  StreamWindow w;
  w.sequence = st.next_sequence++;
  w.expected_label = expected_label;
  w.enqueued_us = obs::trace_now_us();
  w.samples = std::move(samples);
  std::size_t spins = 0;
  while (!st.ring.try_push(std::move(w))) {
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  st.ingested.fetch_add(1, std::memory_order_relaxed);
  ingested_counter().add(1);
}

void DetectorService::install_model(
    std::shared_ptr<const security::ScoringModel> model) {
  if (!model) {
    throw InvalidArgumentError("DetectorService::install_model: null model");
  }
  if (model->data_dim() != model_->data_dim() ||
      model->condition_count() != model_->condition_count()) {
    throw DimensionError(
        "DetectorService::install_model: incompatible model shape");
  }
  {
    const std::lock_guard<std::mutex> lock(model_mu_);
    model_ = std::move(model);
  }
  model_generation_.fetch_add(1, std::memory_order_acq_rel);
  swaps_counter().add(1);
  obs::flight::record(obs::flight::EventKind::kModelSwap, "serve.model_swap",
                      model_generation_.load(std::memory_order_relaxed));
  GANSEC_LOG_INFO("serve.model_swap",
                  {"generation", model_generation_.load()});
}

void DetectorService::shard_loop(std::size_t shard) {
  ShardContext& ctx = *shards_[shard];
  std::uint64_t idle_spins = 0;
  for (;;) {
    bool any = false;
    for (std::size_t s = shard; s < states_.size(); s += shards_.size()) {
      StreamState& st = *states_[s];
      StreamWindow w;
      while (st.ring.try_pop(w)) {
        process_window(ctx, st, w);
        w.samples.clear();
        st.recycle.try_push(std::move(w.samples));
        any = true;
      }
    }
    if (any) {
      idle_spins = 0;
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  live_shards_.fetch_sub(1, std::memory_order_acq_rel);
}

void DetectorService::process_window(ShardContext& ctx, StreamState& state,
                                     StreamWindow& w) {
  // Hot-swap check: one relaxed-ish load per window; the mutex is taken
  // only in the window where the generation actually changed.
  const std::uint64_t gen = model_generation_.load(std::memory_order_acquire);
  if (gen != state.model_gen) {
    std::shared_ptr<const security::ScoringModel> m;
    {
      const std::lock_guard<std::mutex> lock(model_mu_);
      m = model_;
    }
    state.detector.swap_model(std::move(m));
    state.model_gen = gen;
  }

  ctx.plan.band_energies_into(w.samples.data(), w.samples.size(),
                              ctx.energies.data());
  for (std::size_t c = 0; c < ctx.energies.size(); ++c) {
    ctx.raw[c] = static_cast<float>(ctx.energies[c]);
  }
  scaler_.transform_row_into(ctx.raw.data(), ctx.raw.size(),
                             ctx.scaled.data());
  const security::WindowVerdict verdict = state.detector.score_window(
      ctx.scaled.data(), ctx.scaled.size(), w.expected_label);

  const double latency =
      static_cast<double>(obs::trace_now_us() - w.enqueued_us);
  latency_histogram().observe(latency);
  state.latency->observe(latency);
  state.windows->add(1);
  scored_counter().add(1);
  verdict_counter(verdict.verdict).add(1);
  state.scored.fetch_add(1, std::memory_order_relaxed);
  obs::flight::record(obs::flight::EventKind::kWindowScored, "serve.window",
                      w.sequence, state.index, verdict.score,
                      config_.detector.threshold,
                      static_cast<std::uint16_t>(verdict.verdict));
  if (state.has_verdict && verdict.verdict != state.last_verdict) {
    // A verdict flip is the forensic moment the black box exists for:
    // record it, and (rate-limited) snapshot a full incident bundle while
    // the surrounding windows are still in the rings.
    obs::flight::record(obs::flight::EventKind::kVerdictFlip, "serve.verdict",
                        w.sequence, state.index, verdict.score,
                        config_.detector.threshold,
                        static_cast<std::uint16_t>(verdict.verdict));
    obs::incident::maybe_trigger(
        "verdict_flip", security::stream_verdict_name(verdict.verdict));
  }
  state.has_verdict = true;
  state.last_verdict = verdict.verdict;
  switch (verdict.verdict) {
    case security::StreamVerdict::kBenign:
      state.benign.fetch_add(1, std::memory_order_relaxed);
      break;
    case security::StreamVerdict::kIntegrity:
      state.integrity.fetch_add(1, std::memory_order_relaxed);
      break;
    case security::StreamVerdict::kAvailability:
      state.availability.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  if (config_.keep_results) {
    WindowResult result;
    result.sequence = w.sequence;
    result.expected_label = w.expected_label;
    result.score = verdict.score;
    result.mean_feature = verdict.mean_feature;
    result.verdict = verdict.verdict;
    result.latency_us = latency;
    state.results.push_back(result);
  }
}

StreamTotals DetectorService::totals(std::size_t stream) const {
  const StreamState& st = stream_at(stream);
  StreamTotals totals;
  totals.ingested = st.ingested.load(std::memory_order_relaxed);
  totals.scored = st.scored.load(std::memory_order_relaxed);
  totals.dropped = st.dropped.load(std::memory_order_relaxed);
  totals.benign = st.benign.load(std::memory_order_relaxed);
  totals.integrity = st.integrity.load(std::memory_order_relaxed);
  totals.availability = st.availability.load(std::memory_order_relaxed);
  return totals;
}

const std::vector<WindowResult>& DetectorService::results(
    std::size_t stream) const {
  return stream_at(stream).results;
}

}  // namespace gansec::serve
