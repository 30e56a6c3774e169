// The two serve workloads: a closed loop that keeps every shard busy
// (serve-saturate) and an open loop at the real-time sensor rate
// (serve-realtime). One generator thread — this one — copies windows from
// the set-up pool into the service; DetectorService runs the shards.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "gansec/core/execution.hpp"
#include "gansec/math/stats.hpp"
#include "gansec/obs/trace.hpp"
#include "gansec_bench.hpp"

namespace gansec::e2e {

namespace {

using security::StreamVerdict;

/// One window the generator offered to the service.
struct Offer {
  std::uint64_t due_us = 0;      ///< when it was due; closed loop: offered_us
  std::uint64_t offered_us = 0;  ///< trace clock just before the push call
};

/// What the batch path says about one pool window.
struct Reference {
  double score = 0.0;
  StreamVerdict verdict = StreamVerdict::kBenign;
  bool attacked = false;
};

struct Traffic {
  std::vector<std::vector<Offer>> offers;  ///< [stream][sequence]
  std::vector<double> push_us;
  std::vector<double> late_us;  ///< open loop: push time - due time
};

/// Scores every pool window through the batch path
/// (DatasetBuilder::features_for_waveform + ScoringModel::score_row) and
/// classifies it the way StreamDetector does. Served results must match
/// bit for bit.
std::vector<std::vector<Reference>> batch_reference(const Setup& setup) {
  const std::size_t per = setup.pool.front().size();
  std::vector<std::vector<Reference>> refs(setup.pool.size(),
                                           std::vector<Reference>(per));
  core::parallel_for(0, setup.pool.size() * per, 1,
                     [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const serve::StreamSource::Window& w = setup.pool[i / per][i % per];
      const math::Matrix features =
          setup.builder.features_for_waveform(w.samples);
      Reference& ref = refs[i / per][i % per];
      ref.score = setup.scoring->score_row(features, w.expected_label);
      double level = 0.0;
      for (std::size_t c = 0; c < features.cols(); ++c) {
        level += static_cast<double>(features(0, c));
      }
      level /= static_cast<double>(features.cols());
      if (ref.score < setup.detector.threshold) {
        ref.verdict = level < setup.detector.availability_floor
                          ? StreamVerdict::kAvailability
                          : StreamVerdict::kIntegrity;
      }
      ref.attacked = w.truth != security::AttackKind::kNone;
    }
  });
  return refs;
}

/// Closed loop: round-robin over the streams, each push waiting for ring
/// space, until `end_us`.
void offer_closed_loop(const Run& run, Setup& setup, std::uint64_t end_us,
                       Traffic& traffic) {
  serve::DetectorService& service = *setup.service;
  const std::size_t per = run.scale.pool_per_stream;
  for (std::size_t round = 0;; ++round) {
    for (std::size_t s = 0; s < setup.pool.size(); ++s) {
      if (obs::trace_now_us() >= end_us) return;
      const serve::StreamSource::Window& w = setup.pool[s][round % per];
      std::vector<double> buffer = service.acquire_buffer(s);
      buffer.assign(w.samples.begin(), w.samples.end());
      const SpanRecorder::Span span(run.spans, "serve.push_blocking");
      const std::uint64_t t0 = obs::trace_now_us();
      service.push_blocking(s, w.expected_label, std::move(buffer));
      traffic.push_us.push_back(
          static_cast<double>(obs::trace_now_us() - t0));
      traffic.offers[s].push_back({t0, t0});
    }
  }
}

/// Open loop: every stream sends one window per window period, whatever
/// the service does, like a microphone that hands over each window as it
/// fills; pushes drop the oldest window when a ring is full.
///
/// The warm-up and each of Scale::trials equal trials of the measured phase
/// draw from the seed a phase of its own for every stream; within a trial
/// each stream is strictly periodic at that phase. How long a window queues
/// behind shard-mates depends on the drawn phases (three streams of a shard
/// within a few ms of each other triple a window's latency), so over ten
/// seeds p95 latency varied by 0.24 (IQR/median) with one draw per run,
/// 0.16–0.24 with 6 and 0.055–0.18 with 12. Every window's period ends inside
/// its trial, so a stream's next window, in the next trial, comes at least
/// one period later: a stream never sends two windows closer than a period.
void offer_open_loop(const Run& run, Setup& setup, std::uint64_t start_us,
                     std::uint64_t begin_us, std::uint64_t end_us,
                     Traffic& traffic) {
  serve::DetectorService& service = *setup.service;
  const std::size_t per = run.scale.pool_per_stream;
  const auto period_us = static_cast<std::uint64_t>(
      std::llround(setup.builder.config().window_s * 1e6));
  std::vector<std::uint64_t> bounds{start_us};
  for (std::size_t t = 0; t <= run.scale.trials; ++t) {
    bounds.push_back(begin_us + (end_us - begin_us) * t / run.scale.trials);
  }
  struct Due {
    std::uint64_t us;
    std::size_t stream;
    std::size_t index;
  };
  std::vector<Due> schedule;
  std::vector<std::size_t> sent(setup.pool.size(), 0);
  math::Rng rng(run.seeds.arrivals);
  for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
    for (std::size_t s = 0; s < setup.pool.size(); ++s) {
      std::uint64_t due = bounds[t] + static_cast<std::uint64_t>(rng.uniform(
                                          0.0, static_cast<double>(period_us)));
      for (; due + period_us <= bounds[t + 1]; due += period_us) {
        schedule.push_back({due, s, sent[s]++});
      }
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Due& a, const Due& b) { return a.us < b.us; });

  const auto base = std::chrono::steady_clock::now();
  const std::uint64_t base_us = obs::trace_now_us();
  for (const Due& due : schedule) {
    const serve::StreamSource::Window& w =
        setup.pool[due.stream][due.index % per];
    std::vector<double> buffer = service.acquire_buffer(due.stream);
    buffer.assign(w.samples.begin(), w.samples.end());
    if (due.us > base_us) {
      std::this_thread::sleep_until(
          base + std::chrono::microseconds(due.us - base_us));
    }
    const SpanRecorder::Span span(run.spans, "serve.push");
    const std::uint64_t t0 = obs::trace_now_us();
    service.push(due.stream, w.expected_label, std::move(buffer));
    traffic.push_us.push_back(static_cast<double>(obs::trace_now_us() - t0));
    traffic.late_us.push_back(
        t0 > due.us ? static_cast<double>(t0 - due.us) : 0.0);
    traffic.offers[due.stream].push_back({due.us, t0});
  }
}

double percentile_or_zero(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : math::percentile(std::move(xs), p);
}

/// The served results held against the offers and the batch reference.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t unscored = 0;    ///< dropped, or left in a ring at stop()
  std::uint64_t mismatched = 0;  ///< score or verdict differs from the batch
  std::uint64_t dropped = 0;
  std::uint64_t measured = 0;         ///< windows due in the measured phase
  std::uint64_t missed_deadline = 0;  ///< of those: late or never scored
  bool balanced = true;               ///< ingested == scored + dropped
  std::vector<double> latency_ms;     ///< measured windows, from due time
  std::vector<double> wait_ms;        ///< traced: latency minus compute
  std::vector<double> measured_done_us;  ///< verdict times, measured windows
  std::vector<double> done_us;           ///< verdict times, every window
};

Tally tally(const Setup& setup, const Traffic& traffic,
            const std::vector<std::vector<Reference>>& refs,
            std::uint64_t begin_us, std::uint64_t end_us,
            std::optional<double> stage_ms) {
  const serve::DetectorService& service = *setup.service;
  const double period_ms = setup.builder.config().window_s * 1e3;
  const std::size_t per = setup.pool.front().size();
  const auto in_phase = [&](const Offer& o) {
    return o.due_us >= begin_us && o.due_us < end_us;
  };
  Tally t;
  for (std::size_t s = 0; s < setup.pool.size(); ++s) {
    const std::vector<Offer>& offers = traffic.offers[s];
    const serve::StreamTotals totals = service.totals(s);
    t.balanced = t.balanced && totals.ingested == offers.size() &&
                 totals.ingested == totals.scored + totals.dropped;
    t.dropped += totals.dropped;
    t.offered += offers.size();
    std::vector<bool> scored(offers.size(), false);
    for (const serve::WindowResult& r : service.results(s)) {
      if (r.sequence >= offers.size() || scored[r.sequence]) {
        ++t.mismatched;
        continue;
      }
      scored[r.sequence] = true;
      const Reference& ref = refs[s][r.sequence % per];
      if (std::memcmp(&r.score, &ref.score, sizeof(double)) != 0 ||
          r.verdict != ref.verdict) {
        ++t.mismatched;
      }
      const Offer& offer = offers[r.sequence];
      const double done = static_cast<double>(offer.offered_us) + r.latency_us;
      t.done_us.push_back(done);
      if (!in_phase(offer)) continue;
      const double ms = (done - static_cast<double>(offer.due_us)) / 1e3;
      ++t.measured;
      t.missed_deadline += ms > period_ms ? 1 : 0;
      t.latency_ms.push_back(ms);
      t.measured_done_us.push_back(done);
      if (stage_ms) t.wait_ms.push_back(r.latency_us / 1e3 - *stage_ms);
    }
    for (std::size_t q = 0; q < offers.size(); ++q) {
      if (scored[q]) continue;
      ++t.unscored;
      if (in_phase(offers[q])) {
        ++t.measured;
        ++t.missed_deadline;
      }
    }
  }
  return t;
}

}  // namespace

void run_serve(const Run& run, Setup& setup, std::optional<double> stage_ms) {
  using bench::Direction;
  Results& out = run.results;
  const bool saturate = run.options.workload == Workload::kServeSaturate;
  const std::size_t workers = std::min(run.scale.workers, setup.pool.size());

  Traffic traffic;
  traffic.offers.resize(setup.pool.size());
  setup.service->start();
  // The open loop's first window is due shortly after start, never before.
  const std::uint64_t start_us = obs::trace_now_us() + 10'000;
  const std::uint64_t begin_us =
      start_us + static_cast<std::uint64_t>(run.scale.warmup_s * 1e6);
  const std::uint64_t end_us =
      begin_us + static_cast<std::uint64_t>(run.options.seconds * 1e6);
  if (saturate) {
    offer_closed_loop(run, setup, end_us, traffic);
  } else {
    offer_open_loop(run, setup, start_us, begin_us, end_us, traffic);
  }
  setup.service->stop();
  const std::vector<std::vector<Reference>> refs = batch_reference(setup);
  const Tally t = tally(setup, traffic, refs, begin_us, end_us, stage_ms);

  // Saturated: verdicts per second, median over equal segments of the
  // measured phase. Real time: the offered rate is fixed, so report the
  // rate the measured windows' verdicts were delivered at; it falls when a
  // backlog builds.
  const double begin = static_cast<double>(begin_us);
  const double measured_s = run.options.seconds;
  double throughput = 0.0;
  if (saturate) {
    const double segment_us =
        measured_s * 1e6 / static_cast<double>(run.scale.segments);
    std::vector<double> rates(run.scale.segments, 0.0);
    for (const double done : t.done_us) {
      if (done < begin) continue;
      const auto seg = static_cast<std::size_t>((done - begin) / segment_us);
      if (seg < rates.size()) rates[seg] += 1e6 / segment_us;
    }
    throughput = median(rates);
  } else if (t.measured_done_us.size() > 1) {
    const auto [first, last] = std::minmax_element(
        t.measured_done_us.begin(), t.measured_done_us.end());
    throughput = static_cast<double>(t.measured_done_us.size() - 1) /
                 ((*last - *first) / 1e6);
  }
  const auto in_interval = static_cast<double>(
      std::count_if(t.done_us.begin(), t.done_us.end(), [&](double done) {
        return done >= begin && done < static_cast<double>(end_us);
      }));

  out.metric("throughput_per_s", throughput, "1/s", Direction::kHigherIsBetter);
  out.metric("latency_p50_ms", percentile_or_zero(t.latency_ms, 50.0), "ms",
             Direction::kLowerIsBetter);
  out.metric("latency_p95_ms", percentile_or_zero(t.latency_ms, 95.0), "ms",
             Direction::kLowerIsBetter);
  out.metric("latency_samples", static_cast<double>(t.latency_ms.size()),
             "count", Direction::kTwoSided);
  out.metric("serve.offered", static_cast<double>(t.offered), "count",
             Direction::kTwoSided);
  out.metric("serve.scored_in_interval", in_interval, "count",
             Direction::kHigherIsBetter);
  out.metric("serve.dropped", static_cast<double>(t.dropped), "count",
             Direction::kLowerIsBetter);
  out.metric("serve.push_us_p50", percentile_or_zero(traffic.push_us, 50.0),
             "us", Direction::kLowerIsBetter);
  out.metric("serve.push_us_p99", percentile_or_zero(traffic.push_us, 99.0),
             "us", Direction::kLowerIsBetter);
  // Detection quality over the first pass through the pool: every served
  // window repeats a pool window and, as checked, its batch verdict.
  double flagged[2] = {0.0, 0.0};  // [attacked]
  double total[2] = {0.0, 0.0};
  for (const auto& stream : refs) {
    for (const Reference& ref : stream) {
      total[ref.attacked] += 1.0;
      flagged[ref.attacked] += ref.verdict != StreamVerdict::kBenign ? 1 : 0;
    }
  }
  out.metric("detect.tpr", total[1] > 0.0 ? flagged[1] / total[1] : 0.0,
             "ratio", Direction::kHigherIsBetter);
  out.metric("detect.fpr", total[0] > 0.0 ? flagged[0] / total[0] : 0.0,
             "ratio", Direction::kLowerIsBetter);
  if (!saturate) {
    out.metric("serve.deadline_miss_frac",
               t.measured == 0 ? 0.0
                               : static_cast<double>(t.missed_deadline) /
                                     static_cast<double>(t.measured),
               "ratio", Direction::kLowerIsBetter);
    out.metric("loadgen.late_ms_p99",
               percentile_or_zero(traffic.late_us, 99.0) / 1e3, "ms",
               Direction::kLowerIsBetter);
  }
  if (stage_ms) {
    out.metric("serve.wait_ms_p50", percentile_or_zero(t.wait_ms, 50.0), "ms",
               Direction::kLowerIsBetter);
    out.metric("serve.wait_ms_p99", percentile_or_zero(t.wait_ms, 99.0), "ms",
               Direction::kLowerIsBetter);
    const double worker_ms = static_cast<double>(workers) * measured_s * 1e3;
    out.metric("serve.worker_busy_frac", in_interval * *stage_ms / worker_ms,
               "ratio", Direction::kTwoSided);
    if (saturate && in_interval > 0.0) {
      out.metric("serve.overhead_us",
                 (worker_ms / in_interval - *stage_ms) * 1e3, "us",
                 Direction::kLowerIsBetter);
    }
  }

  out.add_attempted(t.offered);
  out.add_failed(t.unscored + t.mismatched);
  out.check("serve.accounting", t.balanced);
  out.check("serve.scores_match_batch", t.mismatched == 0);
  out.check("serve.measured_windows", !t.latency_ms.empty());
}

}  // namespace gansec::e2e
