// DetectorService battery. The centerpiece is the refactor's contract:
// streaming verdicts are bit-identical to the batch Algorithm 3 path at
// every worker count (1/2/8), because stream->shard pinning keeps each
// stream's windows ordered on one worker and the scoring path performs
// the same FP ops in the same order as the batch detector.
#include "gansec/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/security/detector.hpp"
#include "gansec/serve/loadgen.hpp"
#include "serve_fixture.hpp"

namespace gansec::serve {
namespace {

using gansec::serve::testing::serve_setup;
using security::AttackKind;
using security::ScoringModel;
using security::StreamVerdict;

security::DetectorConfig fast_config() {
  security::DetectorConfig config;
  config.generator_samples = 64;
  return config;
}

std::shared_ptr<const ScoringModel> shared_model() {
  static auto model = std::make_shared<const ScoringModel>(
      serve_setup().model, fast_config());
  return model;
}

/// The reference outcome of one window, computed through the *batch*
/// pipeline: DatasetBuilder featurization + ScoringModel::score_row.
struct ExpectedWindow {
  std::size_t expected_label = 0;
  std::vector<double> samples;
  double score = 0.0;
  double mean_feature = 0.0;
};

LoadGenConfig test_traffic() {
  LoadGenConfig lg;
  lg.streams = 3;
  lg.windows_per_stream = 6;
  lg.attack_fraction = 0.5;
  lg.attack_kind = AttackKind::kAvailability;
  lg.seed = 77;
  return lg;
}

/// Generates every stream's window sequence once and scores it through
/// the batch path (same waveforms the service will receive: StreamSource
/// is deterministic per (seed, stream)).
std::vector<std::vector<ExpectedWindow>> expected_windows(
    const LoadGenConfig& lg) {
  auto& setup = serve_setup();
  const ScoringModel batch(setup.model, fast_config());
  std::vector<std::vector<ExpectedWindow>> streams(lg.streams);
  for (std::size_t s = 0; s < lg.streams; ++s) {
    StreamSource source(setup.builder, lg, s);
    for (std::size_t j = 0; j < lg.windows_per_stream; ++j) {
      StreamSource::Window w = source.next();
      ExpectedWindow e;
      e.expected_label = w.expected_label;
      const math::Matrix features =
          setup.builder.features_for_waveform(w.samples);
      e.score = batch.score_row(features, w.expected_label);
      double acc = 0.0;
      for (std::size_t c = 0; c < features.cols(); ++c) {
        acc += static_cast<double>(features(0, c));
      }
      e.mean_feature = acc / static_cast<double>(features.cols());
      e.samples = std::move(w.samples);
      streams[s].push_back(std::move(e));
    }
  }
  return streams;
}

/// Median benign-ish score: guarantees both anomalous and benign windows
/// exist in the traffic, so every verdict branch is exercised.
double median_score(const std::vector<std::vector<ExpectedWindow>>& all) {
  std::vector<double> scores;
  for (const auto& stream : all) {
    for (const ExpectedWindow& e : stream) scores.push_back(e.score);
  }
  std::sort(scores.begin(), scores.end());
  return scores[scores.size() / 2];
}

StreamVerdict expected_verdict(const ExpectedWindow& e, double threshold,
                               double availability_floor) {
  if (e.score >= threshold) return StreamVerdict::kBenign;
  return e.mean_feature < availability_floor ? StreamVerdict::kAvailability
                                             : StreamVerdict::kIntegrity;
}

DetectorService::Config service_config(const LoadGenConfig& lg,
                                       std::size_t workers,
                                       double threshold) {
  DetectorService::Config config;
  config.streams = lg.streams;
  config.workers = workers;
  config.ring_capacity = 16;
  config.window_length = window_sample_count(serve_setup().dataset_config);
  config.detector.threshold = threshold;
  config.keep_results = true;
  config.expected_windows = lg.windows_per_stream;
  return config;
}

/// Pushes every expected window (losslessly) and runs it to completion.
void run_service(DetectorService& service,
                 const std::vector<std::vector<ExpectedWindow>>& all) {
  service.start();
  for (std::size_t s = 0; s < all.size(); ++s) {
    for (const ExpectedWindow& e : all[s]) {
      service.push_blocking(s, e.expected_label,
                            std::vector<double>(e.samples));
    }
  }
  service.stop();
}

TEST(DetectorService, BitIdenticalToBatchAcrossWorkerCounts) {
  const LoadGenConfig lg = test_traffic();
  const auto all = expected_windows(lg);
  const double threshold = median_score(all);
  bool saw_benign = false;
  bool saw_attack = false;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    DetectorService service(shared_model(), serve_setup().builder,
                            service_config(lg, workers, threshold));
    run_service(service, all);
    for (std::size_t s = 0; s < lg.streams; ++s) {
      const auto& results = service.results(s);
      ASSERT_EQ(results.size(), lg.windows_per_stream)
          << "workers=" << workers << " stream=" << s;
      for (std::size_t j = 0; j < results.size(); ++j) {
        const ExpectedWindow& e = all[s][j];
        // EXPECT_EQ on doubles: the streaming path must reproduce the
        // batch score to the last bit, at every worker count.
        EXPECT_EQ(results[j].score, e.score)
            << "workers=" << workers << " stream=" << s << " window=" << j;
        EXPECT_EQ(results[j].mean_feature, e.mean_feature);
        EXPECT_EQ(results[j].sequence, j);
        EXPECT_EQ(results[j].expected_label, e.expected_label);
        const StreamVerdict verdict =
            expected_verdict(e, threshold, 0.05);
        EXPECT_EQ(results[j].verdict, verdict);
        if (verdict == StreamVerdict::kBenign) {
          saw_benign = true;
        } else {
          saw_attack = true;
        }
      }
      const StreamTotals totals = service.totals(s);
      EXPECT_EQ(totals.ingested, lg.windows_per_stream);
      EXPECT_EQ(totals.scored, lg.windows_per_stream);
      EXPECT_EQ(totals.dropped, 0U);
      EXPECT_EQ(totals.benign + totals.integrity + totals.availability,
                lg.windows_per_stream);
    }
  }
  // The median threshold guarantees the traffic exercises both branches.
  EXPECT_TRUE(saw_benign);
  EXPECT_TRUE(saw_attack);
}

TEST(DetectorService, DropOldestIsCountedAndKeepsNewestWindows) {
  const LoadGenConfig lg = test_traffic();
  const auto all = expected_windows(lg);
  DetectorService::Config config =
      service_config(lg, 1, median_score(all));
  config.streams = 1;
  config.ring_capacity = 4;
  DetectorService service(shared_model(), serve_setup().builder, config);
  obs::Counter& dropped_metric = obs::counter("serve.windows_dropped");
  const std::uint64_t metric_before = dropped_metric.value();
  // Not started: the ring fills and push() starts dropping the oldest.
  std::size_t dropped = 0;
  for (std::size_t j = 0; j < 10; ++j) {
    const ExpectedWindow& e = all[0][j % all[0].size()];
    dropped +=
        service.push(0, e.expected_label, std::vector<double>(e.samples));
  }
  EXPECT_EQ(dropped, 6U);
  service.start();
  service.stop();
  const StreamTotals totals = service.totals(0);
  EXPECT_EQ(totals.ingested, 10U);
  EXPECT_EQ(totals.dropped, 6U);
  EXPECT_EQ(totals.scored, 4U);
  // The operator-facing metric counts the same drops.
  EXPECT_EQ(dropped_metric.value() - metric_before, totals.dropped);
  // Drop-oldest: the survivors are exactly the newest four, in order.
  const auto& results = service.results(0);
  ASSERT_EQ(results.size(), 4U);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(results[j].sequence, 6 + j);
  }
}

/// Textbook 64-bit FNV-1a, continued from `hash` over `bytes` bytes.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(LoadGen, StreamChecksumIsFnv1aOfLabelsAndSamples) {
  constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  // Published FNV-1a 64 test vectors pin the offset basis and the prime.
  EXPECT_EQ(fnv1a(kOffsetBasis, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kOffsetBasis, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(kOffsetBasis, "foobar", 6), 0x85944171f73967e8ULL);

  // stream_checksum hashes each window's label byte, then its samples'
  // little-endian IEEE-754 bytes. A twin source yields the same windows.
  const LoadGenConfig lg = test_traffic();
  StreamSource source(serve_setup().builder, lg, 1);
  StreamSource twin(serve_setup().builder, lg, 1);
  std::uint64_t expected = kOffsetBasis;
  for (std::size_t j = 0; j < lg.windows_per_stream; ++j) {
    const StreamSource::Window w = twin.next();
    ASSERT_LT(w.expected_label, 256U);
    const auto label = static_cast<unsigned char>(w.expected_label);
    expected = fnv1a(expected, &label, 1);
    for (const double sample : w.samples) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &sample, sizeof(bits));
      unsigned char le[sizeof(bits)];
      for (std::size_t b = 0; b < sizeof(bits); ++b) {
        le[b] = static_cast<unsigned char>(bits >> (8 * b));
      }
      expected = fnv1a(expected, le, sizeof(le));
    }
  }
  EXPECT_EQ(stream_checksum(source, lg.windows_per_stream), expected);
}

TEST(DetectorService, HotSwapChangesScoringModel) {
  const LoadGenConfig lg = test_traffic();
  const auto all = expected_windows(lg);
  const double threshold = median_score(all);
  // Model B: an untrained same-shape generator — deterministic, same
  // interface, different weights, so scores must differ.
  gan::Cgan untrained(
      gan::CganTopology{serve_setup().dataset_config.bins, 3, 8, {16}, {16},
                        0.2F, 0.0F},
      311);
  const auto model_b =
      std::make_shared<const ScoringModel>(untrained, fast_config());

  DetectorService with_a(shared_model(), serve_setup().builder,
                         service_config(lg, 2, threshold));
  run_service(with_a, all);

  DetectorService swapped(shared_model(), serve_setup().builder,
                          service_config(lg, 2, threshold));
  EXPECT_EQ(swapped.model_generation(), 0U);
  swapped.install_model(model_b);
  EXPECT_EQ(swapped.model_generation(), 1U);
  run_service(swapped, all);

  DetectorService with_b(model_b, serve_setup().builder,
                         service_config(lg, 2, threshold));
  run_service(with_b, all);

  bool any_difference = false;
  for (std::size_t s = 0; s < lg.streams; ++s) {
    const auto& a = with_a.results(s);
    const auto& b = with_b.results(s);
    const auto& sw = swapped.results(s);
    ASSERT_EQ(sw.size(), b.size());
    for (std::size_t j = 0; j < sw.size(); ++j) {
      // Post-swap the service scores exactly like a service built on B...
      EXPECT_EQ(sw[j].score, b[j].score);
      // ...and B genuinely disagrees with A somewhere.
      if (sw[j].score != a[j].score) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(DetectorService, InstallModelValidatesShape) {
  const LoadGenConfig lg = test_traffic();
  DetectorService service(shared_model(), serve_setup().builder,
                          service_config(lg, 1, 0.0));
  gan::Cgan narrow(gan::CganTopology{8, 3, 8, {16}, {16}, 0.2F, 0.0F}, 99);
  EXPECT_THROW(service.install_model(std::make_shared<const ScoringModel>(
                   narrow, fast_config())),
               DimensionError);
  EXPECT_THROW(service.install_model(nullptr), InvalidArgumentError);
}

TEST(DetectorService, ConfigValidation) {
  const LoadGenConfig lg = test_traffic();
  auto& setup = serve_setup();
  DetectorService::Config config = service_config(lg, 1, 0.0);
  config.streams = 0;
  EXPECT_THROW(DetectorService(shared_model(), setup.builder, config),
               InvalidArgumentError);
  config = service_config(lg, 1, 0.0);
  config.window_length = 0;
  EXPECT_THROW(DetectorService(shared_model(), setup.builder, config),
               InvalidArgumentError);
  config = service_config(lg, 0, 0.0);
  EXPECT_THROW(DetectorService(shared_model(), setup.builder, config),
               InvalidArgumentError);
  EXPECT_THROW(DetectorService(nullptr, setup.builder,
                               service_config(lg, 1, 0.0)),
               InvalidArgumentError);
}

TEST(DetectorService, PushValidatesWindowLengthAndLabel) {
  const LoadGenConfig lg = test_traffic();
  DetectorService service(shared_model(), serve_setup().builder,
                          service_config(lg, 1, 0.0));
  EXPECT_THROW(service.push(0, 0, std::vector<double>(3)), DimensionError);
  EXPECT_THROW(service.push(0, 9,
                            std::vector<double>(service.window_length())),
               InvalidArgumentError);
  EXPECT_THROW(service.push(99, 0,
                            std::vector<double>(service.window_length())),
               InvalidArgumentError);
}

TEST(DetectorService, BufferRecyclingRoundTrips) {
  const LoadGenConfig lg = test_traffic();
  const auto all = expected_windows(lg);
  DetectorService::Config config =
      service_config(lg, 1, median_score(all));
  config.streams = 1;
  DetectorService service(shared_model(), serve_setup().builder, config);
  service.start();
  for (const ExpectedWindow& e : all[0]) {
    service.push_blocking(0, e.expected_label,
                          std::vector<double>(e.samples));
  }
  service.stop();
  // Scored windows hand their sample buffers back through the recycle
  // ring; the next producer pass reuses the allocation.
  std::vector<double> recycled = service.acquire_buffer(0);
  EXPECT_GE(recycled.capacity(), service.window_length());
}

}  // namespace
}  // namespace gansec::serve
