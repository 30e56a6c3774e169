#include "gansec/gan/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"
#include "gansec/math/workspace.hpp"
#include "gansec/nn/loss.hpp"
#include "gansec/obs/flight_recorder.hpp"
#include "gansec/obs/log.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::gan {

using math::Matrix;

namespace {

constexpr float kEps = 1e-7F;

// Distribution histograms shared by every trainer in the process (the
// flow-pair sweep trains many concurrently; the buckets are atomic so
// cross-trainer merging is free). Bucket edges follow the loss dynamics:
// d_loss lives in [0, 2 ln 2] at equilibrium and spikes toward ~32 when D
// collapses; g_loss spikes toward -log(eps) ~ 16; D outputs are
// probabilities.
obs::Histogram& d_loss_histogram() {
  static obs::Histogram& h = obs::histogram(
      "gan.train.d_loss", {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0});
  return h;
}

obs::Histogram& g_loss_histogram() {
  static obs::Histogram& h = obs::histogram(
      "gan.train.g_loss", {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0});
  return h;
}

obs::Histogram& d_real_histogram() {
  static obs::Histogram& h = obs::histogram(
      "gan.train.d_real", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  return h;
}

obs::Histogram& d_fake_histogram() {
  static obs::Histogram& h = obs::histogram(
      "gan.train.d_fake", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  return h;
}

obs::Counter& iterations_counter() {
  static obs::Counter& c = obs::counter("gan.train.iterations");
  return c;
}

// Training-set rows consumed (batch per discriminator step + generator
// step); the CLI's --progress reporter derives samples/s from this.
obs::Counter& samples_counter() {
  static obs::Counter& c = obs::counter("gan.train.samples");
  return c;
}

// Per-iteration wall clock in microseconds; the run report's histogram
// summary turns this into p50/p95/p99 iteration latency.
obs::Histogram& iter_us_histogram() {
  static obs::Histogram& h = obs::histogram(
      "gan.train.iter_us",
      {50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0,
       50000.0, 100000.0, 250000.0, 1000000.0});
  return h;
}

double mean_log(const Matrix& probs) {
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double p = std::clamp(static_cast<double>(probs.data()[i]),
                                static_cast<double>(kEps),
                                1.0 - static_cast<double>(kEps));
    acc += std::log(p);
  }
  return acc / static_cast<double>(probs.size());
}

}  // namespace

CganTrainer::CganTrainer(Cgan& model, TrainConfig config, std::uint64_t seed)
    : model_(model), config_(config), rng_(seed) {
  if (config_.batch_size == 0) {
    throw InvalidArgumentError("TrainConfig: batch_size must be positive");
  }
  if (config_.discriminator_steps == 0) {
    throw InvalidArgumentError(
        "TrainConfig: discriminator_steps must be positive");
  }
  if (config_.real_label <= 0.5F || config_.real_label > 1.0F) {
    throw InvalidArgumentError(
        "TrainConfig: real_label must be in (0.5, 1]");
  }
  if (config_.adam_beta1 < 0.0F || config_.adam_beta1 >= 1.0F) {
    throw InvalidArgumentError("TrainConfig: adam_beta1 must be in [0,1)");
  }
  if (config_.metrics_scope.empty()) {
    throw InvalidArgumentError("TrainConfig: metrics_scope must be non-empty");
  }
  // Per-pair loss series are legitimately dynamic: each concurrent trainer
  // in the flow-pair sweep gets its own scope so appends never contend
  // (see tools/metrics_manifest.txt, "documented exception").
  // gansec-lint: allow(obs-name-literal)
  series_g_loss_ = &obs::series(config_.metrics_scope + ".g_loss");
  // gansec-lint: allow(obs-name-literal)
  series_d_loss_ = &obs::series(config_.metrics_scope + ".d_loss");
  opt_g_ = make_optimizer(model_.generator().parameters(),
                          config_.learning_rate_g);
  opt_d_ = make_optimizer(model_.discriminator().parameters(),
                          config_.learning_rate_d);
}

std::unique_ptr<nn::Optimizer> CganTrainer::make_optimizer(
    std::vector<nn::Parameter*> params, float lr) const {
  switch (config_.optimizer) {
    case OptimizerKind::kSgd:
      return std::make_unique<nn::Sgd>(std::move(params), lr);
    case OptimizerKind::kMomentum:
      return std::make_unique<nn::Momentum>(std::move(params), lr);
    case OptimizerKind::kAdam:
      return std::make_unique<nn::Adam>(std::move(params), lr,
                                        config_.adam_beta1);
  }
  throw InvalidArgumentError("TrainConfig: unknown optimizer kind");
}

void CganTrainer::validate_dataset(const Matrix& samples,
                                   const Matrix& conditions) const {
  const auto& t = model_.topology();
  if (samples.cols() != t.data_dim) {
    throw DimensionError("CganTrainer: sample width != topology data_dim");
  }
  if (conditions.cols() != t.cond_dim) {
    throw DimensionError(
        "CganTrainer: condition width != topology cond_dim");
  }
  if (samples.rows() != conditions.rows()) {
    throw DimensionError(
        "CganTrainer: samples/conditions row count mismatch");
  }
  if (samples.rows() == 0) {
    throw InvalidArgumentError("CganTrainer: empty training set");
  }
  if (!samples.all_finite() || !conditions.all_finite()) {
    throw NumericError("CganTrainer: non-finite values in training data");
  }
}

void CganTrainer::train(const Matrix& samples, const Matrix& conditions) {
  train_iterations(samples, conditions, config_.iterations);
}

void CganTrainer::train_iterations(const Matrix& samples,
                                   const Matrix& conditions,
                                   std::size_t count) {
  validate_dataset(samples, conditions);
  GANSEC_SPAN("gan.train");
  for (std::size_t it = 0; it < count; ++it) {
    GANSEC_SPAN("gan.iteration");
    const auto iter_start = std::chrono::steady_clock::now();
    TrainRecord record;
    record.iteration = ++iterations_done_;
    // Algorithm 2, lines 4-8: k discriminator ascent steps.
    for (std::size_t k = 0; k < config_.discriminator_steps; ++k) {
      discriminator_step(samples, conditions, record);
    }
    // Algorithm 2, lines 9-10: one generator step reusing the last f2 batch.
    generator_step(last_batch_conditions_, record);
    history_.push_back(record);
    const auto step = static_cast<double>(record.iteration);
    d_loss_histogram().observe(record.d_loss);
    g_loss_histogram().observe(record.g_loss);
    d_real_histogram().observe(record.d_real_mean);
    d_fake_histogram().observe(record.d_fake_mean);
    series_d_loss_->append(step, record.d_loss);
    series_g_loss_->append(step, record.g_loss);
    iterations_counter().add();
    samples_counter().add(config_.batch_size *
                          (config_.discriminator_steps + 1));
    obs::flight::record(obs::flight::EventKind::kTrainStep, "gan.iteration",
                        record.iteration, 0, record.d_loss, record.g_loss);
    iter_us_histogram().observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - iter_start)
            .count());
    GANSEC_LOG_TRACE("gan.train.iteration", {"scope", config_.metrics_scope},
                     {"iter", record.iteration}, {"g_loss", record.g_loss},
                     {"d_loss", record.d_loss},
                     {"d_real", record.d_real_mean},
                     {"d_fake", record.d_fake_mean});
    if (config_.checkpoint_every != 0 &&
        record.iteration % config_.checkpoint_every == 0) {
      checkpoints_.push_back(
          Checkpoint{record.iteration, model_.generator().clone()});
    }
  }
  if (!history_.empty()) {
    GANSEC_LOG_DEBUG("gan.train.done", {"scope", config_.metrics_scope},
                     {"iterations", iterations_done_},
                     {"g_loss", history_.back().g_loss},
                     {"d_loss", history_.back().d_loss});
  }
}

// The two step functions are the training inner loop: all scratch comes
// from the thread-local workspace, so after warm-up an iteration performs
// no heap allocation (asserted by the workspace high-water tests).
// gansec-lint: hot-path

void CganTrainer::discriminator_step(const Matrix& samples,
                                     const Matrix& conditions,
                                     TrainRecord& record) {
  nn::Mlp& d = model_.discriminator();
  nn::Mlp& g = model_.generator();
  const std::size_t n = config_.batch_size;
  nn::BinaryCrossEntropy bce(kEps);

  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);

  // Lines 5-7: minibatch of noise plus paired (f1, f2) samples. Same rng
  // draw order as always: indices, then noise.
  rng_.sample_indices_with_replacement_into(idx_, samples.rows(), n);
  Matrix& f1 = ws.acquire(n, samples.cols());
  math::gather_rows_into(f1, samples, idx_);
  Matrix& f2 = ws.acquire(n, conditions.cols());
  math::gather_rows_into(f2, conditions, idx_);
  Matrix& z = ws.acquire(n, model_.topology().noise_dim);
  rng_.fill_normal(z, n, model_.topology().noise_dim, 0.0F, 1.0F);

  opt_d_->zero_grad();

  const bool least_squares =
      config_.objective == AdversarialObjective::kLeastSquares;
  nn::MeanSquaredError mse;

  Matrix& targets = ws.acquire(n, 1);
  Matrix& grad_loss = ws.acquire(n, 1);

  // Real branch: maximize log D(f1|f2) == minimize BCE(D, 1); LSGAN
  // regresses D(real) toward the (smoothed) real label instead. The real
  // branch's loss, gradient, and mean are all taken before the fake branch
  // runs: d_real is a view of D's output buffer, which the second forward
  // pass below overwrites.
  Matrix& d_real_in = ws.acquire(n, f1.cols() + f2.cols());
  math::hstack_into(d_real_in, f1, f2);
  const Matrix& d_real = d.forward(d_real_in, /*training=*/true);
  targets.fill(config_.real_label);
  const double loss_real = least_squares ? mse.value(d_real, targets)
                                         : bce.value(d_real, targets);
  record.d_real_mean = static_cast<double>(d_real.mean());
  if (least_squares) {
    mse.gradient_into(grad_loss, d_real, targets);
  } else {
    bce.gradient_into(grad_loss, d_real, targets);
  }
  // D's input gradient is never read here, so its first layer skips it.
  d.backward(grad_loss, nn::BackwardMode::kParamsOnly);

  // Fake branch: maximize log(1 - D(G(z|f2))) == minimize BCE(D, 0); LSGAN
  // regresses D(fake) toward 0. The generator is only sampled here; its
  // gradients are discarded.
  Matrix& g_in = ws.acquire(n, z.cols() + f2.cols());
  math::hstack_into(g_in, z, f2);
  const Matrix& fake = g.forward(g_in, /*training=*/true);
  Matrix& d_fake_in = ws.acquire(n, fake.cols() + f2.cols());
  math::hstack_into(d_fake_in, fake, f2);
  const Matrix& d_fake = d.forward(d_fake_in, /*training=*/true);
  targets.fill(0.0F);
  const double loss_fake = least_squares ? mse.value(d_fake, targets)
                                         : bce.value(d_fake, targets);
  record.d_fake_mean = static_cast<double>(d_fake.mean());
  if (least_squares) {
    mse.gradient_into(grad_loss, d_fake, targets);
  } else {
    bce.gradient_into(grad_loss, d_fake, targets);
  }
  d.backward(grad_loss, nn::BackwardMode::kParamsOnly);

  opt_d_->step();
  opt_d_->zero_grad();

  record.d_loss = loss_real + loss_fake;
  math::copy_into(last_batch_conditions_, f2);
}

void CganTrainer::generator_step(const Matrix& last_conditions,
                                 TrainRecord& record) {
  nn::Mlp& d = model_.discriminator();
  nn::Mlp& g = model_.generator();
  const std::size_t n = last_conditions.rows();

  auto& ws = math::Workspace::local();
  const math::Workspace::Scope scope(ws);

  Matrix& z = ws.acquire(n, model_.topology().noise_dim);
  rng_.fill_normal(z, n, model_.topology().noise_dim, 0.0F, 1.0F);

  opt_g_->zero_grad();

  Matrix& g_in = ws.acquire(n, z.cols() + last_conditions.cols());
  math::hstack_into(g_in, z, last_conditions);
  const Matrix& fake = g.forward(g_in, /*training=*/true);
  Matrix& d_fake_in = ws.acquire(n, fake.cols() + last_conditions.cols());
  math::hstack_into(d_fake_in, fake, last_conditions);
  const Matrix& d_fake = d.forward(d_fake_in, /*training=*/true);

  // dLoss/dD(fake), per sample, averaged over the batch.
  Matrix& grad_d_out = ws.acquire(n, 1);
  const float fn = static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float p =
        std::clamp(d_fake.data()[i], kEps, 1.0F - kEps);
    if (config_.objective == AdversarialObjective::kLeastSquares) {
      // LSGAN generator: L = mean (D(fake) - 1)^2; dL/dp = 2 (p - 1) / n.
      grad_d_out.data()[i] = 2.0F * (p - 1.0F) / fn;
    } else if (config_.generator_loss == GeneratorLoss::kOriginalMinimax) {
      // L = mean log(1 - p); dL/dp = -1 / (1 - p) / n.
      grad_d_out.data()[i] = -1.0F / (1.0F - p) / fn;
    } else {
      // L = -mean log p; dL/dp = -1 / p / n.
      grad_d_out.data()[i] = -1.0F / p / fn;
    }
  }

  // Report the non-saturating form regardless of the update rule: it is the
  // conventional curve shape (high when D rejects fakes, falling toward
  // ln 2 ~ 0.69 at equilibrium), matching Figure 7 of the paper. Taken
  // before the backward passes reuse any buffers d_fake could alias.
  record.g_loss = -mean_log(d_fake);

  // Backprop through D to its input, slice off the data part, then through
  // G. D's parameter gradients are not computed at all (its optimizer does
  // not step here, and the next discriminator step starts from zero), nor
  // is G's gradient with respect to [z | f2].
  const Matrix& grad_d_input =
      d.backward(grad_d_out, nn::BackwardMode::kInputOnly);
  Matrix& grad_fake = ws.acquire(n, model_.topology().data_dim);
  math::slice_cols_into(grad_fake, grad_d_input, 0,
                        model_.topology().data_dim);
  g.backward(grad_fake, nn::BackwardMode::kParamsOnly);

  opt_g_->step();
  opt_g_->zero_grad();
}

// gansec-lint: end-hot-path

}  // namespace gansec::gan
