#include "gansec/nn/batchnorm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/model/serialize.hpp"

namespace gansec::nn {
namespace {

using math::Matrix;
using math::Rng;

TEST(BatchNorm, Validation) {
  EXPECT_THROW(BatchNorm(0), InvalidArgumentError);
  EXPECT_THROW(BatchNorm(4, 0.0F), InvalidArgumentError);
  EXPECT_THROW(BatchNorm(4, 1.5F), InvalidArgumentError);
  EXPECT_THROW(BatchNorm(4, 0.1F, 0.0F), InvalidArgumentError);
}

TEST(BatchNorm, ForwardShapeErrors) {
  BatchNorm bn(4);
  EXPECT_THROW(bn.forward(Matrix(2, 3), true), DimensionError);
  EXPECT_THROW(bn.forward(Matrix(0, 4), true), InvalidArgumentError);
}

TEST(BatchNorm, NormalizesBatchInTraining) {
  Rng rng(3);
  BatchNorm bn(5);
  const Matrix x = rng.normal_matrix(256, 5, 3.0F, 2.0F);
  const Matrix y = bn.forward(x, /*training=*/true);
  for (std::size_t c = 0; c < 5; ++c) {
    double mean = 0.0;
    double sq = 0.0;
    for (std::size_t r = 0; r < y.rows(); ++r) {
      mean += y(r, c);
      sq += static_cast<double>(y(r, c)) * y(r, c);
    }
    mean /= static_cast<double>(y.rows());
    const double var = sq / static_cast<double>(y.rows()) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, AffineParametersApplied) {
  BatchNorm bn(2);
  bn.gamma().value = Matrix::from_rows({{2.0F, 0.5F}});
  bn.beta().value = Matrix::from_rows({{1.0F, -1.0F}});
  Rng rng(5);
  const Matrix x = rng.normal_matrix(128, 2, 0.0F, 1.0F);
  const Matrix y = bn.forward(x, true);
  double mean0 = 0.0;
  double mean1 = 0.0;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    mean0 += y(r, 0);
    mean1 += y(r, 1);
  }
  EXPECT_NEAR(mean0 / 128.0, 1.0, 1e-3);
  EXPECT_NEAR(mean1 / 128.0, -1.0, 1e-3);
}

TEST(BatchNorm, RunningStatsConvergeToDataStats) {
  Rng rng(7);
  BatchNorm bn(1, 0.2F);
  for (int step = 0; step < 200; ++step) {
    bn.forward(rng.normal_matrix(64, 1, 4.0F, 3.0F), true);
  }
  EXPECT_NEAR(bn.running_mean()(0, 0), 4.0F, 0.3F);
  EXPECT_NEAR(bn.running_var()(0, 0), 9.0F, 1.5F);
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  Rng rng(9);
  BatchNorm bn(1, 0.5F);
  for (int step = 0; step < 50; ++step) {
    bn.forward(rng.normal_matrix(64, 1, 2.0F, 1.0F), true);
  }
  // Single sample at the running mean normalizes to ~beta.
  Matrix probe(1, 1, bn.running_mean()(0, 0));
  const Matrix y = bn.forward(probe, /*training=*/false);
  EXPECT_NEAR(y(0, 0), 0.0F, 0.05F);
  // Eval must not disturb running statistics.
  const float before = bn.running_mean()(0, 0);
  bn.forward(Matrix(4, 1, 100.0F), false);
  EXPECT_FLOAT_EQ(bn.running_mean()(0, 0), before);
}

TEST(BatchNorm, GradientsMatchFiniteDifferencesEvalMode) {
  // Eval mode treats statistics as constants, so plain finite differences
  // apply cleanly (train-mode gradients are checked via the identity
  // below).
  Rng rng(11);
  BatchNorm bn(3);
  bn.forward(rng.normal_matrix(64, 3, 1.0F, 2.0F), true);  // set stats
  Matrix x = rng.normal_matrix(4, 3, 1.0F, 2.0F);
  const Matrix w = rng.normal_matrix(4, 3, 0.0F, 1.0F);
  bn.forward(x, false);
  bn.gamma().zero_grad();
  bn.beta().zero_grad();
  const Matrix grad_in = bn.backward(w);
  const float eps = 1e-3F;
  const auto loss = [&](const Matrix& input) {
    const Matrix y = bn.forward(input, false);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      acc += static_cast<double>(y.data()[i]) * w.data()[i];
    }
    return acc;
  };
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double up = loss(x);
    x.data()[i] = orig - eps;
    const double dn = loss(x);
    x.data()[i] = orig;
    EXPECT_NEAR(grad_in.data()[i], (up - dn) / (2.0 * eps), 2e-2);
  }
}

TEST(BatchNorm, TrainGradientSumsVanish) {
  // In train mode, dL/dx summed over the batch is zero per feature when
  // dL/dy has zero projection onto (1, xhat) — use the closed-form
  // identity: sum_r dx(r,c) == (gamma/std) * (sum dy - 0 - sum(xhat) *
  // mean(dy*xhat)) and sum(xhat) == 0, so sum_r dx == 0 whenever
  // sum_r dy == 0 per column... verify numerically with centered dy.
  Rng rng(13);
  BatchNorm bn(2);
  const Matrix x = rng.normal_matrix(32, 2, 0.0F, 1.0F);
  bn.forward(x, true);
  Matrix dy = rng.normal_matrix(32, 2, 0.0F, 1.0F);
  // Center each column of dy.
  for (std::size_t c = 0; c < 2; ++c) {
    float mu = 0.0F;
    for (std::size_t r = 0; r < 32; ++r) mu += dy(r, c);
    mu /= 32.0F;
    for (std::size_t r = 0; r < 32; ++r) dy(r, c) -= mu;
  }
  const Matrix dx = bn.backward(dy);
  for (std::size_t c = 0; c < 2; ++c) {
    float acc = 0.0F;
    for (std::size_t r = 0; r < 32; ++r) acc += dx(r, c);
    EXPECT_NEAR(acc, 0.0F, 1e-3F);
  }
}

TEST(BatchNorm, CloneCopiesEverything) {
  Rng rng(15);
  BatchNorm bn(2);
  bn.forward(rng.normal_matrix(64, 2, 5.0F, 2.0F), true);
  auto clone = bn.clone();
  auto* copy = dynamic_cast<BatchNorm*>(clone.get());
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->running_mean(), bn.running_mean());
  EXPECT_EQ(copy->running_var(), bn.running_var());
  const Matrix probe = rng.normal_matrix(3, 2, 5.0F, 2.0F);
  EXPECT_EQ(bn.forward(probe, false), copy->forward(probe, false));
}

TEST(BatchNorm, SerializeRoundTrip) {
  Rng rng(17);
  Mlp net;
  net.emplace<BatchNorm>(3, 0.2F, 1e-4F);
  dynamic_cast<BatchNorm&>(net.layer(0))
      .forward(rng.normal_matrix(64, 3, 2.0F, 1.5F), true);
  model::CheckpointWriter writer("mlp");
  model::add_mlp(writer, net, "");
  Mlp loaded = model::load_mlp_checkpoint(
      model::CheckpointReader::from_bytes(writer.to_bytes()));
  const auto& bn = dynamic_cast<const BatchNorm&>(loaded.layer(0));
  EXPECT_FLOAT_EQ(bn.momentum(), 0.2F);
  EXPECT_FLOAT_EQ(bn.eps(), 1e-4F);
  const Matrix probe = rng.normal_matrix(2, 3, 2.0F, 1.5F);
  EXPECT_EQ(net.forward(probe, false), loaded.forward(probe, false));
}

TEST(BatchNorm, InitWeightsResets) {
  Rng rng(19);
  BatchNorm bn(2);
  bn.forward(rng.normal_matrix(64, 2, 9.0F, 2.0F), true);
  bn.gamma().value(0, 0) = 5.0F;
  bn.init_weights(rng);
  EXPECT_FLOAT_EQ(bn.gamma().value(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(bn.running_mean()(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(bn.running_var()(0, 0), 1.0F);
}

}  // namespace
}  // namespace gansec::nn
