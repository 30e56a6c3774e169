// Bit-exactness of the training backward pass: Dense's forward-shaped
// dL/dX against the dot-product oracle, the reduced Mlp::backward modes
// against the full pass, and branch-free LeakyReLU against the select form
// it replaced, on the float edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "gansec/core/execution.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/batchnorm.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/mlp.hpp"

namespace gansec::nn {
namespace {

using math::Matrix;
using math::Rng;

void expect_same_bits(const Matrix& got, const Matrix& want,
                      const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
              std::bit_cast<std::uint32_t>(want.data()[i]))
        << what << " element " << i;
  }
}

TEST(DenseBackward, InputGradientEqualsTransposedBProduct) {
  // 48 x 128 x 128 crosses the GEMM's parallel threshold, so the 4-thread
  // run goes through the pool; a third of dY is exactly zero, the terms
  // the forward-shaped GEMM skips.
  for (const std::size_t threads : {1U, 4U}) {
    core::ExecutionConfig exec;
    exec.threads = threads;
    const core::ScopedExecution scoped(exec);
    Rng rng(0xD1);
    Dense layer(128, 128, InitScheme::kHeNormal);
    layer.init_weights(rng);
    const Matrix x = rng.normal_matrix(48, 128, 0.0F, 1.0F);
    Matrix dy = rng.normal_matrix(48, 128, 0.0F, 1.0F);
    for (std::size_t i = 0; i < dy.size(); i += 3) dy.data()[i] = 0.0F;
    layer.forward(x, /*training=*/true);
    const Matrix& dx = layer.backward(dy);
    expect_same_bits(dx, Matrix::matmul_transposed_b(dy, layer.weight().value),
                     "dL/dX");
  }
}

Mlp test_network(Rng& rng) {
  Mlp net;
  net.emplace<Dense>(12, 96, InitScheme::kHeNormal);
  net.emplace<BatchNorm>(96);
  net.emplace<LeakyRelu>(0.2F);
  net.emplace<Dense>(96, 96, InitScheme::kHeNormal);
  net.emplace<LeakyRelu>(0.2F);
  net.emplace<Dense>(96, 5, InitScheme::kXavierUniform);
  net.emplace<Sigmoid>();
  net.init_weights(rng);
  return net;
}

std::vector<Matrix> grads_of(Mlp& net) {
  std::vector<Matrix> out;
  for (const Parameter* p : net.parameters()) out.push_back(p->grad);
  return out;
}

TEST(MlpBackward, ReducedModesMatchTheFullPassOnWhatTheyCompute) {
  Rng rng(0xB4);
  Mlp net = test_network(rng);
  const Matrix x = rng.normal_matrix(32, 12, 0.0F, 1.0F);
  const Matrix dy = rng.normal_matrix(32, 5, 0.0F, 0.1F);

  net.zero_grad();
  net.forward(x, /*training=*/true);
  const Matrix full_dx = net.backward(dy);
  const std::vector<Matrix> full_grads = grads_of(net);

  // kParamsOnly: every parameter gradient, and no dL/dX from the first
  // (Dense) layer.
  net.zero_grad();
  net.forward(x, /*training=*/true);
  const Matrix& skipped = net.backward(dy, BackwardMode::kParamsOnly);
  EXPECT_EQ(skipped.size(), 0U);
  const std::vector<Matrix> params_grads = grads_of(net);
  ASSERT_EQ(params_grads.size(), full_grads.size());
  for (std::size_t p = 0; p < full_grads.size(); ++p) {
    expect_same_bits(params_grads[p], full_grads[p], "kParamsOnly grad");
  }

  // kInputOnly: the same dL/dX, and parameter gradients left exactly as
  // they were (here: the kParamsOnly values, not doubled, not zeroed).
  net.forward(x, /*training=*/true);
  expect_same_bits(net.backward(dy, BackwardMode::kInputOnly), full_dx,
                   "kInputOnly dL/dX");
  const std::vector<Matrix> untouched = grads_of(net);
  for (std::size_t p = 0; p < full_grads.size(); ++p) {
    expect_same_bits(untouched[p], full_grads[p], "kInputOnly grad");
  }
}

/// Edge-case inputs: both zeros, both infinities, a quiet NaN, both
/// signs of a denormal, of a tiny normal and of ordinary values.
std::vector<float> special_values() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min() * 7.0F;
  const float tiny = std::numeric_limits<float>::min();
  return {0.0F,  -0.0F,  inf,    -inf,  std::numeric_limits<float>::quiet_NaN(),
          denorm, -denorm, tiny,   -tiny, 1.5F,
          -1.5F, 3e38F,  -3e38F, 0.25F, -0.25F};
}

TEST(LeakyReluBranchFree, MatchesTheSelectFormBitForBit) {
  const std::vector<float> specials = special_values();
  const std::size_t n = specials.size();
  for (const float slope : {0.2F, 0.0F, 1.0F}) {
    // Row r pairs input specials[c] with gradient specials[(c + r) % n],
    // so backward sees every (output sign, gradient) combination.
    Matrix x(n, n);
    Matrix g(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        x(r, c) = specials[c];
        g(r, c) = specials[(c + r) % n];
      }
    }
    LeakyRelu layer(slope);
    const Matrix y = layer.forward(x, /*training=*/true);
    const Matrix dx = layer.backward(g);
    Matrix want_y(n, n);
    Matrix want_dx(n, n);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float v = x.data()[i];
      want_y.data()[i] = v > 0.0F ? v : slope * v;
      const float gi = g.data()[i];
      want_dx.data()[i] = want_y.data()[i] > 0.0F ? gi : gi * slope;
    }
    expect_same_bits(y, want_y, "forward");
    expect_same_bits(dx, want_dx, "backward");
  }
}

}  // namespace
}  // namespace gansec::nn
