#include "gansec/nn/batchnorm.hpp"

#include <cmath>

#include "gansec/error.hpp"
#include "gansec/math/kernels.hpp"

namespace gansec::nn {

using math::Matrix;

BatchNorm::BatchNorm(std::size_t features, float momentum, float eps)
    : gamma_("gamma", Matrix(1, features, 1.0F)),
      beta_("beta", Matrix(1, features, 0.0F)),
      momentum_(momentum),
      eps_(eps),
      running_mean_(1, features, 0.0F),
      running_var_(1, features, 1.0F) {
  if (features == 0) {
    throw InvalidArgumentError("BatchNorm: features must be positive");
  }
  if (momentum <= 0.0F || momentum > 1.0F) {
    throw InvalidArgumentError("BatchNorm: momentum must be in (0,1]");
  }
  if (eps <= 0.0F) {
    throw InvalidArgumentError("BatchNorm: eps must be positive");
  }
}

// gansec-lint: hot-path

const Matrix& BatchNorm::forward(const Matrix& input, bool training) {
  if (input.cols() != features()) {
    throw DimensionError("BatchNorm::forward: feature width mismatch");
  }
  if (input.rows() == 0) {
    throw InvalidArgumentError("BatchNorm::forward: empty batch");
  }
  last_training_ = training;
  const std::size_t m = input.rows();
  const std::size_t d = features();

  if (training) {
    last_mean_.resize(1, d);
    last_var_.resize(1, d);
    for (std::size_t c = 0; c < d; ++c) {
      float mu = 0.0F;
      for (std::size_t r = 0; r < m; ++r) mu += input(r, c);
      mu /= static_cast<float>(m);
      float v = 0.0F;
      for (std::size_t r = 0; r < m; ++r) {
        const float diff = input(r, c) - mu;
        v += diff * diff;
      }
      v /= static_cast<float>(m);
      last_mean_(0, c) = mu;
      last_var_(0, c) = v;
      running_mean_(0, c) =
          (1.0F - momentum_) * running_mean_(0, c) + momentum_ * mu;
      running_var_(0, c) =
          (1.0F - momentum_) * running_var_(0, c) + momentum_ * v;
    }
  } else {
    math::copy_into(last_mean_, running_mean_);
    math::copy_into(last_var_, running_var_);
  }

  last_xhat_.resize(m, d);
  out_.resize(m, d);
  for (std::size_t c = 0; c < d; ++c) {
    const float inv_std = 1.0F / std::sqrt(last_var_(0, c) + eps_);
    for (std::size_t r = 0; r < m; ++r) {
      last_xhat_(r, c) = (input(r, c) - last_mean_(0, c)) * inv_std;
      out_(r, c) = gamma_.value(0, c) * last_xhat_(r, c) + beta_.value(0, c);
    }
  }
  return out_;
}

const Matrix& BatchNorm::backward(const Matrix& grad_output) {
  return backward(grad_output, BackwardMode::kFull);
}

const Matrix& BatchNorm::backward(const Matrix& grad_output,
                                  BackwardMode mode) {
  if (!grad_output.same_shape(last_xhat_)) {
    throw DimensionError("BatchNorm::backward: gradient shape mismatch");
  }
  const std::size_t m = grad_output.rows();
  const std::size_t d = features();
  const float fm = static_cast<float>(m);
  const bool want_params = mode != BackwardMode::kInputOnly;
  const bool want_input = mode != BackwardMode::kParamsOnly;
  grad_in_.resize(want_input ? m : 0, want_input ? d : 0);
  Matrix& grad_in = grad_in_;

  for (std::size_t c = 0; c < d; ++c) {
    if (want_params) {
      float dgamma = 0.0F;
      float dbeta = 0.0F;
      for (std::size_t r = 0; r < m; ++r) {
        dgamma += grad_output(r, c) * last_xhat_(r, c);
        dbeta += grad_output(r, c);
      }
      gamma_.grad(0, c) += dgamma;
      beta_.grad(0, c) += dbeta;
    }
    if (!want_input) continue;

    const float inv_std = 1.0F / std::sqrt(last_var_(0, c) + eps_);
    if (!last_training_) {
      // Inference statistics are constants: dx = dy * gamma / std.
      for (std::size_t r = 0; r < m; ++r) {
        grad_in(r, c) = grad_output(r, c) * gamma_.value(0, c) * inv_std;
      }
      continue;
    }
    // Train-time backward through the batch statistics:
    // dx = (gamma/std) * (dy - mean(dy) - xhat * mean(dy * xhat)).
    float mean_dy = 0.0F;
    float mean_dy_xhat = 0.0F;
    for (std::size_t r = 0; r < m; ++r) {
      mean_dy += grad_output(r, c);
      mean_dy_xhat += grad_output(r, c) * last_xhat_(r, c);
    }
    mean_dy /= fm;
    mean_dy_xhat /= fm;
    for (std::size_t r = 0; r < m; ++r) {
      grad_in(r, c) =
          gamma_.value(0, c) * inv_std *
          (grad_output(r, c) - mean_dy - last_xhat_(r, c) * mean_dy_xhat);
    }
  }
  return grad_in_;
}

// gansec-lint: end-hot-path

std::vector<Parameter*> BatchNorm::parameters() {
  return {&gamma_, &beta_};
}

void BatchNorm::init_weights(math::Rng& /*rng*/) {
  gamma_.value = Matrix(1, features(), 1.0F);
  beta_.value = Matrix(1, features(), 0.0F);
  gamma_.zero_grad();
  beta_.zero_grad();
  running_mean_ = Matrix(1, features(), 0.0F);
  running_var_ = Matrix(1, features(), 1.0F);
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto copy = std::make_unique<BatchNorm>(features(), momentum_, eps_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

}  // namespace gansec::nn
